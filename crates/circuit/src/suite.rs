//! The Table 1 benchmark suite: synthetic circuits with the exact gate
//! counts of the ISCAS85/89 circuits the paper evaluates.

use crate::{generate, Circuit, CircuitError, GeneratorConfig};

/// Identifier of a Table 1 benchmark circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BenchmarkId {
    C880,
    C1355,
    C1908,
    C3540,
    C5315,
    C6288,
    S5378,
    C7552,
    S9234,
    S13207,
    S15850,
    S35932,
    S38584,
    S38417,
}

impl BenchmarkId {
    /// Canonical circuit name as printed in Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            BenchmarkId::C880 => "c880",
            BenchmarkId::C1355 => "c1355",
            BenchmarkId::C1908 => "c1908",
            BenchmarkId::C3540 => "c3540",
            BenchmarkId::C5315 => "c5315",
            BenchmarkId::C6288 => "c6288",
            BenchmarkId::S5378 => "s5378",
            BenchmarkId::C7552 => "c7552",
            BenchmarkId::S9234 => "s9234",
            BenchmarkId::S13207 => "s13207",
            BenchmarkId::S15850 => "s15850",
            BenchmarkId::S35932 => "s35932",
            BenchmarkId::S38584 => "s38584",
            BenchmarkId::S38417 => "s38417",
        }
    }

    /// Gate count as reported in Table 1 (`N_g`).
    pub fn gate_count(&self) -> usize {
        match self {
            BenchmarkId::C880 => 383,
            BenchmarkId::C1355 => 546,
            BenchmarkId::C1908 => 880,
            BenchmarkId::C3540 => 1669,
            BenchmarkId::C5315 => 2307,
            BenchmarkId::C6288 => 2416,
            BenchmarkId::S5378 => 2779,
            BenchmarkId::C7552 => 3512,
            BenchmarkId::S9234 => 5597,
            BenchmarkId::S13207 => 7951,
            BenchmarkId::S15850 => 9772,
            BenchmarkId::S35932 => 16065,
            BenchmarkId::S38584 => 19253,
            BenchmarkId::S38417 => 22179,
        }
    }

    /// Is this an (unrolled) sequential s-series circuit?
    pub fn is_sequential(&self) -> bool {
        matches!(
            self,
            BenchmarkId::S5378
                | BenchmarkId::S9234
                | BenchmarkId::S13207
                | BenchmarkId::S15850
                | BenchmarkId::S35932
                | BenchmarkId::S38584
                | BenchmarkId::S38417
        )
    }

    /// Deterministic seed: the same benchmark always generates the same
    /// circuit.
    fn seed(&self) -> u64 {
        // Stable arbitrary constants; distinct per circuit.
        0x5eed_0000 + self.gate_count() as u64
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// All Table 1 benchmarks, in the paper's row order (ascending `N_g`,
/// with the two late c-circuits interleaved exactly as printed).
pub const TABLE1_BENCHMARKS: [BenchmarkId; 14] = [
    BenchmarkId::C880,
    BenchmarkId::C1355,
    BenchmarkId::C1908,
    BenchmarkId::C3540,
    BenchmarkId::C5315,
    BenchmarkId::C6288,
    BenchmarkId::S5378,
    BenchmarkId::C7552,
    BenchmarkId::S9234,
    BenchmarkId::S13207,
    BenchmarkId::S15850,
    BenchmarkId::S35932,
    BenchmarkId::S38584,
    BenchmarkId::S38417,
];

/// Generates the synthetic stand-in for a Table 1 benchmark at its exact
/// gate count.
///
/// # Errors
///
/// Propagates [`CircuitError`] (cannot occur for these fixed
/// configurations).
pub fn benchmark(id: BenchmarkId) -> Result<Circuit, CircuitError> {
    let config = if id.is_sequential() {
        GeneratorConfig::sequential(id.gate_count(), id.seed())
    } else {
        GeneratorConfig::combinational(id.gate_count(), id.seed())
    };
    generate(id.name(), config)
}

/// Generates a scaled-down version of a benchmark (gate count multiplied
/// by `scale` and rounded, minimum 16 gates). Used by harnesses that
/// cannot afford the full 100 K × 22 K-gate experiments of the paper on a
/// development machine (see EXPERIMENTS.md).
///
/// # Errors
///
/// Propagates [`CircuitError`].
pub fn benchmark_scaled(id: BenchmarkId, scale: f64) -> Result<Circuit, CircuitError> {
    let gates = ((id.gate_count() as f64 * scale).round() as usize).max(16);
    let config = if id.is_sequential() {
        GeneratorConfig::sequential(gates, id.seed())
    } else {
        GeneratorConfig::combinational(gates, id.seed())
    };
    generate(id.name(), config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_match_table1() {
        let expected = [
            ("c880", 383),
            ("c1355", 546),
            ("c1908", 880),
            ("c3540", 1669),
            ("c5315", 2307),
            ("c6288", 2416),
            ("s5378", 2779),
            ("c7552", 3512),
            ("s9234", 5597),
            ("s13207", 7951),
            ("s15850", 9772),
            ("s35932", 16065),
            ("s38584", 19253),
            ("s38417", 22179),
        ];
        for (id, (name, count)) in TABLE1_BENCHMARKS.iter().zip(expected) {
            assert_eq!(id.name(), name);
            assert_eq!(id.gate_count(), count);
            assert_eq!(id.to_string(), name);
        }
    }

    #[test]
    fn small_benchmarks_generate_exactly() {
        for id in [BenchmarkId::C880, BenchmarkId::C1355, BenchmarkId::C1908] {
            let c = benchmark(id).unwrap();
            assert_eq!(c.gate_count(), id.gate_count());
            assert_eq!(c.name(), id.name());
        }
    }

    #[test]
    fn sequential_flag() {
        assert!(!BenchmarkId::C880.is_sequential());
        assert!(BenchmarkId::S5378.is_sequential());
        assert_eq!(
            TABLE1_BENCHMARKS
                .iter()
                .filter(|b| b.is_sequential())
                .count(),
            7
        );
    }

    #[test]
    fn generation_is_reproducible() {
        let a = benchmark(BenchmarkId::C880).unwrap();
        let b = benchmark(BenchmarkId::C880).unwrap();
        for id in a.topological_order() {
            assert_eq!(a.fanins(id), b.fanins(id));
        }
    }

    #[test]
    fn scaled_benchmark() {
        let c = benchmark_scaled(BenchmarkId::S38417, 0.01).unwrap();
        assert_eq!(c.gate_count(), 222);
        let floor = benchmark_scaled(BenchmarkId::C880, 0.001).unwrap();
        assert_eq!(floor.gate_count(), 16, "minimum gate floor");
    }
}
