//! Circuit topology statistics.
//!
//! Used to sanity-check that synthetic benchmarks look like mapped
//! netlists (bounded fanin, skewed fanout, shallow-ish depth) and to
//! report workload characteristics alongside experiment results.

use crate::{Circuit, GateKind};

/// Topology summary of a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitStats {
    /// Total nodes (inputs + gates).
    pub nodes: usize,
    /// Logic gates (`N_g`).
    pub gates: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Longest input-to-output path in gates.
    pub depth: usize,
    /// Mean fanout over driving nodes.
    pub mean_fanout: f64,
    /// Largest fanout.
    pub max_fanout: usize,
    /// Mean fanin over logic gates.
    pub mean_fanin: f64,
    /// Gate-kind histogram `(kind, count)`, descending by count.
    pub kind_histogram: Vec<(GateKind, usize)>,
    /// Per-level gate counts (index = logic level).
    pub level_profile: Vec<usize>,
}

impl CircuitStats {
    /// Measures `circuit`.
    pub fn measure(circuit: &Circuit) -> Self {
        let nodes = circuit.node_count();
        let mut fanout_total = 0usize;
        let mut fanout_max = 0usize;
        let mut drivers = 0usize;
        let mut fanin_total = 0usize;
        let mut kinds: Vec<(GateKind, usize)> = Vec::new();
        for id in circuit.topological_order() {
            let fo = circuit.fanouts(id).len();
            if fo > 0 {
                drivers += 1;
                fanout_total += fo;
                fanout_max = fanout_max.max(fo);
            }
            let kind = circuit.kind(id);
            if kind != GateKind::Input {
                fanin_total += circuit.fanins(id).len();
                match kinds.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, c)) => *c += 1,
                    None => kinds.push((kind, 1)),
                }
            }
        }
        kinds.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        let levels = circuit.levels();
        let depth = levels.iter().copied().max().unwrap_or(0);
        let mut level_profile = vec![0usize; depth + 1];
        for (&level, id) in levels.iter().zip(circuit.topological_order()) {
            if circuit.kind(id) != GateKind::Input {
                level_profile[level] += 1;
            }
        }
        CircuitStats {
            nodes,
            gates: circuit.gate_count(),
            inputs: circuit.input_count(),
            outputs: circuit.outputs().len(),
            depth,
            mean_fanout: if drivers > 0 {
                fanout_total as f64 / drivers as f64
            } else {
                0.0
            },
            max_fanout: fanout_max,
            mean_fanin: if circuit.gate_count() > 0 {
                fanin_total as f64 / circuit.gate_count() as f64
            } else {
                0.0
            },
            kind_histogram: kinds,
            level_profile,
        }
    }
}

impl std::fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} gates / {} inputs / {} outputs, depth {}, fanout mean {:.2} max {}, fanin mean {:.2}",
            self.gates,
            self.inputs,
            self.outputs,
            self.depth,
            self.mean_fanout,
            self.max_fanout,
            self.mean_fanin
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GeneratorConfig};

    #[test]
    fn measures_tiny_circuit_exactly() {
        let mut b = Circuit::builder("t");
        let a = b.input();
        let x = b.input();
        let g = b.gate(GateKind::Nand2, &[a, x]).unwrap();
        let h = b.gate(GateKind::Inv, &[g]).unwrap();
        b.output(h);
        let c = b.build().unwrap();
        let s = CircuitStats::measure(&c);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.gates, 2);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.depth, 2);
        assert_eq!(s.max_fanout, 1);
        assert!((s.mean_fanin - 1.5).abs() < 1e-12);
        assert_eq!(s.kind_histogram.len(), 2);
        assert_eq!(s.level_profile, vec![0, 1, 1]);
        assert!(s.to_string().contains("2 gates"));
    }

    #[test]
    fn generated_circuits_look_like_netlists() {
        let c = generate("g", GeneratorConfig::combinational(2000, 3)).unwrap();
        let s = CircuitStats::measure(&c);
        assert_eq!(s.gates, 2000);
        // Mapped-netlist shape: fanin between 1 and 3, mean around 2.
        assert!(s.mean_fanin > 1.5 && s.mean_fanin < 2.5, "{}", s.mean_fanin);
        // Fanout skew: small mean, meaningful max.
        assert!(s.mean_fanout < 4.0);
        assert!(s.max_fanout >= 8);
        // Depth well below gate count but nontrivial.
        assert!(s.depth > 10 && s.depth < s.gates / 5, "depth {}", s.depth);
        // NAND2 dominates the mix (the generator's weights).
        assert_eq!(s.kind_histogram[0].0, GateKind::Nand2);
        // Level profile accounts for every gate.
        assert_eq!(s.level_profile.iter().sum::<usize>(), s.gates);
        assert_eq!(s.level_profile[0], 0, "no logic at input level");
    }

    #[test]
    fn sequential_profile_is_shallower() {
        let comb =
            CircuitStats::measure(&generate("c", GeneratorConfig::combinational(3000, 5)).unwrap());
        let seq =
            CircuitStats::measure(&generate("s", GeneratorConfig::sequential(3000, 5)).unwrap());
        assert!(
            seq.depth < comb.depth,
            "unrolled sequential logic should be shallower: {} vs {}",
            seq.depth,
            comb.depth
        );
        assert!(seq.inputs > comb.inputs);
    }
}
