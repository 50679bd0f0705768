//! Synthetic benchmark generator.
//!
//! Produces random combinational DAGs with ISCAS-like shape: bounded
//! fanin (1–3), a fanout distribution dominated by small fanouts with a
//! heavy-ish tail, reconvergent paths, and logic depth growing slowly
//! with size. Generation is fully deterministic in the seed so every
//! experiment is reproducible.

use crate::{Circuit, CircuitError, GateKind, NodeId};
use klest_rng::{Rng, SeedableRng, StdRng};

/// Parameters of the synthetic generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Number of logic gates to create (primary inputs are extra).
    pub gates: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// RNG seed — same seed, same circuit.
    pub seed: u64,
    /// Locality bias in (0, 1]: higher values make gates prefer recent
    /// fanins, producing deeper circuits (ISCAS85-ish ≈ 0.9 for
    /// multipliers; lower for shallow control logic).
    pub locality: f64,
}

impl GeneratorConfig {
    /// A reasonable configuration for a combinational (c-series-like)
    /// circuit of `gates` gates.
    pub fn combinational(gates: usize, seed: u64) -> Self {
        GeneratorConfig {
            gates,
            // ISCAS85 circuits have tens to a couple hundred inputs.
            inputs: (gates as f64).sqrt().ceil() as usize + 8,
            seed,
            locality: 0.85,
        }
    }

    /// A configuration mimicking an unrolled sequential (s-series-like)
    /// circuit: many more "inputs" (flip-flop outputs) and shallower
    /// logic.
    pub fn sequential(gates: usize, seed: u64) -> Self {
        GeneratorConfig {
            gates,
            inputs: (gates as f64).sqrt().ceil() as usize * 3 + 16,
            seed,
            locality: 0.6,
        }
    }
}

/// Generates a synthetic circuit.
///
/// # Errors
///
/// Propagates [`CircuitError`] from the builder (cannot occur for a valid
/// configuration) and rejects configurations with zero gates or inputs
/// via [`CircuitError::Empty`].
pub fn generate(name: impl Into<String>, config: GeneratorConfig) -> Result<Circuit, CircuitError> {
    if config.gates == 0 || config.inputs == 0 {
        return Err(CircuitError::Empty);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = Circuit::builder(name);
    let mut nodes: Vec<NodeId> = (0..config.inputs).map(|_| b.input()).collect();
    // Track fanout counts so we can mark sinks as primary outputs.
    let mut fanout_count = vec![0usize; config.inputs + config.gates];

    for _ in 0..config.gates {
        // Pick a gate kind; weights approximate standard-cell mix.
        let kind = pick_kind(&mut rng);
        let k = kind.fanin_count();
        let mut fanins = Vec::with_capacity(k);
        for _ in 0..k {
            let src = pick_fanin(&mut rng, &nodes, config.locality, &fanins);
            fanins.push(src);
        }
        let id = b.gate(kind, &fanins)?;
        for f in &fanins {
            fanout_count[f.index()] += 1;
        }
        nodes.push(id);
    }

    // Primary outputs: every logic node with no fanout.
    let mut any_output = false;
    for &n in nodes.iter().skip(config.inputs) {
        if fanout_count[n.index()] == 0 {
            b.output(n);
            any_output = true;
        }
    }
    if !any_output {
        // Degenerate but possible for tiny circuits: expose the last gate.
        b.output(*nodes.last().expect("at least one node"));
    }
    b.build()
}

fn pick_kind(rng: &mut StdRng) -> GateKind {
    // (kind, weight): mostly 2-input gates, some inverters/buffers, a few
    // 3-input gates — a plausible mapped-netlist mix.
    const MIX: &[(GateKind, u32)] = &[
        (GateKind::Inv, 14),
        (GateKind::Buf, 4),
        (GateKind::Nand2, 28),
        (GateKind::Nor2, 16),
        (GateKind::And2, 12),
        (GateKind::Or2, 10),
        (GateKind::Xor2, 8),
        (GateKind::Nand3, 5),
        (GateKind::Nor3, 3),
    ];
    let total: u32 = MIX.iter().map(|&(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
    for &(kind, w) in MIX {
        if roll < w {
            return kind;
        }
        roll -= w;
    }
    GateKind::Nand2
}

/// Chooses a fanin with a geometric locality bias toward recent nodes,
/// avoiding duplicate pins on the same gate.
fn pick_fanin(rng: &mut StdRng, nodes: &[NodeId], locality: f64, taken: &[NodeId]) -> NodeId {
    let n = nodes.len();
    for _ in 0..16 {
        let candidate = if rng.gen::<f64>() < locality {
            // Geometric look-back: distance ~ Geom(p) capped at n.
            let p: f64 = 0.02;
            let u: f64 = rng.gen::<f64>().max(1e-12);
            let back = (u.ln() / (1.0 - p).ln()).ceil() as usize;
            nodes[n - 1 - back.min(n - 1)]
        } else {
            nodes[rng.gen_range(0..n)]
        };
        if !taken.contains(&candidate) {
            return candidate;
        }
    }
    // Fall back to any non-duplicate scan.
    *nodes
        .iter()
        .rev()
        .find(|c| !taken.contains(c))
        .unwrap_or(&nodes[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_gate_count() {
        for &n in &[10, 100, 383, 1000] {
            let c = generate("t", GeneratorConfig::combinational(n, 1)).unwrap();
            assert_eq!(c.gate_count(), n, "gate count for n = {n}");
            assert!(c.input_count() > 0);
            assert!(!c.outputs().is_empty());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate("a", GeneratorConfig::combinational(200, 42)).unwrap();
        let b = generate("b", GeneratorConfig::combinational(200, 42)).unwrap();
        assert_eq!(a.node_count(), b.node_count());
        for id in a.topological_order() {
            assert_eq!(a.kind(id), b.kind(id));
            assert_eq!(a.fanins(id), b.fanins(id));
        }
        let c = generate("c", GeneratorConfig::combinational(200, 43)).unwrap();
        let same = a
            .topological_order()
            .all(|id| a.kind(id) == c.kind(id) && a.fanins(id) == c.fanins(id));
        assert!(!same, "different seeds must differ");
    }

    #[test]
    fn depth_grows_slowly_with_size() {
        let small = generate("s", GeneratorConfig::combinational(100, 7)).unwrap();
        let large = generate("l", GeneratorConfig::combinational(5000, 7)).unwrap();
        assert!(small.depth() >= 4, "depth {}", small.depth());
        assert!(large.depth() > small.depth());
        assert!(
            large.depth() < large.gate_count() / 10,
            "depth {} too close to gate count",
            large.depth()
        );
    }

    #[test]
    fn no_duplicate_pins() {
        let c = generate("d", GeneratorConfig::combinational(500, 3)).unwrap();
        for id in c.topological_order() {
            let f = c.fanins(id);
            for i in 0..f.len() {
                for j in (i + 1)..f.len() {
                    assert_ne!(f[i], f[j], "duplicate pin on {id}");
                }
            }
        }
    }

    #[test]
    fn sequential_config_has_more_inputs() {
        let comb = GeneratorConfig::combinational(1000, 1);
        let seq = GeneratorConfig::sequential(1000, 1);
        assert!(seq.inputs > comb.inputs);
        let c = generate("s", seq).unwrap();
        assert_eq!(c.gate_count(), 1000);
    }

    #[test]
    fn outputs_have_no_fanout() {
        let c = generate("o", GeneratorConfig::combinational(300, 9)).unwrap();
        for &o in c.outputs() {
            assert!(c.fanouts(o).is_empty(), "output {o} has fanout");
        }
    }

    #[test]
    fn rejects_degenerate_config() {
        assert!(generate(
            "z",
            GeneratorConfig {
                gates: 0,
                inputs: 4,
                seed: 0,
                locality: 0.5
            }
        )
        .is_err());
        assert!(generate(
            "z",
            GeneratorConfig {
                gates: 5,
                inputs: 0,
                seed: 0,
                locality: 0.5
            }
        )
        .is_err());
    }

    #[test]
    fn fanout_distribution_is_skewed() {
        // Most nodes have small fanout; a few have large fanout.
        let c = generate("f", GeneratorConfig::combinational(2000, 11)).unwrap();
        let mut counts: Vec<usize> = c
            .topological_order()
            .map(|id| c.fanouts(id).len())
            .collect();
        counts.sort_unstable();
        let median = counts[counts.len() / 2];
        let max = *counts.last().unwrap();
        assert!(median <= 3, "median fanout {median}");
        assert!(max >= 8, "max fanout {max}");
    }
}
