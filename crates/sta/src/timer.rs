//! The topological timing engine (the "core timer inside the Monte Carlo
//! loops", paper Sec. 5.1).
//!
//! [`Timer::new`] compiles the circuit once into a flat timing graph:
//! CSR fanins, each driver's Elmore wire delay and squared Bakoglu wire
//! slew, and each node's gate kind and `load_coeff · C_load` terms. A
//! timing pass then evaluates only what depends on parameters and slews.
//! One kernel, [`Timer::analyze_lanes`], times `B` samples per walk of
//! the graph; [`Timer::analyze_into`] is its one-lane instance, and every
//! lane is bit-identical to a one-lane pass over that lane's parameters.

use crate::{bakoglu_slew, elmore_delay, GateLibrary, ParamVector, QuadraticGateModel};
use klest_circuit::{Circuit, GateKind, NodeId, Placement, WireModel};

/// Per-node timing quantities from one analysis.
#[derive(Debug, Clone)]
pub struct TimingReport {
    arrivals: Vec<f64>,
    slews: Vec<f64>,
    worst_delay: f64,
    critical_output: Option<NodeId>,
}

impl TimingReport {
    /// Arrival time at every node's output, indexed by node.
    pub fn arrivals(&self) -> &[f64] {
        &self.arrivals
    }

    /// Slew at every node's output, indexed by node.
    pub fn slews(&self) -> &[f64] {
        &self.slews
    }

    /// Arrival time at node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn arrival(&self, id: NodeId) -> f64 {
        self.arrivals[id.index()]
    }

    /// The worst (largest) primary-output arrival — the circuit delay
    /// statistic Table 1 reports.
    pub fn worst_delay(&self) -> f64 {
        self.worst_delay
    }

    /// The primary output achieving [`worst_delay`](Self::worst_delay).
    pub fn critical_output(&self) -> Option<NodeId> {
        self.critical_output
    }
}

/// A driver's output net, reduced to what a timing pass reads.
#[derive(Debug, Clone, Copy)]
struct Wire {
    /// Elmore delay from the driver to its sinks.
    delay: f64,
    /// Square of the net's Bakoglu slew: the wire term of the PERI rule.
    slew_sq: f64,
}

impl Wire {
    /// PERI: the slew at the sinks for a ramp of `input_slew` at the
    /// driver.
    #[inline(always)]
    fn slew(self, input_slew: f64) -> f64 {
        (input_slew * input_slew + self.slew_sq).sqrt()
    }
}

/// A node's gate kind (its index into the library's model table) and the
/// load terms of its two models.
#[derive(Debug, Clone, Copy)]
struct NodeTerms {
    kind: GateKind,
    /// `load_coeff · C_load` of the delay model.
    delay_load: f64,
    /// `load_coeff · C_load` of the output-slew model.
    slew_load: f64,
}

/// A quadratic model bound to one node's load and `B` lanes' parameters:
/// every term but the input slew, each formed as
/// [`QuadraticGateModel::eval`] forms it.
struct BoundModel<const B: usize> {
    nominal: f64,
    slew_coeff: f64,
    load: f64,
    floor: f64,
    linear: [f64; B],
    quadratic: [f64; B],
}

impl<const B: usize> BoundModel<B> {
    #[inline(always)]
    fn new(model: &QuadraticGateModel, load: f64, params: &[ParamVector; B]) -> Self {
        let w = params.map(|p| p.dot(&model.direction));
        BoundModel {
            nominal: model.nominal,
            slew_coeff: model.slew_coeff,
            load,
            floor: 0.01 * model.nominal,
            linear: w.map(|w| model.linear * w),
            quadratic: w.map(|w| model.quadratic * w * w),
        }
    }

    /// [`QuadraticGateModel::eval`] in lane `lane` at input slew `slew`,
    /// bit for bit: the same sum in the same order, then the clamp.
    #[inline(always)]
    fn eval(&self, lane: usize, slew: f64) -> f64 {
        (self.nominal
            + self.slew_coeff * slew
            + self.load
            + self.linear[lane]
            + self.quadratic[lane])
            .max(self.floor)
    }
}

/// A static timer bound to one circuit + placement + library, compiled
/// into a flat timing graph.
///
/// Wire delays and slews, load terms and fanin lists are computed once;
/// each [`analyze`](Timer::analyze) call is a single allocation-light
/// topological sweep, which is what the Monte Carlo loop hammers.
#[derive(Debug, Clone)]
pub struct Timer {
    /// CSR fanins: node `i` reads `fanin_ids[fanin_start[i]..fanin_start[i + 1]]`.
    fanin_start: Vec<usize>,
    fanin_ids: Vec<NodeId>,
    /// Each node's output net, indexed by driver.
    wires: Vec<Wire>,
    nodes: Vec<NodeTerms>,
    outputs: Vec<NodeId>,
    library: GateLibrary,
}

impl Timer {
    /// Builds a timer, compiling the circuit, its wire parasitics from
    /// the placement and the library's load terms into the timing graph.
    pub fn new(
        circuit: &Circuit,
        placement: &Placement,
        wire_model: WireModel,
        library: GateLibrary,
    ) -> Self {
        let nets = wire_model.all_nets(circuit, placement);
        let mut fanin_start = Vec::with_capacity(nets.len() + 1);
        fanin_start.push(0);
        let mut fanin_ids = Vec::new();
        let mut wires = Vec::with_capacity(nets.len());
        let mut nodes = Vec::with_capacity(nets.len());
        for (id, net) in circuit.topological_order().zip(&nets) {
            fanin_ids.extend_from_slice(circuit.fanins(id));
            fanin_start.push(fanin_ids.len());
            let sink_cap = circuit.fanouts(id).len() as f64 * library.input_cap();
            let delay = elmore_delay(net, sink_cap);
            let slew = bakoglu_slew(delay);
            wires.push(Wire {
                delay,
                slew_sq: slew * slew,
            });
            let kind = circuit.kind(id);
            let model = library.model(kind);
            nodes.push(NodeTerms {
                kind,
                delay_load: model.delay.load_coeff * net.capacitance,
                slew_load: model.output_slew.load_coeff * net.capacitance,
            });
        }
        Timer {
            fanin_start,
            fanin_ids,
            wires,
            nodes,
            outputs: circuit.outputs().to_vec(),
            library,
        }
    }

    /// Number of nodes the timer covers.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Runs one deterministic STA with the given per-node parameter
    /// deviations.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != node_count()`.
    pub fn analyze(&self, params: &[ParamVector]) -> TimingReport {
        let n = self.node_count();
        let mut arrivals = vec![0.0; n];
        let mut slews = vec![0.0; n];
        self.analyze_into(params, &mut arrivals, &mut slews);
        let ([worst_delay], [critical_output]) = self.worst_lanes(arrivals.as_chunks().0);
        TimingReport {
            arrivals,
            slews,
            worst_delay,
            critical_output,
        }
    }

    /// Allocation-free analysis into caller-provided buffers; returns the
    /// worst primary-output arrival. The one-lane instance of
    /// [`analyze_lanes`](Self::analyze_lanes).
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from `node_count()`.
    pub fn analyze_into(
        &self,
        params: &[ParamVector],
        arrivals: &mut [f64],
        slews: &mut [f64],
    ) -> f64 {
        let [worst] = self.analyze_lanes::<1>(
            params.as_chunks().0,
            arrivals.as_chunks_mut().0,
            slews.as_chunks_mut().0,
        );
        worst
    }

    /// Times `B` samples in one walk of the graph — the Monte Carlo hot
    /// path. Lane `l` of `params[i]`, `arrivals[i]` and `slews[i]` belongs
    /// to sample `l`; every lane's arrivals, slews and worst delay are bit
    /// for bit those of [`analyze_into`](Self::analyze_into) on that
    /// lane's parameters. Returns each lane's worst primary-output
    /// arrival.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from `node_count()`.
    pub fn analyze_lanes<const B: usize>(
        &self,
        params: &[[ParamVector; B]],
        arrivals: &mut [[f64; B]],
        slews: &mut [[f64; B]],
    ) -> [f64; B] {
        let n = self.node_count();
        assert_eq!(params.len(), n, "one ParamVector per node required");
        assert_eq!(arrivals.len(), n);
        assert_eq!(slews.len(), n);
        for i in 0..n {
            let (arr, slew) = self.evaluate_lanes(i, &params[i], arrivals, slews);
            arrivals[i] = arr;
            slews[i] = slew;
        }
        self.worst_lanes(arrivals).0
    }

    /// Evaluates one node's (arrival, slew) from its fanins' current
    /// state — the inner step of [`analyze_into`](Self::analyze_into),
    /// exposed for the incremental timer.
    ///
    /// # Panics
    ///
    /// Panics if `id` or any slice index is out of range.
    pub fn evaluate_node(
        &self,
        id: NodeId,
        params: &[ParamVector],
        arrivals: &[f64],
        slews: &[f64],
    ) -> (f64, f64) {
        let i = id.index();
        let ([arrival], [slew]) =
            self.evaluate_lanes(i, &[params[i]], arrivals.as_chunks().0, slews.as_chunks().0);
        (arrival, slew)
    }

    /// Node `i`'s (arrival, slew) in every lane. The latest fanin wins
    /// (the first of equal ones, and none whose arrival is NaN or −∞)
    /// through a branch-free select, and the output slew is evaluated
    /// once, from the winner's wire slew; a node no fanin reaches keeps
    /// arrival −∞ and slew 0.
    #[inline(always)]
    fn evaluate_lanes<const B: usize>(
        &self,
        i: usize,
        params: &[ParamVector; B],
        arrivals: &[[f64; B]],
        slews: &[[f64; B]],
    ) -> ([f64; B], [f64; B]) {
        let node = self.nodes[i];
        if node.kind == GateKind::Input {
            return ([0.0; B], [self.library.primary_input_slew(); B]);
        }
        let model = self.library.model(node.kind);
        let delay = BoundModel::new(&model.delay, node.delay_load, params);
        let output_slew = BoundModel::new(&model.output_slew, node.slew_load, params);
        let mut best = [f64::NEG_INFINITY; B];
        let mut best_wire_slew = [0.0; B];
        for f in self.fanins(i) {
            let fi = f.index();
            let wire = self.wires[fi];
            let (fanin_arrival, fanin_slew) = (&arrivals[fi], &slews[fi]);
            for lane in 0..B {
                let wire_slew = wire.slew(fanin_slew[lane]);
                let arr = fanin_arrival[lane] + wire.delay + delay.eval(lane, wire_slew);
                let later = arr > best[lane];
                best[lane] = if later { arr } else { best[lane] };
                best_wire_slew[lane] = if later {
                    wire_slew
                } else {
                    best_wire_slew[lane]
                };
            }
        }
        let mut slew = [0.0; B];
        for lane in 0..B {
            let s = output_slew.eval(lane, best_wire_slew[lane]);
            slew[lane] = if best[lane] > f64::NEG_INFINITY {
                s
            } else {
                0.0
            };
        }
        (best, slew)
    }

    /// Each lane's worst primary-output arrival (0 if none is positive)
    /// and the first output achieving it.
    fn worst_lanes<const B: usize>(
        &self,
        arrivals: &[[f64; B]],
    ) -> ([f64; B], [Option<NodeId>; B]) {
        let mut worst = [0.0; B];
        let mut crit = [None; B];
        for &o in &self.outputs {
            let a = &arrivals[o.index()];
            for lane in 0..B {
                if a[lane] > worst[lane] {
                    worst[lane] = a[lane];
                    crit[lane] = Some(o);
                }
            }
        }
        (worst, crit)
    }

    /// The primary outputs the worst delay is taken over.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    #[inline(always)]
    fn fanins(&self, i: usize) -> &[NodeId] {
        &self.fanin_ids[self.fanin_start[i]..self.fanin_start[i + 1]]
    }

    /// Fanins of node `id` (mirrors the circuit the timer was built on).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fanins_of(&self, id: NodeId) -> &[NodeId] {
        self.fanins(id.index())
    }

    /// First-order sensitivity of node `id`'s gate delay to its four
    /// normalized parameters at the nominal point: `β · v` from the
    /// rank-one quadratic model (`∂d/∂p = β v + 2γ (vᵀp) v`, evaluated at
    /// `p = 0`). Returns `None` for primary inputs. This is the
    /// linearisation a canonical-form (block-based, [6]-style) SSTA
    /// consumes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn delay_sensitivity(&self, id: NodeId) -> Option<[f64; 4]> {
        let kind = self.nodes[id.index()].kind;
        if kind == GateKind::Input {
            return None;
        }
        let m = &self.library.model(kind).delay;
        Some([
            m.linear * m.direction[0],
            m.linear * m.direction[1],
            m.linear * m.direction[2],
            m.linear * m.direction[3],
        ])
    }

    /// Delay of the timing edge `from -> to`: the wire stage out of
    /// `from` plus `to`'s gate delay under the given slews/parameters.
    /// `slews` must come from a forward [`analyze`](Timer::analyze) pass
    /// with the same `params`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or `to` is a primary input.
    pub fn edge_delay(
        &self,
        from: NodeId,
        to: NodeId,
        slews: &[f64],
        params: &[ParamVector],
    ) -> f64 {
        let wire = self.wires[from.index()];
        let wire_slew = wire.slew(slews[from.index()]);
        let node = self.nodes[to.index()];
        assert_ne!(node.kind, GateKind::Input, "edge into a primary input");
        let model = &self.library.model(node.kind).delay;
        let delay = BoundModel::new(model, node.delay_load, &[params[to.index()]]);
        wire.delay + delay.eval(0, wire_slew)
    }
}

#[cfg(test)]
mod reference {
    //! The per-sample timer as it stood before the graph was compiled,
    //! kept verbatim as the oracle the compiled lane kernel is checked
    //! against bit for bit.

    use crate::{bakoglu_slew, elmore_delay, peri_slew, GateLibrary, ParamVector};
    use klest_circuit::{Circuit, GateKind, NodeId, Placement, WireModel, WireParasitics};

    pub struct ReferenceTimer {
        kinds: Vec<GateKind>,
        fanins: Vec<Vec<NodeId>>,
        outputs: Vec<NodeId>,
        nets: Vec<WireParasitics>,
        sink_caps: Vec<f64>,
        library: GateLibrary,
    }

    impl ReferenceTimer {
        pub fn new(
            circuit: &Circuit,
            placement: &Placement,
            wire_model: WireModel,
            library: GateLibrary,
        ) -> Self {
            let nets = wire_model.all_nets(circuit, placement);
            let sink_caps = circuit
                .topological_order()
                .map(|id| circuit.fanouts(id).len() as f64 * library.input_cap())
                .collect();
            ReferenceTimer {
                kinds: circuit
                    .topological_order()
                    .map(|id| circuit.kind(id))
                    .collect(),
                fanins: circuit
                    .topological_order()
                    .map(|id| circuit.fanins(id).to_vec())
                    .collect(),
                outputs: circuit.outputs().to_vec(),
                nets,
                sink_caps,
                library,
            }
        }

        pub fn analyze_into(
            &self,
            params: &[ParamVector],
            arrivals: &mut [f64],
            slews: &mut [f64],
        ) -> f64 {
            let n = self.kinds.len();
            assert_eq!(params.len(), n, "one ParamVector per node required");
            assert_eq!(arrivals.len(), n);
            assert_eq!(slews.len(), n);
            for i in 0..n {
                let (arr, slew) = self.evaluate_node(NodeId(i as u32), params, arrivals, slews);
                arrivals[i] = arr;
                slews[i] = slew;
            }
            self.worst_output(arrivals).0
        }

        pub fn evaluate_node(
            &self,
            id: NodeId,
            params: &[ParamVector],
            arrivals: &[f64],
            slews: &[f64],
        ) -> (f64, f64) {
            let i = id.index();
            let kind = self.kinds[i];
            if kind == GateKind::Input {
                return (0.0, self.library.primary_input_slew());
            }
            let model = self.library.model(kind);
            // Output load seen by this gate: its own net.
            let load = self.nets[i].capacitance;
            let mut best_arrival = f64::NEG_INFINITY;
            let mut best_slew = 0.0;
            for f in &self.fanins[i] {
                let fi = f.index();
                // Wire stage from the fanin's output to this gate's input.
                let wire = &self.nets[fi];
                let wdelay = elmore_delay(wire, self.sink_caps[fi]);
                let wslew = peri_slew(slews[fi], bakoglu_slew(wdelay));
                let gdelay = model.delay(wslew, load, &params[i]);
                let arr = arrivals[fi] + wdelay + gdelay;
                if arr > best_arrival {
                    best_arrival = arr;
                    best_slew = model.output_slew(wslew, load, &params[i]);
                }
            }
            (best_arrival, best_slew)
        }

        pub fn worst_output(&self, arrivals: &[f64]) -> (f64, Option<NodeId>) {
            let mut worst = 0.0;
            let mut crit = None;
            for &o in &self.outputs {
                let a = arrivals[o.index()];
                if a > worst {
                    worst = a;
                    crit = Some(o);
                }
            }
            (worst, crit)
        }

        pub fn edge_delay(
            &self,
            from: NodeId,
            to: NodeId,
            slews: &[f64],
            params: &[ParamVector],
        ) -> f64 {
            let fi = from.index();
            let wire = &self.nets[fi];
            let wdelay = elmore_delay(wire, self.sink_caps[fi]);
            let wslew = peri_slew(slews[fi], bakoglu_slew(wdelay));
            let kind = self.kinds[to.index()];
            assert_ne!(kind, GateKind::Input, "edge into a primary input");
            let model = self.library.model(kind);
            let load = self.nets[to.index()].capacitance;
            wdelay + model.delay(wslew, load, &params[to.index()])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klest_circuit::{generate, Circuit, GeneratorConfig};

    fn timer_for(c: &Circuit) -> Timer {
        let p = Placement::recursive_bisection(c);
        Timer::new(c, &p, WireModel::default(), GateLibrary::default_90nm())
    }

    fn nominal(c: &Circuit) -> Vec<ParamVector> {
        vec![ParamVector::ZERO; c.node_count()]
    }

    #[test]
    fn hand_built_chain_delay() {
        // in -> INV -> INV -> out with zero-length wires (single gate
        // locations coincide is impossible, but the arithmetic is checked
        // structurally: arrival strictly increases along the chain).
        let mut b = Circuit::builder("chain");
        let a = b.input();
        let g1 = b.gate(GateKind::Inv, &[a]).unwrap();
        let g2 = b.gate(GateKind::Inv, &[g1]).unwrap();
        b.output(g2);
        let c = b.build().unwrap();
        let t = timer_for(&c);
        let r = t.analyze(&nominal(&c));
        assert_eq!(r.arrival(a), 0.0);
        assert!(r.arrival(g1) > 0.0);
        assert!(r.arrival(g2) > r.arrival(g1));
        assert_eq!(r.worst_delay(), r.arrival(g2));
        assert_eq!(r.critical_output(), Some(g2));
        assert_eq!(t.outputs(), &[g2]);
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn worst_of_two_outputs() {
        // A fast path (1 inverter) and a slow path (XOR chain) from the
        // same input: worst delay must be the slow one.
        let mut b = Circuit::builder("two");
        let a = b.input();
        let a2 = b.input();
        let fast = b.gate(GateKind::Inv, &[a]).unwrap();
        let s1 = b.gate(GateKind::Xor2, &[a, a2]).unwrap();
        let s2 = b.gate(GateKind::Xor2, &[s1, a2]).unwrap();
        let s3 = b.gate(GateKind::Xor2, &[s2, a2]).unwrap();
        b.output(fast);
        b.output(s3);
        let c = b.build().unwrap();
        let t = timer_for(&c);
        let r = t.analyze(&nominal(&c));
        assert!(r.arrival(s3) > r.arrival(fast));
        assert_eq!(r.worst_delay(), r.arrival(s3));
        assert_eq!(r.critical_output(), Some(s3));
    }

    #[test]
    fn arrivals_monotone_along_paths() {
        let c = generate("m", GeneratorConfig::combinational(400, 17)).unwrap();
        let t = timer_for(&c);
        let r = t.analyze(&nominal(&c));
        for id in c.topological_order() {
            for f in c.fanins(id) {
                assert!(
                    r.arrival(id) > r.arrival(*f),
                    "arrival must increase from {f} to {id}"
                );
            }
        }
        assert!(r.slews().iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn slow_corner_increases_delay() {
        let c = generate("s", GeneratorConfig::combinational(300, 23)).unwrap();
        let t = timer_for(&c);
        let d_nom = t.analyze(&nominal(&c)).worst_delay();
        let slow = vec![ParamVector::new([1.0, -1.0, 1.0, 1.0]); c.node_count()];
        let d_slow = t.analyze(&slow).worst_delay();
        let fast = vec![ParamVector::new([-1.0, 1.0, -1.0, -1.0]); c.node_count()];
        let d_fast = t.analyze(&fast).worst_delay();
        assert!(d_slow > d_nom, "slow {d_slow} vs nominal {d_nom}");
        assert!(d_fast < d_nom, "fast {d_fast} vs nominal {d_nom}");
    }

    #[test]
    fn analyze_into_matches_analyze() {
        let c = generate("b", GeneratorConfig::combinational(200, 31)).unwrap();
        let t = timer_for(&c);
        let params = nominal(&c);
        let report = t.analyze(&params);
        let mut arr = vec![0.0; c.node_count()];
        let mut slews = vec![0.0; c.node_count()];
        let worst = t.analyze_into(&params, &mut arr, &mut slews);
        assert_eq!(worst, report.worst_delay());
        assert_eq!(arr, report.arrivals());
        assert_eq!(slews, report.slews());
    }

    #[test]
    #[should_panic]
    fn wrong_param_length_panics() {
        let c = generate("p", GeneratorConfig::combinational(50, 3)).unwrap();
        let t = timer_for(&c);
        let _ = t.analyze(&[ParamVector::ZERO; 3]);
    }

    #[test]
    fn per_gate_variation_changes_only_downstream() {
        let c = generate("v", GeneratorConfig::combinational(300, 41)).unwrap();
        let t = timer_for(&c);
        let base = t.analyze(&nominal(&c));
        // Perturb one mid-circuit gate.
        let victim = NodeId((c.input_count() + 10) as u32);
        let mut params = nominal(&c);
        params[victim.index()] = ParamVector::new([2.0, -2.0, 2.0, 2.0]);
        let pert = t.analyze(&params);
        assert!(pert.arrival(victim) > base.arrival(victim));
        // Nodes topologically before the victim are untouched.
        for id in c.topological_order().take(victim.index()) {
            assert_eq!(
                pert.arrival(id),
                base.arrival(id),
                "upstream node {id} moved"
            );
        }
    }

    /// SplitMix64: a tiny deterministic stream for test parameters.
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One sample's parameters; the lane picks the regime: nominal,
    /// ordinary random deviations, extreme corners far past the 1 %
    /// clamp, or random deviations with NaN and ±∞ sprinkled in.
    fn lane_params(n: usize, lane: usize, seed: u64) -> Vec<ParamVector> {
        let mut state = seed.wrapping_mul(1_000_003).wrapping_add(lane as u64);
        let regime = (lane + seed as usize) % 4;
        (0..n)
            .map(|i| {
                let mut p = [0.0; 4];
                for v in p.iter_mut() {
                    let u = 2.0 * splitmix(&mut state) - 1.0;
                    *v = match regime {
                        0 => 0.0,
                        1 | 3 => 3.0 * u,
                        _ => 60.0 * u,
                    };
                }
                if regime == 3 && i % 37 == 5 {
                    p[i % 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3];
                }
                ParamVector::new(p)
            })
            .collect()
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
        }
    }

    /// Times `B` different samples in one lane pass and checks every lane,
    /// and the one-lane paths, against the reference timer bit for bit.
    fn check_lanes<const B: usize>(
        c: &Circuit,
        t: &Timer,
        reference: &reference::ReferenceTimer,
        seed: u64,
    ) {
        let n = t.node_count();
        let lanes: Vec<Vec<ParamVector>> = (0..B).map(|l| lane_params(n, l, seed)).collect();
        let params: Vec<[ParamVector; B]> = (0..n)
            .map(|i| std::array::from_fn(|l| lanes[l][i]))
            .collect();
        let mut arrivals = vec![[0.0; B]; n];
        let mut slews = vec![[0.0; B]; n];
        let worst = t.analyze_lanes(&params, &mut arrivals, &mut slews);
        for (l, lane) in lanes.iter().enumerate() {
            let (mut ra, mut rs) = (vec![0.0; n], vec![0.0; n]);
            let rw = reference.analyze_into(lane, &mut ra, &mut rs);
            let (_, rcrit) = reference.worst_output(&ra);
            let what = format!("B={B} seed={seed} lane={l}");
            let la: Vec<f64> = arrivals.iter().map(|a| a[l]).collect();
            let ls: Vec<f64> = slews.iter().map(|s| s[l]).collect();
            assert_bits(&la, &ra, &format!("{what} arrivals"));
            assert_bits(&ls, &rs, &format!("{what} slews"));
            assert_eq!(worst[l].to_bits(), rw.to_bits(), "{what} worst");
            let report = t.analyze(lane);
            assert_bits(report.arrivals(), &ra, &format!("{what} one-lane arrivals"));
            assert_bits(report.slews(), &rs, &format!("{what} one-lane slews"));
            assert_eq!(report.worst_delay().to_bits(), rw.to_bits(), "{what}");
            assert_eq!(report.critical_output(), rcrit, "{what} critical output");
            for id in c.topological_order() {
                let got = t.evaluate_node(id, lane, &ra, &rs);
                let want = reference.evaluate_node(id, lane, &ra, &rs);
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "{what} node {id}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "{what} node {id}");
                for &f in c.fanins(id) {
                    let got = t.edge_delay(f, id, &rs, lane);
                    let want = reference.edge_delay(f, id, &rs, lane);
                    assert_eq!(got.to_bits(), want.to_bits(), "{what} edge {f}->{id}");
                }
            }
        }
    }

    #[test]
    fn lane_kernel_matches_reference_bitwise() {
        for gates in [50, 400, 3000] {
            for seed in [1, 2, 3] {
                let c = generate("lanes", GeneratorConfig::combinational(gates, seed)).unwrap();
                let p = Placement::recursive_bisection(&c);
                let t = Timer::new(&c, &p, WireModel::default(), GateLibrary::default_90nm());
                let reference = reference::ReferenceTimer::new(
                    &c,
                    &p,
                    WireModel::default(),
                    GateLibrary::default_90nm(),
                );
                check_lanes::<1>(&c, &t, &reference, seed);
                check_lanes::<2>(&c, &t, &reference, seed);
                check_lanes::<4>(&c, &t, &reference, seed);
                check_lanes::<8>(&c, &t, &reference, seed);
            }
        }
    }

    #[test]
    fn unreached_nodes_keep_zero_slew() {
        // NaN wire resistance makes every wire delay NaN: no fanin's
        // arrival beats −∞, so every gate keeps arrival −∞ and slew 0.
        let c = generate("nan", GeneratorConfig::combinational(200, 7)).unwrap();
        let p = Placement::recursive_bisection(&c);
        let wires = WireModel {
            res_per_len: f64::NAN,
            ..WireModel::default()
        };
        let t = Timer::new(&c, &p, wires, GateLibrary::default_90nm());
        let reference = reference::ReferenceTimer::new(&c, &p, wires, GateLibrary::default_90nm());
        check_lanes::<1>(&c, &t, &reference, 4);
        check_lanes::<8>(&c, &t, &reference, 4);
        let r = t.analyze(&nominal(&c));
        for id in c.topological_order() {
            if c.kind(id) != GateKind::Input {
                assert_eq!(r.arrival(id), f64::NEG_INFINITY, "{id}");
                assert_eq!(r.slews()[id.index()].to_bits(), 0.0f64.to_bits(), "{id}");
            }
        }
        assert_eq!(r.worst_delay(), 0.0);
        assert_eq!(r.critical_output(), None);
    }
}
