//! Incremental timing: re-analyze only the fan-out cone of a parameter
//! change.
//!
//! Statistical *optimization* loops (gate sizing, what-if analysis)
//! perturb a handful of gates per move; re-timing the whole circuit per
//! move wastes the sparsity. [`IncrementalTimer`] keeps the last
//! arrival/slew state and propagates a change only while it actually
//! moves numbers, with early termination when a recomputed node lands on
//! its previous values.

use crate::{ParamVector, StaError, Timer};
use klest_circuit::NodeId;

/// A timer wrapper holding mutable timing state for incremental updates.
#[derive(Debug, Clone)]
pub struct IncrementalTimer<'a> {
    timer: &'a Timer,
    params: Vec<ParamVector>,
    arrivals: Vec<f64>,
    slews: Vec<f64>,
    /// Nodes recomputed by the last update (diagnostics).
    last_recomputed: usize,
}

impl<'a> IncrementalTimer<'a> {
    /// Builds the initial state with a full analysis.
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidArgument`] if `params.len()` differs from the
    /// timer's node count.
    pub fn new(timer: &'a Timer, params: Vec<ParamVector>) -> Result<Self, StaError> {
        let n = timer.node_count();
        if params.len() != n {
            return Err(StaError::invalid(
                "params",
                params.len(),
                format!("one ParamVector per node required ({n} nodes)"),
            ));
        }
        let mut arrivals = vec![0.0; n];
        let mut slews = vec![0.0; n];
        timer.analyze_into(&params, &mut arrivals, &mut slews);
        Ok(IncrementalTimer {
            timer,
            params,
            arrivals,
            slews,
            last_recomputed: n,
        })
    }

    /// Current arrival times.
    pub fn arrivals(&self) -> &[f64] {
        &self.arrivals
    }

    /// Current slews.
    pub fn slews(&self) -> &[f64] {
        &self.slews
    }

    /// Current parameters.
    pub fn params(&self) -> &[ParamVector] {
        &self.params
    }

    /// Worst primary-output arrival under the current state.
    pub fn worst_delay(&self) -> f64 {
        self.timer
            .outputs()
            .iter()
            .map(|o| self.arrivals[o.index()])
            .fold(0.0, f64::max)
    }

    /// How many nodes the last [`update`](Self::update) recomputed.
    pub fn last_recomputed(&self) -> usize {
        self.last_recomputed
    }

    /// Applies new parameters to the given nodes and incrementally
    /// re-times their fan-out cones. Returns the new worst delay.
    ///
    /// Exact: the resulting state is bit-identical to a full re-analysis
    /// with the same parameters (nodes whose inputs and parameters are
    /// unchanged recompute to identical values, so propagation stops
    /// precisely where a full pass would produce no change).
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidArgument`] if any node id is out of range;
    /// the state is untouched in that case.
    pub fn update(&mut self, changes: &[(NodeId, ParamVector)]) -> Result<f64, StaError> {
        let n = self.timer.node_count();
        if let Some(&(id, _)) = changes.iter().find(|(id, _)| id.index() >= n) {
            return Err(StaError::invalid(
                "node",
                id.index(),
                format!("node id out of range (circuit has {n} nodes)"),
            ));
        }
        // Dirty = nodes whose own params changed or whose fanin state
        // changed. Nodes are already in topological order, so one index
        // sweep suffices.
        let mut dirty = vec![false; n];
        let mut first = n;
        for &(id, p) in changes {
            self.params[id.index()] = p;
            dirty[id.index()] = true;
            first = first.min(id.index());
        }
        let mut recomputed = 0usize;
        for i in first..n {
            let id = NodeId(i as u32);
            let fanins = self.timer.fanins_of(id);
            let needs = dirty[i] || fanins.iter().any(|f| dirty[f.index()]);
            if !needs {
                continue;
            }
            recomputed += 1;
            let (arr, slew) =
                self.timer
                    .evaluate_node(id, &self.params, &self.arrivals, &self.slews);
            if arr == self.arrivals[i] && slew == self.slews[i] {
                // Landed exactly on the old state: fan-out reads only
                // arrivals/slews, so propagation stops here.
                dirty[i] = false;
                continue;
            }
            self.arrivals[i] = arr;
            self.slews[i] = slew;
            dirty[i] = true;
        }
        self.last_recomputed = recomputed;
        Ok(self.worst_delay())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateLibrary;
    use klest_circuit::{generate, Circuit, GeneratorConfig, Placement, WireModel};

    fn setup(gates: usize, seed: u64) -> (Circuit, Timer) {
        let c = generate("inc", GeneratorConfig::combinational(gates, seed)).unwrap();
        let p = Placement::recursive_bisection(&c);
        let t = Timer::new(&c, &p, WireModel::default(), GateLibrary::default_90nm());
        (c, t)
    }

    #[test]
    fn matches_full_reanalysis_exactly() {
        let (c, timer) = setup(300, 3);
        let base = vec![ParamVector::ZERO; c.node_count()];
        let mut inc = IncrementalTimer::new(&timer, base.clone()).expect("sized params");
        // Perturb a few scattered gates.
        let victims = [
            NodeId((c.input_count() + 5) as u32),
            NodeId((c.input_count() + 77) as u32),
            NodeId((c.node_count() - 3) as u32),
        ];
        let changes: Vec<(NodeId, ParamVector)> = victims
            .iter()
            .map(|&v| (v, ParamVector::new([1.0, -0.5, 0.8, 0.2])))
            .collect();
        let worst = inc.update(&changes).expect("in-range nodes");
        // Full recompute with the same parameters.
        let mut params = base;
        for &(id, p) in &changes {
            params[id.index()] = p;
        }
        let full = timer.analyze(&params);
        assert_eq!(worst, full.worst_delay());
        assert_eq!(inc.arrivals(), full.arrivals());
        assert_eq!(inc.slews(), full.slews());
        assert_eq!(inc.params().len(), c.node_count());
    }

    #[test]
    fn late_change_recomputes_few_nodes() {
        let (c, timer) = setup(2000, 9);
        let mut inc = IncrementalTimer::new(&timer, vec![ParamVector::ZERO; c.node_count()])
            .expect("sized params");
        // Pick a node near the outputs: its cone is small.
        let victim = NodeId((c.node_count() - 10) as u32);
        inc.update(&[(victim, ParamVector::new([2.0, -1.0, 1.5, 0.5]))])
            .expect("in-range nodes");
        assert!(
            inc.last_recomputed() < c.node_count() / 10,
            "recomputed {} of {} for a late change",
            inc.last_recomputed(),
            c.node_count()
        );
        // And the result still matches a full pass.
        let mut params = vec![ParamVector::ZERO; c.node_count()];
        params[victim.index()] = ParamVector::new([2.0, -1.0, 1.5, 0.5]);
        let full = timer.analyze(&params);
        assert_eq!(inc.arrivals(), full.arrivals());
    }

    #[test]
    fn noop_update_recomputes_minimal_cone() {
        let (c, timer) = setup(500, 5);
        let mut inc = IncrementalTimer::new(&timer, vec![ParamVector::ZERO; c.node_count()])
            .expect("sized params");
        let before = inc.arrivals().to_vec();
        let victim = NodeId((c.input_count() + 1) as u32);
        // "Change" to the same value: the node recomputes to identical
        // numbers and propagation stops immediately.
        inc.update(&[(victim, ParamVector::ZERO)])
            .expect("in-range nodes");
        assert_eq!(inc.arrivals(), &before[..]);
        assert!(
            inc.last_recomputed() <= 1 + timer.fanins_of(victim).len() + 8,
            "noop should stop early, recomputed {}",
            inc.last_recomputed()
        );
    }

    #[test]
    fn wrong_params_length_is_a_typed_error() {
        let (c, timer) = setup(64, 2);
        for len in [0, c.node_count() - 1, c.node_count() + 1] {
            let err = IncrementalTimer::new(&timer, vec![ParamVector::ZERO; len])
                .expect_err("length mismatch must be rejected");
            match err {
                StaError::InvalidArgument { key, value, .. } => {
                    assert_eq!(key, "params");
                    assert_eq!(value, len.to_string());
                }
            }
        }
    }

    #[test]
    fn out_of_range_node_is_a_typed_error_and_state_is_untouched() {
        let (c, timer) = setup(64, 2);
        let mut inc = IncrementalTimer::new(&timer, vec![ParamVector::ZERO; c.node_count()])
            .expect("sized params");
        let before = inc.arrivals().to_vec();
        let bogus = NodeId(c.node_count() as u32);
        let err = inc
            .update(&[(bogus, ParamVector::new([1.0, 1.0, 1.0, 1.0]))])
            .expect_err("out-of-range node must be rejected");
        match err {
            StaError::InvalidArgument {
                key,
                value,
                message,
            } => {
                assert_eq!(key, "node");
                assert_eq!(value, c.node_count().to_string());
                assert!(message.contains("out of range"), "{message}");
            }
        }
        assert_eq!(
            inc.arrivals(),
            &before[..],
            "failed update must not mutate state"
        );
    }

    #[test]
    fn sequence_of_updates_stays_consistent() {
        let (c, timer) = setup(250, 11);
        let mut inc = IncrementalTimer::new(&timer, vec![ParamVector::ZERO; c.node_count()])
            .expect("sized params");
        let mut params = vec![ParamVector::ZERO; c.node_count()];
        let mut lcg = 12345u64;
        for step in 0..10 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let idx = c.input_count() + (lcg >> 33) as usize % c.gate_count();
            let p = ParamVector::new([
                (step as f64 * 0.3).sin(),
                (step as f64 * 0.7).cos(),
                0.5,
                -0.25,
            ]);
            params[idx] = p;
            inc.update(&[(NodeId(idx as u32), p)])
                .expect("in-range nodes");
        }
        let full = timer.analyze(&params);
        assert_eq!(inc.arrivals(), full.arrivals());
        assert_eq!(inc.worst_delay(), full.worst_delay());
    }
}
