//! Required-time / slack analysis and critical-path extraction.
//!
//! A forward sweep ([`Timer::analyze`]) gives arrival times; the backward
//! sweep here propagates *required* times from a target clock period and
//! reports per-node slack. The most negative slack chain is the critical
//! path — the structure statistical timing ultimately cares about,
//! because its membership shifts corner to corner under variation.

use crate::{ParamVector, Timer, TimingReport};
use klest_circuit::NodeId;

/// Slack analysis of one timing run against a required time.
#[derive(Debug, Clone)]
pub struct SlackReport {
    required: Vec<f64>,
    slack: Vec<f64>,
    critical_path: Vec<NodeId>,
    worst_slack: f64,
}

impl SlackReport {
    /// Computes required times and slacks for `report` (produced by
    /// `timer.analyze(params)`) against a required arrival
    /// `required_time` at every primary output.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the timer's node count.
    pub fn new(
        timer: &Timer,
        report: &TimingReport,
        params: &[ParamVector],
        required_time: f64,
    ) -> Self {
        let n = timer.node_count();
        assert_eq!(params.len(), n, "one ParamVector per node required");
        let arrivals = report.arrivals();
        let slews = report.slews();
        // Backward sweep over true edge delays:
        // required[f] = min over fanouts v (required[v] - delay(f -> v)).
        let mut required = vec![f64::INFINITY; n];
        for &o in timer.outputs() {
            required[o.index()] = required_time;
        }
        for v in (0..n).rev() {
            let rv = required[v];
            if !rv.is_finite() {
                continue;
            }
            for &f in timer.fanins_of(NodeId(v as u32)) {
                let stage = timer.edge_delay(f, NodeId(v as u32), slews, params);
                let candidate = rv - stage;
                if candidate < required[f.index()] {
                    required[f.index()] = candidate;
                }
            }
        }
        // Slack. Nodes that reach no output keep +inf required -> +inf
        // slack; clamp those to the required time for reporting sanity.
        let mut slack = Vec::with_capacity(n);
        let mut worst_slack = f64::INFINITY;
        for v in 0..n {
            let s = if required[v].is_finite() {
                required[v] - arrivals[v]
            } else {
                f64::INFINITY
            };
            if s < worst_slack {
                worst_slack = s;
            }
            slack.push(s);
        }
        // Critical path: start from the worst-arrival output and walk the
        // max-arrival fanin chain back to an input.
        let mut critical_path = Vec::new();
        if let Some(mut cur) = report.critical_output() {
            critical_path.push(cur);
            loop {
                let mut best: Option<NodeId> = None;
                let mut best_arr = f64::NEG_INFINITY;
                for &f in timer.fanins_of(cur) {
                    let via = arrivals[f.index()] + timer.edge_delay(f, cur, slews, params);
                    if via > best_arr {
                        best_arr = via;
                        best = Some(f);
                    }
                }
                match best {
                    Some(prev) => {
                        critical_path.push(prev);
                        cur = prev;
                    }
                    None => break,
                }
            }
            critical_path.reverse();
        }
        SlackReport {
            required,
            slack,
            critical_path,
            worst_slack,
        }
    }

    /// Required time at each node (`+inf` for nodes feeding no output).
    pub fn required(&self) -> &[f64] {
        &self.required
    }

    /// Slack at each node.
    pub fn slacks(&self) -> &[f64] {
        &self.slack
    }

    /// Slack of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn slack(&self, id: NodeId) -> f64 {
        self.slack[id.index()]
    }

    /// The most negative (or least positive) slack in the design.
    pub fn worst_slack(&self) -> f64 {
        self.worst_slack
    }

    /// The critical path, input to output.
    pub fn critical_path(&self) -> &[NodeId] {
        &self.critical_path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateLibrary, ParamVector};
    use klest_circuit::{generate, Circuit, GateKind, GeneratorConfig, Placement, WireModel};

    fn analyze(c: &Circuit) -> (Timer, TimingReport, Vec<ParamVector>) {
        let p = Placement::recursive_bisection(c);
        let timer = Timer::new(c, &p, WireModel::default(), GateLibrary::default_90nm());
        let params = vec![ParamVector::ZERO; c.node_count()];
        let report = timer.analyze(&params);
        (timer, report, params)
    }

    #[test]
    fn zero_slack_on_critical_path_at_exact_required() {
        let c = generate("s", GeneratorConfig::combinational(200, 4)).unwrap();
        let (timer, report, params) = analyze(&c);
        let slacks = SlackReport::new(&timer, &report, &params, report.worst_delay());
        // Required time == worst delay: worst slack is exactly zero.
        assert!(
            slacks.worst_slack().abs() < 1e-9,
            "worst slack {}",
            slacks.worst_slack()
        );
        // Every node on the critical path has ~zero slack.
        for &v in slacks.critical_path() {
            assert!(
                slacks.slack(v).abs() < 1e-9,
                "critical node {v} slack {}",
                slacks.slack(v)
            );
        }
    }

    #[test]
    fn critical_path_structure() {
        let c = generate("p", GeneratorConfig::combinational(300, 11)).unwrap();
        let (timer, report, params) = analyze(&c);
        let slacks = SlackReport::new(&timer, &report, &params, report.worst_delay());
        let path = slacks.critical_path();
        assert!(path.len() >= 2, "path has at least input and output");
        // Starts at a primary input, ends at the critical output.
        assert_eq!(c.kind(path[0]), GateKind::Input);
        assert_eq!(Some(*path.last().unwrap()), report.critical_output());
        // Consecutive nodes are connected.
        for w in path.windows(2) {
            assert!(
                c.fanins(w[1]).contains(&w[0]),
                "{} is not a fanin of {}",
                w[0],
                w[1]
            );
        }
        // Arrivals strictly increase along the path.
        for w in path.windows(2) {
            assert!(report.arrival(w[1]) > report.arrival(w[0]));
        }
    }

    #[test]
    fn slack_shifts_with_required_time() {
        let c = generate("r", GeneratorConfig::combinational(150, 21)).unwrap();
        let (timer, report, params) = analyze(&c);
        let tight = SlackReport::new(&timer, &report, &params, report.worst_delay() - 10.0);
        let loose = SlackReport::new(&timer, &report, &params, report.worst_delay() + 10.0);
        assert!((tight.worst_slack() + 10.0).abs() < 1e-9);
        assert!((loose.worst_slack() - 10.0).abs() < 1e-9);
        // Slack at every reachable node shifts by exactly the delta.
        for v in 0..timer.node_count() {
            let (a, b) = (tight.slacks()[v], loose.slacks()[v]);
            if a.is_finite() && b.is_finite() {
                assert!((b - a - 20.0).abs() < 1e-9);
            }
        }
        assert_eq!(tight.required().len(), timer.node_count());
    }

    #[test]
    fn hand_built_diamond() {
        // a -> {fast INV, slow XOR chain} -> NAND2 -> out.
        let mut b = Circuit::builder("d");
        let a = b.input();
        let a2 = b.input();
        let inv = b.gate(GateKind::Inv, &[a]).unwrap();
        let x1 = b.gate(GateKind::Xor2, &[a, a2]).unwrap();
        let x2 = b.gate(GateKind::Xor2, &[x1, a2]).unwrap();
        let top = b.gate(GateKind::Nand2, &[inv, x2]).unwrap();
        b.output(top);
        let c = b.build().unwrap();
        let (timer, report, params) = analyze(&c);
        let slacks = SlackReport::new(&timer, &report, &params, report.worst_delay());
        // The slow branch is critical; the fast inverter has positive slack.
        assert!(slacks.slack(inv) > 1.0, "fast branch should have slack");
        assert!(slacks.slack(x2).abs() < 1e-9, "slow branch is critical");
        let path = slacks.critical_path();
        assert!(path.contains(&x1) && path.contains(&x2));
        assert!(!path.contains(&inv));
    }
}
