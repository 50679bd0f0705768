//! Classic corner analysis — the pre-statistical baseline.
//!
//! Before SSTA, sign-off ran the timer at a handful of process corners
//! (all parameters pushed ±k σ together). Corners ignore spatial
//! structure entirely: the slow corner assumes *every* gate is slow
//! simultaneously, which intra-die variation makes vanishingly unlikely
//! — that pessimism is the economic argument for statistical timing,
//! and the `corner_pessimism` integration test quantifies it against the
//! Monte Carlo distribution.

use crate::{ParamVector, Timer, TimingReport};

/// A named process corner: a uniform deviation applied to every gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Display name.
    pub name: &'static str,
    /// The per-gate deviation, in `[L, W, Vt, tox]` σ units.
    pub deviation: ParamVector,
}

impl Corner {
    /// The typical corner: nominal everything.
    pub fn typical() -> Self {
        Corner {
            name: "TT",
            deviation: ParamVector::ZERO,
        }
    }

    /// The slow corner at `k` sigma: long channel, narrow device, high
    /// threshold, thick oxide.
    pub fn slow(k: f64) -> Self {
        Corner {
            name: "SS",
            deviation: ParamVector::new([k, -k, k, k]),
        }
    }

    /// The fast corner at `k` sigma.
    pub fn fast(k: f64) -> Self {
        Corner {
            name: "FF",
            deviation: ParamVector::new([-k, k, -k, -k]),
        }
    }

    /// The standard three-corner set at `k` sigma.
    pub fn standard_set(k: f64) -> [Corner; 3] {
        [Corner::fast(k), Corner::typical(), Corner::slow(k)]
    }
}

/// Result of evaluating one corner.
#[derive(Debug, Clone)]
pub struct CornerResult {
    /// The corner evaluated.
    pub corner: Corner,
    /// Full timing report at that corner.
    pub report: TimingReport,
}

/// Runs the timer at each corner (uniform deviation on every node).
pub fn analyze_corners(timer: &Timer, corners: &[Corner]) -> Vec<CornerResult> {
    corners
        .iter()
        .map(|&corner| {
            let params = vec![corner.deviation; timer.node_count()];
            CornerResult {
                corner,
                report: timer.analyze(&params),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateLibrary;
    use klest_circuit::{generate, GeneratorConfig, Placement, WireModel};

    fn timer() -> Timer {
        let c = generate("c", GeneratorConfig::combinational(150, 5)).unwrap();
        let p = Placement::recursive_bisection(&c);
        Timer::new(&c, &p, WireModel::default(), GateLibrary::default_90nm())
    }

    #[test]
    fn corner_ordering() {
        let t = timer();
        let results = analyze_corners(&t, &Corner::standard_set(3.0));
        assert_eq!(results.len(), 3);
        let ff = results[0].report.worst_delay();
        let tt = results[1].report.worst_delay();
        let ss = results[2].report.worst_delay();
        assert!(ff < tt, "FF {ff} must beat TT {tt}");
        assert!(tt < ss, "TT {tt} must beat SS {ss}");
        assert_eq!(results[0].corner.name, "FF");
        assert_eq!(results[2].corner.name, "SS");
    }

    #[test]
    fn corner_spread_grows_with_sigma() {
        let t = timer();
        let narrow = analyze_corners(&t, &Corner::standard_set(1.0));
        let wide = analyze_corners(&t, &Corner::standard_set(3.0));
        let spread = |r: &[CornerResult]| r[2].report.worst_delay() - r[0].report.worst_delay();
        assert!(spread(&wide) > spread(&narrow));
    }

    #[test]
    fn typical_corner_is_nominal() {
        let t = timer();
        let tt = analyze_corners(&t, &[Corner::typical()]);
        let nominal = t.analyze(&vec![ParamVector::ZERO; t.node_count()]);
        assert_eq!(tt[0].report.worst_delay(), nominal.worst_delay());
    }
}
