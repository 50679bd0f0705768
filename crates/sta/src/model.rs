//! Rank-one quadratic gate timing models ([22]).
//!
//! Projection-based performance modeling approximates a gate metric
//! (delay or output slew) as a quadratic in a *single* projected
//! direction of the parameter space:
//!
//! `m(p) = m₀ + k_slew·s_in + k_load·C_out + β (vᵀp) + γ (vᵀp)²`
//!
//! where `p` is the normalized `[L, W, Vt, tox]` deviation vector and `v`
//! the dominant sensitivity direction — the "rank-one quadratic
//! functions" of the paper's Sec. 5.1.

use crate::ParamVector;

/// One rank-one quadratic metric model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadraticGateModel {
    /// Nominal value `m₀` at zero deviations, zero slew, zero load.
    pub nominal: f64,
    /// Input-slew sensitivity `k_slew` (dimensionless).
    pub slew_coeff: f64,
    /// Output-load sensitivity `k_load` (per unit capacitance).
    pub load_coeff: f64,
    /// Dominant parameter direction `v` over `[L, W, Vt, tox]`.
    pub direction: [f64; 4],
    /// Linear projected sensitivity `β`.
    pub linear: f64,
    /// Quadratic projected sensitivity `γ`.
    pub quadratic: f64,
}

impl QuadraticGateModel {
    /// Evaluates the metric.
    ///
    /// The result is clamped below at 1% of nominal: a physical delay or
    /// slew cannot go negative however extreme the sampled corner.
    #[inline]
    pub fn eval(&self, input_slew: f64, load_cap: f64, params: &ParamVector) -> f64 {
        let w = params.dot(&self.direction);
        let v = self.nominal
            + self.slew_coeff * input_slew
            + self.load_coeff * load_cap
            + self.linear * w
            + self.quadratic * w * w;
        v.max(0.01 * self.nominal)
    }

    /// The projected deviation `vᵀp` (exposed for diagnostics/tests).
    #[inline]
    pub fn projection(&self, params: &ParamVector) -> f64 {
        params.dot(&self.direction)
    }
}

/// Delay and output-slew models for one gate kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateTimingModel {
    /// Pin-to-pin delay model.
    pub delay: QuadraticGateModel,
    /// Output slew model.
    pub output_slew: QuadraticGateModel,
}

impl GateTimingModel {
    /// Gate delay for the given input slew, output load and parameters.
    #[inline]
    pub fn delay(&self, input_slew: f64, load_cap: f64, params: &ParamVector) -> f64 {
        self.delay.eval(input_slew, load_cap, params)
    }

    /// Gate output slew for the given input slew, output load and
    /// parameters.
    #[inline]
    pub fn output_slew(&self, input_slew: f64, load_cap: f64, params: &ParamVector) -> f64 {
        self.output_slew.eval(input_slew, load_cap, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> QuadraticGateModel {
        QuadraticGateModel {
            nominal: 10.0,
            slew_coeff: 0.2,
            load_coeff: 3.0,
            direction: [0.7, -0.4, 0.5, 0.3],
            linear: 1.0,
            quadratic: 0.1,
        }
    }

    #[test]
    fn nominal_at_zero() {
        let m = model();
        assert_eq!(m.eval(0.0, 0.0, &ParamVector::ZERO), 10.0);
    }

    #[test]
    fn slew_and_load_sensitivity() {
        let m = model();
        assert_eq!(m.eval(5.0, 0.0, &ParamVector::ZERO), 11.0);
        assert_eq!(m.eval(0.0, 2.0, &ParamVector::ZERO), 16.0);
        assert_eq!(m.eval(5.0, 2.0, &ParamVector::ZERO), 17.0);
    }

    #[test]
    fn parameter_sensitivity_signs() {
        let m = model();
        // Longer channel (positive L deviation, positive direction
        // component) slows the gate.
        let slow = ParamVector::new([1.0, 0.0, 0.0, 0.0]);
        assert!(m.eval(0.0, 0.0, &slow) > 10.0);
        // Wider device (positive W, negative component) speeds it up.
        let fast = ParamVector::new([0.0, 1.0, 0.0, 0.0]);
        assert!(m.eval(0.0, 0.0, &fast) < 10.0);
    }

    #[test]
    fn quadratic_term_is_symmetric_extra() {
        let m = QuadraticGateModel {
            linear: 0.0,
            ..model()
        };
        let plus = m.eval(0.0, 0.0, &ParamVector::new([1.0, 0.0, 0.0, 0.0]));
        let minus = m.eval(0.0, 0.0, &ParamVector::new([-1.0, 0.0, 0.0, 0.0]));
        assert!((plus - minus).abs() < 1e-12, "pure quadratic is even");
        assert!(plus > 10.0, "positive curvature adds delay both ways");
    }

    #[test]
    fn clamped_at_one_percent_of_nominal() {
        // Linear-only model: a hugely fast corner would drive the raw
        // value negative, but the clamp floors it at 1% of nominal.
        let m = QuadraticGateModel {
            quadratic: 0.0,
            ..model()
        };
        let corner = ParamVector::new([-30.0, 30.0, -30.0, -30.0]);
        assert!(
            m.projection(&corner) < -10.0,
            "raw value is deeply negative"
        );
        let v = m.eval(0.0, 0.0, &corner);
        assert!((v - 0.1).abs() < 1e-12, "clamped at 1% of nominal, got {v}");
    }

    #[test]
    fn projection_matches_dot() {
        let m = model();
        let p = ParamVector::new([1.0, 1.0, 1.0, 1.0]);
        assert!((m.projection(&p) - (0.7 - 0.4 + 0.5 + 0.3)).abs() < 1e-15);
    }

    #[test]
    fn gate_timing_model_dispatch() {
        let g = GateTimingModel {
            delay: model(),
            output_slew: QuadraticGateModel {
                nominal: 4.0,
                ..model()
            },
        };
        assert_eq!(g.delay(0.0, 0.0, &ParamVector::ZERO), 10.0);
        assert_eq!(g.output_slew(0.0, 0.0, &ParamVector::ZERO), 4.0);
    }
}
