//! The gate timing library — 90 nm-flavoured parameters for every
//! [`GateKind`] (the Cadence GPDK stand-in; see DESIGN.md for the
//! substitution rationale).
//!
//! Units are arbitrary but consistent (think picoseconds and normalized
//! femtofarads): the experiments report *relative* errors and speedups,
//! matching the paper's evaluation.

use crate::{GateTimingModel, QuadraticGateModel};
use klest_circuit::GateKind;

/// Timing models for all gate kinds.
#[derive(Debug, Clone)]
pub struct GateLibrary {
    /// One model per kind, indexed by [`GateKind::index`].
    models: [GateTimingModel; GateKind::ALL.len()],
    /// Input pin capacitance presented by every gate input.
    input_cap: f64,
    /// Slew assumed at primary inputs.
    primary_input_slew: f64,
}

impl GateLibrary {
    /// The default library, loosely calibrated to a 90 nm standard-cell
    /// flavor: inverters fastest, 3-input gates slowest, XOR in between;
    /// delay rises with `L`, `Vt`, `tox` and falls with `W`.
    pub fn default_90nm() -> Self {
        // Common normalized sensitivity direction: L and Vt dominate gate
        // delay; W helps; tox hurts. Per-kind scale factors below.
        let dir = [0.60, -0.35, 0.55, 0.30];
        let make = |nominal: f64, sigma_frac: f64| GateTimingModel {
            delay: QuadraticGateModel {
                nominal,
                slew_coeff: 0.18,
                load_coeff: 2.0,
                direction: dir,
                linear: sigma_frac * nominal,
                quadratic: 0.15 * sigma_frac * nominal,
            },
            output_slew: QuadraticGateModel {
                nominal: 0.9 * nominal,
                slew_coeff: 0.10,
                load_coeff: 3.0,
                direction: dir,
                linear: 0.8 * sigma_frac * nominal,
                quadratic: 0.10 * sigma_frac * nominal,
            },
        };
        // Nominal delay and relative 1-sigma sensitivity per kind; the
        // exhaustive match gives every kind a model.
        let models = GateKind::ALL.map(|kind| match kind {
            GateKind::Input => make(0.0, 0.0),
            GateKind::Buf => make(14.0, 0.05),
            GateKind::Inv => make(9.0, 0.06),
            GateKind::Nand2 => make(13.0, 0.055),
            GateKind::Nor2 => make(16.0, 0.06),
            GateKind::And2 => make(20.0, 0.05),
            GateKind::Or2 => make(22.0, 0.05),
            GateKind::Xor2 => make(28.0, 0.055),
            GateKind::Nand3 => make(18.0, 0.06),
            GateKind::Nor3 => make(24.0, 0.065),
        });
        GateLibrary {
            models,
            input_cap: 0.05,
            primary_input_slew: 5.0,
        }
    }

    /// Timing model for a gate kind.
    pub fn model(&self, kind: GateKind) -> &GateTimingModel {
        &self.models[kind.index()]
    }

    /// Input pin capacitance per gate input.
    pub fn input_cap(&self) -> f64 {
        self.input_cap
    }

    /// Slew assumed at primary inputs.
    pub fn primary_input_slew(&self) -> f64 {
        self.primary_input_slew
    }
}

impl Default for GateLibrary {
    fn default() -> Self {
        GateLibrary::default_90nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamVector;

    #[test]
    fn covers_every_gate_kind() {
        let lib = GateLibrary::default_90nm();
        let mut kinds = vec![GateKind::Input];
        kinds.extend_from_slice(GateKind::logic_kinds());
        for k in kinds {
            let m = lib.model(k);
            if k == GateKind::Input {
                assert_eq!(m.delay.nominal, 0.0);
            } else {
                assert!(m.delay.nominal > 0.0, "{k} has no delay");
            }
        }
    }

    #[test]
    fn inverter_is_fastest_logic_gate() {
        let lib = GateLibrary::default_90nm();
        let inv = lib.model(GateKind::Inv).delay.nominal;
        for k in GateKind::logic_kinds() {
            if *k != GateKind::Inv {
                assert!(lib.model(*k).delay.nominal >= inv, "{k} beat the inverter");
            }
        }
    }

    #[test]
    fn slow_corner_is_slower_for_all_kinds() {
        let lib = GateLibrary::default_90nm();
        // +1σ L, -1σ W, +1σ Vt, +1σ tox — unambiguous slow corner.
        let slow = ParamVector::new([1.0, -1.0, 1.0, 1.0]);
        for k in GateKind::logic_kinds() {
            let m = lib.model(*k);
            let nominal = m.delay(5.0, 0.1, &ParamVector::ZERO);
            let corner = m.delay(5.0, 0.1, &slow);
            assert!(corner > nominal, "{k} slow corner not slower");
        }
    }

    #[test]
    fn library_defaults() {
        let lib = GateLibrary::default();
        assert!(lib.input_cap() > 0.0);
        assert!(lib.primary_input_slew() > 0.0);
    }
}
