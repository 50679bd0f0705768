//! Wire-load modeling from placement: half-perimeter wirelength mapped to
//! lumped RC parasitics (paper Sec. 5.1: "half-perimeter wirelength was
//! used to model the wire loads").

use crate::{Circuit, NodeId, Placement};
use klest_geometry::BBox;

/// Per-unit-length electrical parameters of the interconnect, plus pin
/// capacitance. Values are in normalized units chosen to make wire and
/// gate delays comparable at 90 nm-like ratios; the experiments report
/// *relative* statistics, so absolute calibration is not critical (see
/// DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireModel {
    /// Resistance per unit length (normalized-die units).
    pub res_per_len: f64,
    /// Capacitance per unit length.
    pub cap_per_len: f64,
    /// Input-pin capacitance added per sink.
    pub pin_cap: f64,
}

impl Default for WireModel {
    fn default() -> Self {
        WireModel {
            res_per_len: 0.4,
            cap_per_len: 0.3,
            pin_cap: 0.05,
        }
    }
}

/// Lumped parasitics of one net.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WireParasitics {
    /// Total wire resistance.
    pub resistance: f64,
    /// Total wire + pin capacitance.
    pub capacitance: f64,
    /// Half-perimeter wirelength the values were derived from.
    pub wirelength: f64,
}

impl WireModel {
    /// Parasitics of the net driven by `driver`, from the HPWL of the
    /// driver + sink bounding box.
    pub fn net_parasitics(
        &self,
        circuit: &Circuit,
        placement: &Placement,
        driver: NodeId,
    ) -> WireParasitics {
        let fanouts = circuit.fanouts(driver);
        if fanouts.is_empty() {
            return WireParasitics::default();
        }
        let pins = std::iter::once(placement.location(driver))
            .chain(fanouts.iter().map(|&f| placement.location(f)));
        let wl = BBox::from_points(pins)
            .map(|b| b.half_perimeter())
            .unwrap_or(0.0);
        WireParasitics {
            resistance: self.res_per_len * wl,
            capacitance: self.cap_per_len * wl + self.pin_cap * fanouts.len() as f64,
            wirelength: wl,
        }
    }

    /// Parasitics for every node's output net, indexed by node.
    pub fn all_nets(&self, circuit: &Circuit, placement: &Placement) -> Vec<WireParasitics> {
        circuit
            .topological_order()
            .map(|id| self.net_parasitics(circuit, placement, id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GeneratorConfig};

    #[test]
    fn sink_count_drives_pin_cap() {
        let c = generate("w", GeneratorConfig::combinational(200, 2)).unwrap();
        let p = Placement::recursive_bisection(&c);
        let model = WireModel::default();
        for id in c.topological_order() {
            let para = model.net_parasitics(&c, &p, id);
            let sinks = c.fanouts(id).len();
            if sinks == 0 {
                assert_eq!(para, WireParasitics::default());
            } else {
                assert!(para.capacitance >= model.pin_cap * sinks as f64);
                assert!(para.resistance >= 0.0);
                assert!(para.wirelength >= 0.0);
            }
        }
    }

    #[test]
    fn longer_nets_cost_more() {
        let c = generate("w2", GeneratorConfig::combinational(500, 4)).unwrap();
        let p = Placement::recursive_bisection(&c);
        let model = WireModel::default();
        let nets = model.all_nets(&c, &p);
        assert_eq!(nets.len(), c.node_count());
        // Across nets with equal sink counts, RC grows with wirelength.
        let mut one_sink: Vec<&WireParasitics> = c
            .topological_order()
            .filter(|&id| c.fanouts(id).len() == 1)
            .map(|id| &nets[id.index()])
            .collect();
        assert!(one_sink.len() > 10);
        one_sink.sort_by(|a, b| a.wirelength.partial_cmp(&b.wirelength).unwrap());
        let first = one_sink.first().unwrap();
        let last = one_sink.last().unwrap();
        assert!(last.capacitance >= first.capacitance);
        assert!(last.resistance >= first.resistance);
    }

    #[test]
    fn scaling_with_model_parameters() {
        let c = generate("w3", GeneratorConfig::combinational(100, 6)).unwrap();
        let p = Placement::recursive_bisection(&c);
        let base = WireModel::default();
        let double = WireModel {
            res_per_len: base.res_per_len * 2.0,
            cap_per_len: base.cap_per_len,
            pin_cap: base.pin_cap,
        };
        let driver = c
            .topological_order()
            .find(|&id| {
                !c.fanouts(id).is_empty() && base.net_parasitics(&c, &p, id).wirelength > 0.0
            })
            .unwrap();
        let a = base.net_parasitics(&c, &p, driver);
        let b = double.net_parasitics(&c, &p, driver);
        assert!((b.resistance - 2.0 * a.resistance).abs() < 1e-12);
        assert_eq!(b.capacitance, a.capacitance);
    }
}
