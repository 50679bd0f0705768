//! # klest-circuit
//!
//! Gate-level circuit substrate for the SSTA experiments: netlist data
//! structures, a synthetic benchmark generator reproducing the ISCAS85/89
//! circuit sizes of the paper's Table 1, recursive-bisection placement
//! (standing in for the Capo placer [23]), and half-perimeter-wirelength
//! wire loads.
//!
//! The original ISCAS netlists are not redistributable here; see DESIGN.md
//! for why synthetic circuits with matched gate counts and realistic
//! topology preserve the paper's comparison (the experiments measure
//! statistical agreement and sampling cost, which depend on circuit size,
//! gate locations and path structure, not on specific Boolean functions).
//!
//! ```
//! use klest_circuit::{benchmark, BenchmarkId, Placement};
//!
//! # fn main() -> Result<(), klest_circuit::CircuitError> {
//! let circuit = benchmark(BenchmarkId::C880)?;
//! assert_eq!(circuit.gate_count(), 383);
//! let placement = Placement::recursive_bisection(&circuit);
//! assert_eq!(placement.len(), circuit.node_count());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod generator;
mod io;
mod netlist;
mod partition;
mod placement;
mod stats;
mod suite;
mod wire;

pub use generator::{generate, GeneratorConfig};
pub use io::{parse_netlist, write_netlist, ParseNetlistError};
pub use netlist::{Circuit, CircuitError, GateKind, NodeId};
pub use partition::Partition;
pub use placement::Placement;
pub use stats::CircuitStats;
pub use suite::{benchmark, benchmark_scaled, BenchmarkId, TABLE1_BENCHMARKS};
pub use wire::{WireModel, WireParasitics};
