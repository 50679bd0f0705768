//! # klest-ssta
//!
//! Monte Carlo statistical static timing analysis — the experimental
//! vehicle of the paper's Sec. 5. Two sample generators feed the same
//! [`klest_sta::Timer`]:
//!
//! - **Algorithm 1** ([`CholeskySampler`]): the reference grid-free MC —
//!   build the `N_g x N_g` covariance matrix from the kernel at the gate
//!   locations, Cholesky-factor it once, then correlate i.i.d. normals,
//! - **Algorithm 2** ([`KleFieldSampler`]): the paper's method — draw
//!   `r ≈ 25` uncorrelated normals, reconstruct the field over the mesh
//!   via `D_λ ξ` (eq. 28), and gather per-gate values through the
//!   triangle index.
//!
//! [`run_monte_carlo_with`] runs the Monte Carlo loop behind every entry
//! point: N timing samples with a sampler per statistical parameter
//! (optionally across threads, optionally with antithetic variates),
//! returning worst-delay samples, per-output statistics and statistical
//! criticality. Its [`McMode`] picks the execution: plain; supervised,
//! where shards run under a fault-isolating supervisor, poll a
//! [`klest_runtime::CancelToken`] between samples, and a cancelled or
//! partially-faulted run salvages every completed sample with the CI
//! widening recorded in [`SalvageStats`]; or checkpointed, resumable
//! bitwise from any [`McCheckpoint`]. [`run_monte_carlo`] and
//! [`run_monte_carlo_supervised`] are its one-sampler forms;
//! [`experiments`] packages the paper's Table 1 and Fig. 6 comparisons.
//!
//! Beyond the paper's Monte Carlo: [`GridPcaSampler`] is the Sec. 2.1
//! grid baseline, [`ProcessModel`] binds a distinct kernel per
//! statistical parameter, [`canonical`] propagates arrival times
//! symbolically over the KLE variables (one pass instead of N), and
//! [`pce`] fits a Hermite polynomial-chaos surrogate of the delay.
//! [`validation`] empirically checks any sampler against its kernel.
//!
//! ```no_run
//! use klest_ssta::{experiments::CircuitSetup, CholeskySampler, McConfig, run_monte_carlo};
//! use klest_circuit::{benchmark, BenchmarkId};
//! use klest_kernels::GaussianKernel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = benchmark(BenchmarkId::C880)?;
//! let setup = CircuitSetup::prepare(&circuit);
//! let kernel = GaussianKernel::with_correlation_distance(1.0);
//! let sampler = CholeskySampler::new(&kernel, setup.locations())?;
//! let run = run_monte_carlo(&setup.timer, &sampler, &McConfig::new(1000, 7))?;
//! println!("mean worst delay = {}", run.worst_delay_stats().mean);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod canonical;
mod degradation;
mod error;
pub mod experiments;
pub mod faultinject;
mod grid_model;
pub mod hier;
mod mc;
mod normal;
pub mod pce;
mod process;
mod samplers;
mod stats;
pub mod validation;

pub use degradation::{DegradationEvent, DegradationReport};
pub use error::SstaError;
pub use grid_model::GridPcaSampler;
pub use mc::{
    run_monte_carlo, run_monte_carlo_supervised, run_monte_carlo_with, McCheckpoint, McConfig,
    McMode, McRun, SalvageStats, LANES, N_PARAMS,
};
pub use normal::NormalSource;
pub use process::ProcessModel;
pub use samplers::{CholeskySampler, GateFieldSampler, KleFieldSampler};
pub use stats::{quantile, OutputStats, SummaryStats};
