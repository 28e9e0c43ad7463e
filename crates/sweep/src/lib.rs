//! # dg-sweep — adaptive parameter-sweep orchestration
//!
//! The experiments behind a phase diagram are a product space: a grid of
//! parameter cells, each needing enough Monte-Carlo trials for a tight
//! confidence interval — but *how many* is only known once the samples
//! arrive. This crate turns that into a declarative harness:
//!
//! * [`Grid`] / [`Axis`] — declare the parameter space (linear, log, or
//!   explicit axes); every [`Cell`] gets a stable id and typed access to
//!   its values;
//! * [`Sweep`] — one work pool over all `(cell, trial)` items with a
//!   *sequential stopping rule* per cell ([`TrialBudget`]): run until
//!   the Student-t 95% CI half-width meets a [`CiTarget`] or the trial
//!   cap hits, spending trials where the noise is;
//! * [`Metric`] — optionally declare a *vector* of observables per trial
//!   (rounds, messages, coverage, ...) with per-metric stopping modes:
//!   a cell stops only when every gating metric meets its CI target,
//!   while [`MetricStopping::Observe`] metrics are recorded without
//!   gating ([`Grid::metrics`], [`Sweep::run_metrics`]);
//! * [`SweepSpec`] — a sweep's whole configuration (axes, round caps,
//!   metrics, base seed, budget): the one place it is validated,
//!   fingerprinted, written and parsed, so a sweep can be named before
//!   it runs;
//! * [`SweepReport`] — a machine-readable artifact (JSON + CSV): a
//!   [`SweepSpec`] plus its cells, each carrying per-cell summaries
//!   *and* raw samples, so a killed sweep resumes from its own output
//!   file ([`Sweep::checkpoint`]) and finishes with a byte-identical
//!   report. Metric-less sweeps keep the frozen `dg-sweep/1` bytes;
//!   declared metrics opt into `dg-sweep/2`.
//!
//! Determinism is the design invariant: trial `i` of cell `c` is seeded
//! `mix_seed(mix_seed(base_seed, c), i)` and the stopping decision is a
//! pure function of each cell's sample prefix in trial order, so serial,
//! parallel, and resumed executions all produce the same bytes.
//!
//! This crate is self-contained (it only needs `dg-stats`); the
//! `dynagraph::sweep` module re-exports it next to the engine glue that
//! plugs `Simulation::run_trial` in as the trial function.
//!
//! # Example
//!
//! ```
//! use dg_sweep::{Axis, CiTarget, Grid, Sweep, TrialBudget};
//!
//! let grid = Grid::new()
//!     .axis(Axis::ints("n", [16, 32]))
//!     .axis(Axis::log("q", 0.1, 0.4, 3));
//! let report = Sweep::over(grid)
//!     .budget(TrialBudget::adaptive(4, 32, CiTarget::Relative(0.2)))
//!     .base_seed(7)
//!     .run(|cell, trial| {
//!         // A stand-in measurement: any pure function of (cell, seed).
//!         let n = cell.usize("n") as f64;
//!         Some(n * cell.get("q") + (trial.seed % 8) as f64)
//!     })
//!     .unwrap();
//! assert_eq!(report.cells().len(), 6);
//! assert!(report.is_complete());
//! let csv = report.to_csv();
//! assert!(csv.starts_with("n,q,trials,"));
//! let reloaded = dg_sweep::SweepReport::from_json(&report.to_json()).unwrap();
//! assert_eq!(reloaded, report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod axis;
mod budget;
mod error;
mod instrument;
mod json;
mod report;
mod runner;
mod spec;

pub use axis::{Axis, Cell, Grid, Metric, MetricStopping};
pub use budget::{CiTarget, TrialBudget};
pub use error::SweepError;
pub use report::{CellReport, NearestCell, SweepReport};
pub use runner::{Sweep, Trial, TrialPanic};
pub use spec::SweepSpec;

/// Mixes a base seed with a stream index into an independent-looking
/// seed (SplitMix64 finalizer).
///
/// Bit-for-bit identical to `dynagraph::mix_seed` — the sweep scheduler
/// and the simulation engine must derive the *same* per-trial seeds, so
/// that handing [`Trial::cell_seed`] to `SimulationBuilder::base_seed`
/// and [`Trial::index`] to `SimulationBuilder::run_trial` reproduces
/// [`Trial::seed`] inside the engine. (`dynagraph`'s test suite pins the
/// two implementations together; this crate keeps its own copy only to
/// stay dependency-free below the engine.)
///
/// # Examples
///
/// ```
/// use dg_sweep::mix_seed;
/// assert_ne!(mix_seed(42, 0), mix_seed(42, 1));
/// assert_eq!(mix_seed(42, 7), mix_seed(42, 7));
/// ```
pub fn mix_seed(base: u64, stream: u64) -> u64 {
    let mut z = base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
