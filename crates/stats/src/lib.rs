//! Statistics substrate for the `dynspread` workspace.
//!
//! The experiment harness of the PODC 2012 reproduction needs a small,
//! dependency-free toolkit to turn raw Monte-Carlo samples into the
//! quantities the experiment tables report (`crates/experiments`):
//!
//! * [`Summary`] — streaming mean/variance/min/max (Welford's algorithm);
//! * [`Quantiles`] — order statistics (median, p95, ...) used to read
//!   "with high probability" bounds off simulation data;
//! * [`Histogram`] and [`Grid2d`] — empirical distributions, including the
//!   positional occupancy distributions of mobility models, with
//!   total-variation distance between them;
//! * [`LinearFit`] — least-squares fits, including log–log fits that extract
//!   empirical scaling exponents (e.g. the `√n` flooding of the sparse
//!   random-waypoint regime);
//! * [`mean_ci95`] / [`mean_ci95_t`] — normal-approximation and
//!   Student-t confidence intervals (the latter drives the sequential
//!   stopping rule of `dynagraph::sweep`).
//!
//! # Examples
//!
//! ```
//! use dg_stats::{Summary, Quantiles};
//!
//! let samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
//! let summary: Summary = samples.iter().copied().collect();
//! assert_eq!(summary.len(), 8);
//! assert!((summary.mean() - 3.875).abs() < 1e-12);
//!
//! let q = Quantiles::new(samples.to_vec());
//! assert_eq!(q.median(), 3.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ci;
mod histogram;
mod quantiles;
mod regression;
mod summary;

pub use ci::{mean_ci95, mean_ci95_t, student_t_975, ConfidenceInterval};
pub use histogram::{Grid2d, Histogram};
pub use quantiles::Quantiles;
pub use regression::{log_log_fit, LinearFit};
pub use summary::Summary;
