//! `dg-obs` — zero-perturbation observability for the dynspread workspace.
//!
//! The crate provides three things, all dependency-free:
//!
//! 1. **Metric primitives** — [`Counter`], [`Gauge`], [`Histogram`] and the
//!    span timer returned by [`Histogram::start`], registered by name in a
//!    [`Registry`] (usually the process-wide [`Registry::global`]).
//! 2. **A Prometheus text renderer** — [`Registry::render_prometheus`]
//!    produces the classic `text/plain; version=0.0.4` exposition by hand.
//! 3. **A leveled logger** — the [`log`] module plus the [`dg_error!`],
//!    [`dg_info!`] and [`dg_debug!`] macros, gated at runtime by `DG_LOG`.
//!
//! # Zero perturbation
//!
//! Instrumentation must never change simulation results. Recording is off
//! until the process opts in via the `DG_OBS=1` environment variable or
//! [`set_enabled`]`(true)`; a disabled recording site costs one relaxed
//! atomic load, and no clock is read.
//!
//! The switch may not affect results: metrics only *read* timings and
//! tallies, never RNG streams or trial data. The workspace-level
//! `obs_identity` test suite pins byte identity of engine records, sweep
//! artifacts, and fingerprints with metrics on vs off, and the `t20_obs`
//! bench guards the disabled overhead.
//!
//! # Example
//!
//! ```
//! dg_obs::set_enabled(true);
//! let reg = dg_obs::Registry::global();
//! let trials = reg.counter("demo_trials_total");
//! trials.inc();
//! let hist = reg.histogram("demo_step_seconds", &dg_obs::exponential_bounds(1e-6, 10.0, 6));
//! {
//!     let _span = hist.start(); // records elapsed seconds on drop
//! }
//! assert_eq!(reg.counter_value("demo_trials_total"), Some(1));
//! let text = reg.render_prometheus();
//! assert!(text.contains("# TYPE demo_trials_total counter"));
//! dg_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
mod metrics;
mod registry;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Span};
pub use registry::Registry;

use std::sync::atomic::{AtomicU8, Ordering};

static RUNTIME: AtomicU8 = AtomicU8::new(UNSET);
const UNSET: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Whether metric recording is currently active.
///
/// Lazily initialised from the `DG_OBS` environment variable (`1`, `true`,
/// `on`, or `yes` — case-insensitive — switch it on); overridable at any time
/// with [`set_enabled`]. The fast path is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match RUNTIME.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

/// Switch metric recording on or off for the whole process.
///
/// Overrides whatever `DG_OBS` said.
pub fn set_enabled(on: bool) {
    RUNTIME.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("DG_OBS")
        .map(|v| {
            let v = v.to_ascii_lowercase();
            v == "1" || v == "true" || v == "on" || v == "yes"
        })
        .unwrap_or(false);
    // Racing initialisers agree because they read the same environment.
    RUNTIME.store(if on { ON } else { OFF }, Ordering::Relaxed);
    on
}

/// Exponentially spaced histogram upper bounds: `start`, `start*factor`, …
/// (`count` bounds). The canonical choice for latency histograms.
///
/// Panics if `start <= 0`, `factor <= 1`, or `count == 0`.
pub fn exponential_bounds(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(
        start > 0.0 && factor > 1.0 && count > 0,
        "bad exponential bucket spec"
    );
    let mut out = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        out.push(b);
        b *= factor;
    }
    out
}

/// Equal-width histogram upper bounds over `[lo, hi)`, delegating the bucket
/// math to [`dg_stats::Histogram`] so obs histograms and analysis histograms
/// agree on edges.
///
/// Panics under the same conditions as [`dg_stats::Histogram::new`].
pub fn linear_bounds(lo: f64, hi: f64, bins: usize) -> Vec<f64> {
    dg_stats::Histogram::new(lo, hi, bins).bucket_edges()
}

/// Render `name{key="value"}`, escaping the label value for Prometheus
/// exposition (`\` → `\\`, `"` → `\"`, newline → `\n`).
pub fn label(name: &str, key: &str, value: &str) -> String {
    format!("{name}{{{key}=\"{}\"}}", escape_label(value))
}

/// Render `name{k1="v1",k2="v2"}` with escaped label values.
pub fn label2(name: &str, k1: &str, v1: &str, k2: &str, v2: &str) -> String {
    format!(
        "{name}{{{k1}=\"{}\",{k2}=\"{}\"}}",
        escape_label(v1),
        escape_label(v2)
    )
}

pub(crate) fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}
