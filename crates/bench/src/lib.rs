//! Hand-rolled benchmark harness shared by the `benches/` targets.
//!
//! The build environment has no access to crates.io, so instead of
//! criterion each bench target is a plain `harness = false` binary that
//! drives [`Harness::bench`]: adaptive iteration count targeting a fixed
//! measurement budget, mean/min per-iteration times, substring filtering
//! via the first CLI argument (`cargo bench --bench engine -- flood`).
//!
//! Each bench file regenerates one experiment's series at a reduced
//! scale (`cargo bench` must terminate in minutes, not hours); the
//! full-scale tables live in the `dg-experiments` harness, and both ride
//! the same `Simulation` builder.

#![warn(missing_docs)]

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A deterministic-but-rotating seed source, so consecutive bench
/// iterations measure different realizations while the sequence stays
/// reproducible.
#[derive(Debug, Default)]
pub struct SeedTape {
    counter: AtomicU64,
}

impl SeedTape {
    /// Creates a tape starting at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next seed.
    pub fn next_seed(&self) -> u64 {
        let i = self.counter.fetch_add(1, Ordering::Relaxed);
        dynagraph::mix_seed(0xBE7C_45ED, i)
    }
}

/// Formats a duration with stable units for aligned bench output.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:>9.3} s ", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:>9.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:>9.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns:>9} ns")
    }
}

/// `true` when the `DG_BENCH_QUICK` environment variable is set
/// (non-empty, not `"0"`): benches shrink their problem sizes and the
/// harness its measurement budget, so CI can smoke-test every bench
/// target in seconds instead of minutes.
pub fn quick_mode() -> bool {
    std::env::var("DG_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Cores available to the bench process — recorded in every
/// `BENCH_*.json` so a reader knows which machine shape produced it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// The source revision a bench ran on, as `git describe --always
/// --dirty` reports it for this checkout (`-dirty` marks uncommitted
/// changes); `"unknown"` outside a git checkout. Recorded in
/// `BENCH_*.json` next to [`cores`].
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Minimal bench runner: filters by substring, times adaptively.
#[derive(Debug)]
pub struct Harness {
    filter: Option<String>,
    budget: Duration,
}

impl Harness {
    /// Builds a harness from the process arguments: the first non-flag
    /// argument (if any) is a substring filter over bench names (cargo
    /// passes flags like `--bench`, which are ignored). In
    /// [`quick_mode`] the measurement budget shrinks from 1.5 s to 50 ms
    /// per bench.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Harness {
            filter,
            budget: if quick_mode() {
                Duration::from_millis(50)
            } else {
                Duration::from_millis(1_500)
            },
        }
    }

    /// Overrides the per-bench measurement budget.
    pub fn budget(mut self, budget: Duration) -> Self {
        self.budget = budget;
        self
    }

    /// Runs one benchmark: a warm-up call sizes the iteration count to
    /// the measurement budget, then mean/min per-iteration times are
    /// printed. Skipped (silently) when a filter is set and doesn't
    /// match `name`.
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed();
        let iters = (self.budget.as_nanos() / once.as_nanos().max(1)).clamp(3, 10_000) as u32;
        let mut total = Duration::ZERO;
        let mut min = Duration::MAX;
        for _ in 0..iters {
            let t = Instant::now();
            black_box(f());
            let d = t.elapsed();
            total += d;
            min = min.min(d);
        }
        println!(
            "{name:<52} {iters:>6} iters   mean {}   min {}",
            fmt_duration(total / iters),
            fmt_duration(min)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_tape_rotates_deterministically() {
        let a = SeedTape::new();
        let b = SeedTape::new();
        let xs: Vec<u64> = (0..4).map(|_| a.next_seed()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_seed()).collect();
        assert_eq!(xs, ys);
        assert_eq!(xs.iter().collect::<std::collections::HashSet<_>>().len(), 4);
    }

    #[test]
    fn durations_format() {
        assert!(fmt_duration(Duration::from_nanos(12)).contains("ns"));
        assert!(fmt_duration(Duration::from_micros(12)).contains("us"));
        assert!(fmt_duration(Duration::from_millis(12)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).contains(" s"));
    }

    #[test]
    fn harness_runs_and_filters() {
        let h = Harness {
            filter: Some("match".to_string()),
            budget: Duration::from_millis(1),
        };
        let mut ran = 0;
        h.bench("no", || ran += 1);
        assert_eq!(ran, 0);
        h.bench("does_match", || ran += 1);
        assert!(ran > 0);
    }
}
