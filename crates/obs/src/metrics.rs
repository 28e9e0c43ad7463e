//! Metric primitives: counters, gauges, histograms, span timers.
//!
//! All primitives are cheap `Clone` handles onto shared atomic state; clones
//! observe the same underlying metric. Every recording method first checks
//! [`crate::enabled`] so a disabled process pays one relaxed load per site.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing `u64` counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh, unregistered counter (normally obtained via
    /// [`crate::Registry::counter`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a value that can go up and down (queue depths, in-flight
/// work, utilisation permille).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh, unregistered gauge (normally obtained via
    /// [`crate::Registry::gauge`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        if crate::enabled() {
            self.cell.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Strictly increasing finite upper bounds; an implicit `+Inf` overflow
    /// bucket follows the last bound.
    bounds: Vec<f64>,
    /// One slot per bound plus the overflow slot.
    buckets: Vec<AtomicU64>,
    /// Total observation count.
    count: AtomicU64,
    /// Sum of observed values, stored as `f64` bits and updated by CAS.
    sum_bits: AtomicU64,
}

/// A histogram over explicit upper-bound buckets, Prometheus style.
///
/// Observations are `f64` (seconds for latency histograms). Construct bucket
/// bounds with [`crate::exponential_bounds`] or [`crate::linear_bounds`].
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    inner: Option<Arc<HistogramInner>>,
}

impl Histogram {
    /// A fresh, unregistered histogram with the given upper bounds (normally
    /// obtained via [`crate::Registry::histogram`]).
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Some(Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            })),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        if crate::enabled() {
            if let Some(inner) = &self.inner {
                let idx = inner
                    .bounds
                    .iter()
                    .position(|&b| v <= b)
                    .unwrap_or(inner.bounds.len());
                inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
                inner.count.fetch_add(1, Ordering::Relaxed);
                let mut cur = inner.sum_bits.load(Ordering::Relaxed);
                loop {
                    let next = (f64::from_bits(cur) + v).to_bits();
                    match inner.sum_bits.compare_exchange_weak(
                        cur,
                        next,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(seen) => cur = seen,
                    }
                }
            }
        }
    }

    /// Record a [`std::time::Duration`] in seconds.
    #[inline]
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Start a span timer: the returned guard records the elapsed wall time
    /// (seconds) into this histogram when dropped. When recording is
    /// disabled the guard is inert and no clock is read.
    #[inline]
    pub fn start(&self) -> Span<'_> {
        Span {
            start: crate::enabled().then(std::time::Instant::now),
            hist: self,
        }
    }

    /// A consistent-enough snapshot of the current state, or `None` for a
    /// boundless [`Histogram::default`].
    pub fn snapshot(&self) -> Option<HistogramSnapshot> {
        let inner = self.inner.as_ref()?;
        Some(HistogramSnapshot {
            bounds: inner.bounds.clone(),
            counts: inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(inner.sum_bits.load(Ordering::Relaxed)),
            count: inner.count.load(Ordering::Relaxed),
        })
    }
}

/// Span-timer guard returned by [`Histogram::start`]; records elapsed
/// seconds on drop.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct Span<'a> {
    start: Option<std::time::Instant>,
    hist: &'a Histogram,
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            self.hist.observe(t0.elapsed().as_secs_f64());
        }
    }
}

/// Point-in-time view of a [`Histogram`], as returned by
/// [`Histogram::snapshot`] and [`crate::Registry::histogram_snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite upper bounds; `counts` has one extra overflow slot.
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts, overflow last.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean observed value, or `None` with no observations.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}
