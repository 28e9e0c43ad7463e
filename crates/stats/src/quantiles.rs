//! Order statistics over a finite sample.

/// Order statistics over an owned sample.
///
/// The flooding-time theorems hold *with high probability*, i.e. for all but
/// a vanishing fraction of runs; the natural empirical analogue is an upper
/// quantile over seeded trials. `Quantiles` sorts once at construction and
/// answers arbitrary quantile queries in `O(1)`.
///
/// Non-finite samples (`NaN`, `±inf`) are rejected at construction by
/// [`Quantiles::try_new`]; [`Quantiles::new`] panics on them.
///
/// # Examples
///
/// ```
/// use dg_stats::Quantiles;
///
/// let q = Quantiles::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
/// assert_eq!(q.min(), 1.0);
/// assert_eq!(q.median(), 3.0);
/// assert_eq!(q.max(), 5.0);
/// assert!((q.quantile(0.95) - 4.8).abs() < 1e-12); // linear interpolation
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quantiles {
    sorted: Vec<f64>,
}

impl Quantiles {
    /// Builds order statistics from a sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains non-finite values.
    pub fn new(samples: Vec<f64>) -> Self {
        Self::try_new(samples).expect("samples must be non-empty and finite")
    }

    /// Builds order statistics, returning `None` for an empty sample or one
    /// containing non-finite values.
    pub fn try_new(mut samples: Vec<f64>) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite values are comparable"));
        Some(Quantiles { sorted: samples })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if there are no samples (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-th quantile with linear interpolation, `q` clamped to
    /// `[0, 1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dg_stats::Quantiles;
    /// let q = Quantiles::new(vec![0.0, 10.0]);
    /// assert_eq!(q.quantile(0.5), 5.0);
    /// ```
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// The median (`quantile(0.5)`).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The 95th percentile — the standard empirical stand-in for a
    /// with-high-probability upper bound.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// The smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// The largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// The sorted samples.
    pub fn as_sorted(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_nan() {
        assert!(Quantiles::try_new(vec![]).is_none());
        assert!(Quantiles::try_new(vec![1.0, f64::NAN]).is_none());
        assert!(Quantiles::try_new(vec![f64::INFINITY]).is_none());
    }

    #[test]
    fn median_even_odd() {
        let odd = Quantiles::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(odd.median(), 2.0);
        let even = Quantiles::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median(), 2.5);
    }

    #[test]
    fn extremes() {
        let q = Quantiles::new(vec![7.0, -1.0, 3.5]);
        assert_eq!(q.quantile(0.0), -1.0);
        assert_eq!(q.quantile(1.0), 7.0);
        assert_eq!(q.min(), -1.0);
        assert_eq!(q.max(), 7.0);
    }

    #[test]
    fn quantile_clamps_out_of_range() {
        let q = Quantiles::new(vec![1.0, 2.0]);
        assert_eq!(q.quantile(-3.0), 1.0);
        assert_eq!(q.quantile(9.0), 2.0);
    }

    #[test]
    fn single_sample_all_quantiles() {
        let q = Quantiles::new(vec![42.0]);
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(q.quantile(p), 42.0);
        }
    }

    #[test]
    fn interpolation() {
        let q = Quantiles::new(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert!((q.quantile(0.25) - 1.0).abs() < 1e-12);
        assert!((q.quantile(0.625) - 2.5).abs() < 1e-12);
    }
}
