//! Streaming univariate summaries (Welford's online algorithm).

use core::fmt;

/// A streaming summary of a sequence of `f64` samples.
///
/// Uses Welford's numerically stable online algorithm, so it can absorb an
/// unbounded stream in `O(1)` memory. Two summaries can be merged with
/// [`Summary::merge`], which makes it usable from per-thread workers.
///
/// # Examples
///
/// ```
/// use dg_stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.len(), 8);
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_variance(), 4.0);
/// assert_eq!(s.min(), 2.0);
/// assert_eq!(s.max(), 9.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Absorbs one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples absorbed so far.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// `true` if no samples were absorbed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the samples; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Sum of the samples (`mean * count`).
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Unbiased sample variance (divides by `n - 1`); `NaN` for fewer than
    /// two samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (divides by `n`); `NaN` when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation (square root of [`Self::sample_variance`]).
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean, `std_dev / sqrt(n)`.
    pub fn std_err(&self) -> f64 {
        self.std_dev() / (self.count as f64).sqrt()
    }

    /// Smallest sample; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another summary into this one, as if all of `other`'s samples
    /// had been pushed here.
    ///
    /// # Examples
    ///
    /// ```
    /// use dg_stats::Summary;
    ///
    /// let mut a: Summary = [1.0, 2.0].iter().copied().collect();
    /// let b: Summary = [3.0, 4.0].iter().copied().collect();
    /// a.merge(&b);
    /// assert_eq!(a.len(), 4);
    /// assert_eq!(a.mean(), 2.5);
    /// ```
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_nan_mean() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert!(s.mean().is_nan());
        assert!(s.sample_variance().is_nan());
    }

    #[test]
    fn single_sample() {
        let mut s = Summary::new();
        s.push(42.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.population_variance(), 0.0);
        assert!(s.sample_variance().is_nan());
    }

    #[test]
    fn known_variance() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .copied()
            .collect();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.population_variance(), 4.0);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let sequential: Summary = data.iter().copied().collect();
        let mut left: Summary = data[..37].iter().copied().collect();
        let right: Summary = data[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.len(), sequential.len());
        assert!((left.mean() - sequential.mean()).abs() < 1e-12);
        assert!((left.sample_variance() - sequential.sample_variance()).abs() < 1e-9);
        assert_eq!(left.min(), sequential.min());
        assert_eq!(left.max(), sequential.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0, 3.0].iter().copied().collect();
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn display_is_nonempty() {
        let s: Summary = [1.0].iter().copied().collect();
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn sum_matches() {
        let s: Summary = [1.5, 2.5, 3.0].iter().copied().collect();
        assert!((s.sum() - 7.0).abs() < 1e-12);
    }
}
