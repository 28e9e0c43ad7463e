//! Normal-approximation confidence intervals.

use crate::Summary;

/// A two-sided confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean).
    pub mean: f64,
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl ConfidenceInterval {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }

    /// `true` if `x` lies inside the interval (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }
}

/// 95% confidence interval for the mean, by the normal approximation
/// (`mean ± 1.96 · stderr`).
///
/// Suitable for the trial counts used in the experiment harness (≥ 30).
/// Returns `None` for fewer than two samples.
///
/// # Examples
///
/// ```
/// use dg_stats::{mean_ci95, Summary};
///
/// let s: Summary = (0..100).map(|i| (i % 10) as f64).collect();
/// let ci = mean_ci95(&s).unwrap();
/// assert!(ci.contains(4.5));
/// ```
pub fn mean_ci95(summary: &Summary) -> Option<ConfidenceInterval> {
    if summary.len() < 2 {
        return None;
    }
    let half = 1.96 * summary.std_err();
    let mean = summary.mean();
    Some(ConfidenceInterval {
        mean,
        lo: mean - half,
        hi: mean + half,
    })
}

/// Two-sided 97.5% quantiles of Student's t distribution for
/// `df = 1..=30`; beyond the table the asymptotic expansion in
/// [`student_t_975`] is within 1e-4 of the exact value.
const T_975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The 97.5% quantile of Student's t distribution with `df` degrees of
/// freedom — the critical value of a two-sided 95% interval.
///
/// Exact table values for `df <= 30`; the Cornish–Fisher expansion
/// around the normal quantile beyond that (error < 1e-4). Returns
/// `f64::INFINITY` for `df == 0`.
///
/// # Examples
///
/// ```
/// use dg_stats::student_t_975;
/// assert!((student_t_975(1) - 12.706).abs() < 1e-9);
/// assert!((student_t_975(1_000_000) - 1.96).abs() < 1e-3);
/// ```
pub fn student_t_975(df: u64) -> f64 {
    match df {
        0 => f64::INFINITY,
        1..=30 => T_975[(df - 1) as usize],
        _ => {
            // Cornish–Fisher expansion of t_{0.975, nu} around z_{0.975}.
            let z = 1.959_963_984_540_054f64;
            let nu = df as f64;
            let z3 = z * z * z;
            let z5 = z3 * z * z;
            z + (z3 + z) / (4.0 * nu) + (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * nu * nu)
        }
    }
}

/// 95% confidence interval for the mean using Student's t critical value
/// with `n - 1` degrees of freedom.
///
/// The honest small-sample interval for the adaptive trial scheduler in
/// `dynagraph::sweep`, which stops cells at whatever trial count first
/// meets a half-width target — often far below the `n >= 30` the normal
/// approximation of [`mean_ci95`] assumes. Coincides with `mean_ci95` as
/// `n` grows. Returns `None` for fewer than two samples.
///
/// # Examples
///
/// ```
/// use dg_stats::{mean_ci95, mean_ci95_t, Summary};
///
/// let s: Summary = [4.0, 6.0, 5.0, 7.0].iter().copied().collect();
/// let t = mean_ci95_t(&s).unwrap();
/// let z = mean_ci95(&s).unwrap();
/// // Same center, wider interval: t_{0.975,3} = 3.182 > 1.96.
/// assert_eq!(t.mean, z.mean);
/// assert!(t.half_width() > z.half_width());
/// ```
pub fn mean_ci95_t(summary: &Summary) -> Option<ConfidenceInterval> {
    if summary.len() < 2 {
        return None;
    }
    let half = student_t_975(summary.len() as u64 - 1) * summary.std_err();
    let mean = summary.mean();
    Some(ConfidenceInterval {
        mean,
        lo: mean - half,
        hi: mean + half,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_two_samples() {
        let mut s = Summary::new();
        assert!(mean_ci95(&s).is_none());
        s.push(1.0);
        assert!(mean_ci95(&s).is_none());
        s.push(2.0);
        assert!(mean_ci95(&s).is_some());
    }

    #[test]
    fn zero_variance_collapses() {
        let s: Summary = [5.0; 10].iter().copied().collect();
        let ci = mean_ci95(&s).unwrap();
        assert_eq!(ci.lo, 5.0);
        assert_eq!(ci.hi, 5.0);
        assert_eq!(ci.half_width(), 0.0);
        assert!(ci.contains(5.0));
        assert!(!ci.contains(5.1));
    }

    #[test]
    fn symmetric_around_mean() {
        let s: Summary = [1.0, 2.0, 3.0, 4.0, 5.0].iter().copied().collect();
        let ci = mean_ci95(&s).unwrap();
        assert!((ci.mean - 3.0).abs() < 1e-12);
        assert!(((ci.hi - ci.mean) - (ci.mean - ci.lo)).abs() < 1e-12);
    }

    #[test]
    fn t_quantiles_decrease_toward_normal() {
        assert_eq!(student_t_975(0), f64::INFINITY);
        for df in 1..200u64 {
            assert!(
                student_t_975(df) > student_t_975(df + 1),
                "not monotone at df {df}"
            );
        }
        // Table-to-expansion seam (df 30 -> 31) stays monotone and close.
        assert!((student_t_975(31) - 2.0395).abs() < 1e-3);
        assert!((student_t_975(10_000) - 1.9602).abs() < 1e-3);
    }

    #[test]
    fn t_interval_needs_two_samples_and_widens() {
        let mut s = Summary::new();
        s.push(1.0);
        assert!(mean_ci95_t(&s).is_none());
        s.push(3.0);
        let two = mean_ci95_t(&s).unwrap();
        // df = 1: half-width = 12.706 * std_err = 12.706 * 1.0.
        assert!((two.half_width() - 12.706).abs() < 1e-9);
        let big: Summary = (0..400).map(|i| (i % 7) as f64).collect();
        let t = mean_ci95_t(&big).unwrap();
        let z = mean_ci95(&big).unwrap();
        assert!((t.half_width() - z.half_width()).abs() / z.half_width() < 0.01);
    }
}
