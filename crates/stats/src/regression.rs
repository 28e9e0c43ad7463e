//! Ordinary least-squares line fitting, with a log–log helper for
//! extracting empirical scaling exponents.

/// Result of an ordinary least-squares fit `y ≈ slope · x + intercept`.
///
/// # Examples
///
/// ```
/// use dg_stats::LinearFit;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// let ys = [3.0, 5.0, 7.0, 9.0];
/// let fit = LinearFit::fit(&xs, &ys).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// assert!(fit.r2 > 0.9999);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (1 for a constant target).
    pub r2: f64,
}

impl LinearFit {
    /// Fits a line by ordinary least squares.
    ///
    /// Returns `None` when fewer than two points are given, when lengths
    /// mismatch, when any value is non-finite, or when all `x` are equal.
    pub fn fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
        if xs.len() != ys.len() || xs.len() < 2 {
            return None;
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return None;
        }
        let n = xs.len() as f64;
        let mean_x = xs.iter().sum::<f64>() / n;
        let mean_y = ys.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            let dx = x - mean_x;
            let dy = y - mean_y;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
        }
        if sxx == 0.0 {
            return None;
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        let r2 = if syy == 0.0 {
            1.0
        } else {
            (sxy * sxy) / (sxx * syy)
        };
        Some(LinearFit {
            slope,
            intercept,
            r2,
        })
    }

    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Fits `log y ≈ slope · log x + c`, i.e. extracts the exponent of a power
/// law `y ∝ x^slope`.
///
/// Returns `None` under the same conditions as [`LinearFit::fit`], or when
/// any input is non-positive (logs must exist).
///
/// # Examples
///
/// ```
/// use dg_stats::log_log_fit;
///
/// // y = 3 * x^2
/// let xs = [1.0, 2.0, 4.0, 8.0];
/// let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x * x).collect();
/// let fit = log_log_fit(&xs, &ys).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-9);
/// ```
pub fn log_log_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    if xs.iter().chain(ys.iter()).any(|&v| v <= 0.0) {
        return None;
    }
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    LinearFit::fit(&lx, &ly)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [1.0, 3.0, 5.0];
        let f = LinearFit::fit(&xs, &ys).unwrap();
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
        assert!((f.predict(10.0) - 21.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(LinearFit::fit(&[1.0], &[1.0]).is_none());
        assert!(LinearFit::fit(&[1.0, 1.0], &[1.0, 2.0]).is_none());
        assert!(LinearFit::fit(&[1.0, 2.0], &[1.0]).is_none());
        assert!(LinearFit::fit(&[1.0, f64::NAN], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn constant_target_r2_is_one() {
        let f = LinearFit::fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r2, 1.0);
    }

    #[test]
    fn noisy_r2_below_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, 3.0, 2.0, 4.0];
        let f = LinearFit::fit(&xs, &ys).unwrap();
        assert!(f.r2 < 1.0);
        assert!(f.r2 > 0.0);
    }

    #[test]
    fn log_log_sqrt_exponent() {
        let xs = [16.0, 64.0, 256.0, 1024.0];
        let ys: Vec<f64> = xs.iter().map(|x: &f64| 7.0 * x.sqrt()).collect();
        let f = log_log_fit(&xs, &ys).unwrap();
        assert!((f.slope - 0.5).abs() < 1e-9);
    }

    #[test]
    fn log_log_rejects_nonpositive() {
        assert!(log_log_fit(&[1.0, 0.0], &[1.0, 1.0]).is_none());
        assert!(log_log_fit(&[1.0, 2.0], &[-1.0, 1.0]).is_none());
    }
}
