//! The two-state birth/death chain of the basic edge-MEG, in closed form.

use crate::{DenseChain, MarkovError};

/// The two-state (off/on) Markov chain of Appendix A: an absent edge is
/// born with probability `p` per step; a present edge dies with
/// probability `q` per step.
///
/// State 0 = off, state 1 = on. Closed forms:
/// * stationary on-probability `π_on = p / (p + q)`;
/// * second eigenvalue `λ = 1 − p − q`, so the worst-case TV distance at
///   time `t` is `max(π_on, π_off) · |λ|^t` and
///   `T_mix = Θ(1/(p + q))` as the paper states.
///
/// # Examples
///
/// ```
/// use dg_markov::TwoStateChain;
///
/// let c = TwoStateChain::new(0.1, 0.3).unwrap();
/// assert!((c.stationary_on() - 0.25).abs() < 1e-12);
/// assert_eq!(c.to_dense().state_count(), 2);
/// assert!(c.mixing_time(0.01).unwrap() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoStateChain {
    birth: f64,
    death: f64,
}

impl TwoStateChain {
    /// Creates the chain with birth rate `p` and death rate `q`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::ParameterOutOfRange`] unless both rates are
    /// in `[0, 1]`, and [`MarkovError::NotErgodic`] when `p + q = 0` or
    /// `p = q = 1` (a frozen or perfectly periodic chain).
    pub fn new(birth: f64, death: f64) -> Result<Self, MarkovError> {
        for (name, value) in [("birth", birth), ("death", death)] {
            if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                return Err(MarkovError::ParameterOutOfRange { name, value });
            }
        }
        if birth + death == 0.0 || (birth == 1.0 && death == 1.0) {
            return Err(MarkovError::NotErgodic);
        }
        Ok(TwoStateChain { birth, death })
    }

    /// Birth rate `p` (off → on probability).
    pub fn birth(&self) -> f64 {
        self.birth
    }

    /// Death rate `q` (on → off probability).
    pub fn death(&self) -> f64 {
        self.death
    }

    /// Stationary on-probability `p / (p + q)` — the edge density `α` of
    /// the stationary edge-MEG.
    pub fn stationary_on(&self) -> f64 {
        self.birth / (self.birth + self.death)
    }

    /// The second eigenvalue `λ = 1 − p − q` governing convergence.
    pub fn second_eigenvalue(&self) -> f64 {
        1.0 - self.birth - self.death
    }

    /// Worst-case total-variation distance from stationarity after `t`
    /// steps: `max(π_on, π_off) · |λ|^t`.
    pub fn worst_tv_at(&self, t: u32) -> f64 {
        let pi_on = self.stationary_on();
        pi_on.max(1.0 - pi_on) * self.second_eigenvalue().abs().powi(t as i32)
    }

    /// Closed-form mixing time `min { t : worst-case TV ≤ eps }`.
    ///
    /// Returns `None` when `λ = 0` never happens to need a step (i.e. the
    /// chain mixes in one step, in which case `Some(1)` is returned) — in
    /// practice always `Some`.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1)`.
    pub fn mixing_time(&self, eps: f64) -> Option<usize> {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
        let lambda = self.second_eigenvalue().abs();
        if self.worst_tv_at(0) <= eps {
            return Some(0);
        }
        if lambda == 0.0 {
            return Some(1);
        }
        let pi_max = self.stationary_on().max(1.0 - self.stationary_on());
        // Smallest t with pi_max * lambda^t <= eps.
        let t = ((eps / pi_max).ln() / lambda.ln()).ceil();
        Some(t.max(1.0) as usize)
    }

    /// The equivalent [`DenseChain`] (state 0 = off, state 1 = on).
    pub fn to_dense(&self) -> DenseChain {
        DenseChain::from_rows(vec![
            vec![1.0 - self.birth, self.birth],
            vec![self.death, 1.0 - self.death],
        ])
        .expect("two-state rows are stochastic by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_validation() {
        assert!(TwoStateChain::new(-0.1, 0.5).is_err());
        assert!(TwoStateChain::new(0.5, 1.5).is_err());
        assert!(TwoStateChain::new(0.0, 0.0).is_err());
        assert!(TwoStateChain::new(1.0, 1.0).is_err());
        assert!(TwoStateChain::new(0.0, 0.5).is_ok()); // absorbing off is still ergodic-ish: p=0 => chain converges to off
    }

    #[test]
    fn stationary_matches_dense() {
        let c = TwoStateChain::new(0.15, 0.45).unwrap();
        let pi = c.to_dense().stationary(1e-13, 1_000_000).unwrap();
        assert!((pi.prob(1) - c.stationary_on()).abs() < 1e-9);
    }

    #[test]
    fn closed_form_mixing_matches_dense() {
        let c = TwoStateChain::new(0.05, 0.1).unwrap();
        let closed = c.mixing_time(0.01).unwrap();
        let exact = c.to_dense().mixing_time(0.01, 1 << 20).unwrap();
        // The closed form is exactly the dense computation up to rounding.
        assert!(
            (closed as i64 - exact as i64).abs() <= 1,
            "closed {closed} vs exact {exact}"
        );
    }

    #[test]
    fn mixing_scales_inverse_p_plus_q() {
        let fast = TwoStateChain::new(0.2, 0.2).unwrap();
        let slow = TwoStateChain::new(0.02, 0.02).unwrap();
        let tf = fast.mixing_time(0.01).unwrap() as f64;
        let ts = slow.mixing_time(0.01).unwrap() as f64;
        // The exact rate is 1/ln(1/λ) which approaches 1/(p+q) only for
        // small rates; allow generous slack around the 10x prediction.
        let ratio = ts / tf;
        assert!(ratio > 5.0 && ratio < 20.0, "ratio = {ratio}");
    }

    #[test]
    fn tv_decays_geometrically() {
        let c = TwoStateChain::new(0.3, 0.2).unwrap();
        assert!(c.worst_tv_at(0) > c.worst_tv_at(1));
        assert!(c.worst_tv_at(1) > c.worst_tv_at(5));
        let lambda = c.second_eigenvalue().abs();
        assert!((c.worst_tv_at(3) / c.worst_tv_at(2) - lambda).abs() < 1e-12);
    }

    #[test]
    fn instant_mixing_when_lambda_zero() {
        let c = TwoStateChain::new(0.5, 0.5).unwrap();
        assert_eq!(c.second_eigenvalue(), 0.0);
        assert_eq!(c.mixing_time(0.01), Some(1));
    }
}
