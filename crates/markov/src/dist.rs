//! Validated probability distributions over `0..k`.

use rand::Rng;

use crate::MarkovError;

/// Tolerance for "sums to one" validation.
const SUM_TOL: f64 = 1e-9;

/// A probability distribution over states `0..k`, validated at
/// construction.
///
/// # Examples
///
/// ```
/// use dg_markov::ProbDist;
///
/// let p = ProbDist::new(vec![0.25, 0.75]).unwrap();
/// let q = ProbDist::uniform(2);
/// assert!((p.tv_distance(&q) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProbDist {
    probs: Vec<f64>,
}

impl ProbDist {
    /// Validates and wraps a probability vector.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidDistribution`] if the vector is empty,
    /// has negative/non-finite entries, or does not sum to 1 within
    /// tolerance `1e-9`.
    pub fn new(probs: Vec<f64>) -> Result<Self, MarkovError> {
        if probs.is_empty() || probs.iter().any(|&p| !p.is_finite() || p < 0.0) {
            return Err(MarkovError::InvalidDistribution { sum: f64::NAN });
        }
        let sum: f64 = probs.iter().sum();
        if (sum - 1.0).abs() > SUM_TOL {
            return Err(MarkovError::InvalidDistribution { sum });
        }
        Ok(ProbDist { probs })
    }

    /// The uniform distribution over `k` states.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn uniform(k: usize) -> Self {
        assert!(k > 0, "need at least one state");
        ProbDist {
            probs: vec![1.0 / k as f64; k],
        }
    }

    /// The point mass at `state` among `k` states.
    ///
    /// # Panics
    ///
    /// Panics if `state >= k`.
    pub fn point(k: usize, state: usize) -> Self {
        assert!(state < k, "state out of range");
        let mut probs = vec![0.0; k];
        probs[state] = 1.0;
        ProbDist { probs }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` if there are no states (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// The raw probabilities.
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }

    /// Probability of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn prob(&self, state: usize) -> f64 {
        self.probs[state]
    }

    /// Total-variation distance `½ Σ |p_i − q_i|`.
    ///
    /// # Panics
    ///
    /// Panics if the supports have different sizes.
    pub fn tv_distance(&self, other: &ProbDist) -> f64 {
        assert_eq!(self.len(), other.len(), "distributions must match in size");
        0.5 * self
            .probs
            .iter()
            .zip(other.probs.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    }

    /// Samples a state by inverse-CDF (linear scan; use
    /// [`crate::samplers`] for repeated sampling).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut u: f64 = rng.gen();
        for (i, &p) in self.probs.iter().enumerate() {
            if u < p {
                return i;
            }
            u -= p;
        }
        self.probs.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn validation() {
        assert!(ProbDist::new(vec![]).is_err());
        assert!(ProbDist::new(vec![0.5, 0.6]).is_err());
        assert!(ProbDist::new(vec![-0.1, 1.1]).is_err());
        assert!(ProbDist::new(vec![f64::NAN, 1.0]).is_err());
        assert!(ProbDist::new(vec![0.5, 0.5]).is_ok());
    }

    #[test]
    fn uniform_and_point() {
        let u = ProbDist::uniform(4);
        assert_eq!(u.prob(2), 0.25);
        let p = ProbDist::point(4, 1);
        assert_eq!(p.prob(1), 1.0);
        assert_eq!(p.prob(0), 0.0);
        assert!((u.tv_distance(&p) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tv_properties() {
        let a = ProbDist::new(vec![0.2, 0.8]).unwrap();
        let b = ProbDist::new(vec![0.7, 0.3]).unwrap();
        assert_eq!(a.tv_distance(&a), 0.0);
        assert!((a.tv_distance(&b) - b.tv_distance(&a)).abs() < 1e-15);
        assert!((a.tv_distance(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampling_frequencies() {
        let d = ProbDist::new(vec![0.1, 0.6, 0.3]).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        let trials = 30_000;
        for _ in 0..trials {
            counts[d.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / trials as f64;
            assert!(
                (freq - d.prob(i)).abs() < 0.02,
                "state {i}: freq {freq} vs prob {}",
                d.prob(i)
            );
        }
    }

    #[test]
    #[should_panic(expected = "must match in size")]
    fn tv_mismatched_sizes_panics() {
        let a = ProbDist::uniform(2);
        let b = ProbDist::uniform(3);
        let _ = a.tv_distance(&b);
    }
}
