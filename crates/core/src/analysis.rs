//! Growth-curve analytics for the phase structure of the flooding proof.
//!
//! The proof of Theorem 1 splits flooding into a **spreading phase**
//! (Lemma 13: `|I_t|` doubles every `O((1/(nα) + β)² log n)` epochs until
//! it reaches `n/2`) and a **saturation phase** (Lemma 14: the remaining
//! half is informed within `O((1/(nα) + β) log n)` epochs). This module
//! extracts those phases from measured growth curves.

use crate::flooding::FloodRun;

/// A growth curve `|I_t|` with phase analytics.
///
/// # Examples
///
/// ```
/// use dynagraph::analysis::GrowthCurve;
///
/// let curve = GrowthCurve::new(vec![1, 2, 4, 8, 16], 16);
/// assert_eq!(curve.time_to_fraction(0.5), Some(3));
/// assert_eq!(curve.completion_time(), Some(4));
/// assert_eq!(curve.doubling_rounds(), vec![1, 2, 3, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrowthCurve {
    sizes: Vec<u32>,
    node_count: usize,
}

impl GrowthCurve {
    /// Wraps a growth curve; `sizes[t] = |I_t|`.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty or not monotone non-decreasing.
    pub fn new(sizes: Vec<u32>, node_count: usize) -> Self {
        assert!(!sizes.is_empty(), "growth curve cannot be empty");
        assert!(
            sizes.windows(2).all(|w| w[0] <= w[1]),
            "informed sets are monotone"
        );
        GrowthCurve { sizes, node_count }
    }

    /// Extracts the growth curve of a [`FloodRun`] over `n` nodes.
    pub fn from_run(run: &FloodRun, node_count: usize) -> Self {
        Self::new(run.sizes().to_vec(), node_count)
    }

    /// The raw sizes.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// First round `t` with `|I_t| >= frac · n`; `None` if never reached.
    pub fn time_to_fraction(&self, frac: f64) -> Option<u32> {
        let target = (frac * self.node_count as f64).ceil() as u32;
        self.sizes
            .iter()
            .position(|&s| s >= target)
            .map(|t| t as u32)
    }

    /// First round with everyone informed; `None` if the curve is
    /// incomplete.
    pub fn completion_time(&self) -> Option<u32> {
        self.time_to_fraction(1.0)
    }

    /// End of the spreading phase: first round with `|I_t| >= n/2`.
    pub fn spreading_phase_end(&self) -> Option<u32> {
        self.time_to_fraction(0.5)
    }

    /// Length of the saturation phase: completion minus the spreading-phase
    /// end. `None` if the curve is incomplete.
    pub fn saturation_phase_len(&self) -> Option<u32> {
        Some(self.completion_time()? - self.spreading_phase_end()?)
    }

    /// For each power of two `2^k <= n`, the first round where
    /// `|I_t| >= 2^k` (skipping `2^0`, reached at round 0). Lemma 13
    /// predicts consecutive entries at most `O((1/(nα)+β)² log n)` apart
    /// while `|I_t| <= n/2`.
    pub fn doubling_rounds(&self) -> Vec<u32> {
        let mut rounds = Vec::new();
        let mut target = 2u64;
        while target <= self.node_count as u64 {
            match self.sizes.iter().position(|&s| s as u64 >= target) {
                Some(t) => rounds.push(t as u32),
                None => break,
            }
            target *= 2;
        }
        rounds
    }

    /// Largest gap between consecutive doubling rounds within the
    /// spreading phase (targets up to `n/2`); `None` when fewer than two
    /// doublings happened.
    pub fn max_doubling_gap(&self) -> Option<u32> {
        let rounds = self.doubling_rounds();
        let half = self.node_count as u64 / 2;
        if half < 2 {
            return None;
        }
        // Keep targets 2^k <= n/2 (the regime of Lemma 13): entries for
        // k = 1 ..= floor(log2(n/2)), i.e. the first floor(log2(n/2)).
        let keep = half.ilog2() as usize;
        let rounds = &rounds[..rounds.len().min(keep)];
        if rounds.len() < 2 {
            return None;
        }
        rounds.windows(2).map(|w| w[1] - w[0]).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flooding::flood;
    use crate::StaticEvolvingGraph;
    use dg_graph::generators;

    #[test]
    fn fractions_on_exponential_curve() {
        let c = GrowthCurve::new(vec![1, 2, 4, 8, 16, 32], 32);
        assert_eq!(c.time_to_fraction(0.25), Some(3));
        assert_eq!(c.spreading_phase_end(), Some(4));
        assert_eq!(c.completion_time(), Some(5));
        assert_eq!(c.saturation_phase_len(), Some(1));
    }

    #[test]
    fn doubling_rounds_exponential() {
        let c = GrowthCurve::new(vec![1, 2, 4, 8, 16], 16);
        assert_eq!(c.doubling_rounds(), vec![1, 2, 3, 4]);
        assert_eq!(c.max_doubling_gap(), Some(1));
    }

    #[test]
    fn slow_linear_curve() {
        let c = GrowthCurve::new(vec![1, 2, 3, 4, 5, 6, 7, 8], 8);
        assert_eq!(c.doubling_rounds(), vec![1, 3, 7]);
        // Spreading-phase targets: 2 and 4 (n/2); gap 3 - 1 = 2.
        assert_eq!(c.max_doubling_gap(), Some(2));
    }

    #[test]
    fn incomplete_curve() {
        let c = GrowthCurve::new(vec![1, 1, 2], 10);
        assert_eq!(c.completion_time(), None);
        assert_eq!(c.saturation_phase_len(), None);
        assert_eq!(c.doubling_rounds(), vec![2]);
        assert_eq!(c.max_doubling_gap(), None);
    }

    #[test]
    fn from_run_matches() {
        let mut g = StaticEvolvingGraph::new(generators::complete(6));
        let run = flood(&mut g, 0, 10);
        let c = GrowthCurve::from_run(&run, 6);
        assert_eq!(c.sizes(), run.sizes());
        assert_eq!(c.completion_time(), Some(1));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_rejected() {
        let _ = GrowthCurve::new(vec![3, 2], 4);
    }
}
