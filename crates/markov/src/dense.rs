//! Dense row-stochastic transition matrices.

use rand::Rng;

use crate::{MarkovError, ProbDist};

/// Tolerance for "row sums to one" validation.
const ROW_TOL: f64 = 1e-9;

/// A finite Markov chain given by a dense row-stochastic matrix.
///
/// Row `i` holds the distribution of the next state conditioned on the
/// current state `i`. Suitable for the "small hidden chain" analyses of the
/// paper (node chains of random-path models, edge chains of edge-MEGs);
/// large implicit chains (e.g. the discretised waypoint) are simulated
/// directly instead.
///
/// # Examples
///
/// ```
/// use dg_markov::DenseChain;
///
/// // A lazy two-state chain.
/// let chain = DenseChain::from_rows(vec![
///     vec![0.9, 0.1],
///     vec![0.2, 0.8],
/// ]).unwrap();
/// let pi = chain.stationary(1e-12, 10_000).unwrap();
/// assert!((pi.prob(1) - 1.0 / 3.0).abs() < 1e-9);
/// let tmix = chain.mixing_time(0.01, 1 << 20).unwrap();
/// assert!(tmix > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseChain {
    k: usize,
    /// Row-major `k × k` transition probabilities.
    rows: Vec<f64>,
}

impl DenseChain {
    /// Validates and wraps a transition matrix given as rows.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] if any row has the wrong
    /// length, or [`MarkovError::InvalidRow`] if a row has negative or
    /// non-finite entries or does not sum to 1 within `1e-9`.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, MarkovError> {
        let k = rows.len();
        if k == 0 {
            return Err(MarkovError::DimensionMismatch {
                expected: 1,
                found: 0,
            });
        }
        let mut flat = Vec::with_capacity(k * k);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != k {
                return Err(MarkovError::DimensionMismatch {
                    expected: k,
                    found: row.len(),
                });
            }
            if row.iter().any(|&p| !p.is_finite() || p < 0.0) {
                return Err(MarkovError::InvalidRow {
                    row: i,
                    sum: f64::NAN,
                });
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > ROW_TOL {
                return Err(MarkovError::InvalidRow { row: i, sum });
            }
            flat.extend_from_slice(row);
        }
        Ok(DenseChain { k, rows: flat })
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.k
    }

    /// Transition probability `P(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn transition(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.k && j < self.k, "state out of range");
        self.rows[i * self.k + j]
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.k, "state out of range");
        &self.rows[i * self.k..(i + 1) * self.k]
    }

    /// One step of the distribution dynamics: `next = dist · P`.
    ///
    /// # Panics
    ///
    /// Panics if the distribution size differs from the state count.
    pub fn next_dist(&self, dist: &ProbDist) -> ProbDist {
        assert_eq!(dist.len(), self.k, "distribution size mismatch");
        let mut out = vec![0.0; self.k];
        for (i, &pi) in dist.as_slice().iter().enumerate() {
            if pi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (o, &pij) in out.iter_mut().zip(row.iter()) {
                *o += pi * pij;
            }
        }
        ProbDist::new(out).expect("stochastic matrix preserves distributions")
    }

    /// Evolves a distribution `t` steps.
    pub fn evolve(&self, dist: &ProbDist, t: usize) -> ProbDist {
        let mut d = dist.clone();
        for _ in 0..t {
            d = self.next_dist(&d);
        }
        d
    }

    /// Samples the next state from state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sample_next<R: Rng + ?Sized>(&self, i: usize, rng: &mut R) -> usize {
        let row = self.row(i);
        let mut u: f64 = rng.gen();
        for (j, &p) in row.iter().enumerate() {
            if u < p {
                return j;
            }
            u -= p;
        }
        self.k - 1
    }

    /// `true` if every state can reach every other along positive-probability
    /// transitions (strong connectivity of the support digraph).
    pub fn is_irreducible(&self) -> bool {
        self.reaches_all(false) && self.reaches_all(true)
    }

    // Index loops mirror the matrix math; iterators would obscure it.
    #[allow(clippy::needless_range_loop)]
    fn reaches_all(&self, reversed: bool) -> bool {
        let mut seen = vec![false; self.k];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for v in 0..self.k {
                let p = if reversed {
                    self.rows[v * self.k + u]
                } else {
                    self.rows[u * self.k + v]
                };
                if p > 0.0 && !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.k
    }

    /// The period of the chain (gcd of support-digraph cycle lengths through
    /// state 0); `1` means aperiodic. Assumes irreducibility.
    pub fn period(&self) -> usize {
        // BFS levels from state 0; for every support edge (u, v),
        // gcd-accumulate |level(u) + 1 - level(v)|.
        let mut level = vec![usize::MAX; self.k];
        level[0] = 0;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(u) = queue.pop_front() {
            for v in 0..self.k {
                if self.rows[u * self.k + v] > 0.0 && level[v] == usize::MAX {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        let mut g = 0usize;
        for u in 0..self.k {
            if level[u] == usize::MAX {
                continue;
            }
            for v in 0..self.k {
                if self.rows[u * self.k + v] > 0.0 && level[v] != usize::MAX {
                    let diff = (level[u] + 1).abs_diff(level[v]);
                    g = gcd(g, diff);
                }
            }
        }
        if g == 0 {
            1
        } else {
            g
        }
    }

    /// `true` if the chain is ergodic (irreducible and aperiodic).
    pub fn is_ergodic(&self) -> bool {
        self.is_irreducible() && self.period() == 1
    }

    /// The unique stationary distribution, by power iteration on the lazy
    /// chain `(I + P)/2` (same fixed point, guaranteed aperiodic).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::NotErgodic`] if the chain is not irreducible,
    /// or [`MarkovError::NoConvergence`] if `max_iterations` is exhausted
    /// before successive iterates are within `tol` in TV distance.
    pub fn stationary(&self, tol: f64, max_iterations: usize) -> Result<ProbDist, MarkovError> {
        if !self.is_irreducible() {
            return Err(MarkovError::NotErgodic);
        }
        let mut d = ProbDist::uniform(self.k);
        for _ in 0..max_iterations {
            let stepped = self.next_dist(&d);
            // Lazy step: (d + d·P) / 2.
            let lazy: Vec<f64> = d
                .as_slice()
                .iter()
                .zip(stepped.as_slice())
                .map(|(a, b)| 0.5 * (a + b))
                .collect();
            let next = ProbDist::new(lazy).expect("convex combination is a distribution");
            let delta = next.tv_distance(&d);
            d = next;
            if delta <= tol {
                // Polish: the fixed point of the lazy chain is the fixed
                // point of P itself.
                return Ok(d);
            }
        }
        Err(MarkovError::NoConvergence { max_iterations })
    }

    /// Exact worst-case-start mixing time
    /// `t_mix(ε) = min { t : max_x TV(P^t(x,·), π) ≤ ε }`.
    ///
    /// Computed with repeated squaring (`O(k³ log t)`), exploiting that the
    /// worst-case TV distance is non-increasing in `t` for ergodic chains.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::NotErgodic`] for non-ergodic chains, or
    /// [`MarkovError::NoConvergence`] if the distance has not dropped below
    /// `eps` by `max_t` steps.
    pub fn mixing_time(&self, eps: f64, max_t: usize) -> Result<usize, MarkovError> {
        if !self.is_ergodic() {
            return Err(MarkovError::NotErgodic);
        }
        let pi = self.stationary(1e-13, 1_000_000)?;
        if self.worst_tv(&self.identity_matrix(), &pi) <= eps {
            return Ok(0);
        }
        // Doubling phase: cache P^(2^j) until the distance drops below eps.
        let mut powers = vec![self.rows.clone()]; // P^(2^0)
        let mut current = self.rows.clone();
        let mut t = 1usize;
        while self.worst_tv(&current, &pi) > eps {
            if t >= max_t {
                return Err(MarkovError::NoConvergence {
                    max_iterations: max_t,
                });
            }
            current = self.mat_mul(&current, &current);
            t *= 2;
            powers.push(current.clone());
        }
        // Binary search in (t/2, t] using the cached powers.
        let mut lo = t / 2; // worst_tv at lo is known > eps
        let mut hi = t;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let m = self.power_from_cache(&powers, mid);
            if self.worst_tv(&m, &pi) <= eps {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(hi)
    }

    fn identity_matrix(&self) -> Vec<f64> {
        let mut m = vec![0.0; self.k * self.k];
        for i in 0..self.k {
            m[i * self.k + i] = 1.0;
        }
        m
    }

    /// Assembles `P^t` from cached binary powers.
    fn power_from_cache(&self, powers: &[Vec<f64>], t: usize) -> Vec<f64> {
        let mut acc = self.identity_matrix();
        let mut bit = 0;
        let mut rest = t;
        while rest > 0 {
            if rest & 1 == 1 {
                acc = self.mat_mul(&acc, &powers[bit]);
            }
            rest >>= 1;
            bit += 1;
        }
        acc
    }

    /// `max_x TV(M(x,·), π)` for a `k × k` row-stochastic matrix `M`.
    fn worst_tv(&self, m: &[f64], pi: &ProbDist) -> f64 {
        let mut worst: f64 = 0.0;
        for x in 0..self.k {
            let row = &m[x * self.k..(x + 1) * self.k];
            let tv = 0.5
                * row
                    .iter()
                    .zip(pi.as_slice())
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f64>();
            worst = worst.max(tv);
        }
        worst
    }

    fn mat_mul(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let k = self.k;
        let mut c = vec![0.0; k * k];
        for i in 0..k {
            for l in 0..k {
                let ail = a[i * k + l];
                if ail == 0.0 {
                    continue;
                }
                let brow = &b[l * k..(l + 1) * k];
                let crow = &mut c[i * k..(i + 1) * k];
                for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                    *cv += ail * bv;
                }
            }
        }
        c
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lazy_cycle(k: usize) -> DenseChain {
        // Lazy random walk on a k-cycle: stay 1/2, move 1/4 each way.
        let mut rows = vec![vec![0.0; k]; k];
        for (i, row) in rows.iter_mut().enumerate() {
            row[i] = 0.5;
            row[(i + 1) % k] += 0.25;
            row[(i + k - 1) % k] += 0.25;
        }
        DenseChain::from_rows(rows).unwrap()
    }

    #[test]
    fn validation_rejects_bad_rows() {
        assert!(DenseChain::from_rows(vec![]).is_err());
        assert!(DenseChain::from_rows(vec![vec![0.5, 0.4]]).is_err());
        assert!(DenseChain::from_rows(vec![vec![1.0, 0.0], vec![0.5]]).is_err());
        assert!(DenseChain::from_rows(vec![vec![-0.5, 1.5], vec![0.5, 0.5]]).is_err());
    }

    #[test]
    fn stationary_of_lazy_cycle_is_uniform() {
        let c = lazy_cycle(8);
        let pi = c.stationary(1e-12, 100_000).unwrap();
        for &p in pi.as_slice() {
            assert!((p - 0.125).abs() < 1e-8, "p = {p}");
        }
    }

    #[test]
    fn stationary_asymmetric_two_state() {
        let c = DenseChain::from_rows(vec![vec![0.7, 0.3], vec![0.1, 0.9]]).unwrap();
        let pi = c.stationary(1e-13, 100_000).unwrap();
        // pi = (q/(p+q), p/(p+q)) with p=0.3, q=0.1.
        assert!((pi.prob(0) - 0.25).abs() < 1e-9);
        assert!((pi.prob(1) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn stationary_is_fixed_point() {
        let c = lazy_cycle(5);
        let pi = c.stationary(1e-13, 100_000).unwrap();
        let stepped = c.next_dist(&pi);
        assert!(pi.tv_distance(&stepped) < 1e-9);
    }

    #[test]
    fn reducible_chain_rejected() {
        let c = DenseChain::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert!(!c.is_irreducible());
        assert_eq!(c.stationary(1e-9, 1000), Err(MarkovError::NotErgodic));
        assert_eq!(c.mixing_time(0.01, 100), Err(MarkovError::NotErgodic));
    }

    #[test]
    fn periodicity_detected() {
        // Deterministic 2-cycle has period 2.
        let c = DenseChain::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        assert!(c.is_irreducible());
        assert_eq!(c.period(), 2);
        assert!(!c.is_ergodic());
        // Lazy version is aperiodic.
        let lazy = DenseChain::from_rows(vec![vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        assert_eq!(lazy.period(), 1);
        assert!(lazy.is_ergodic());
    }

    #[test]
    fn evolve_point_mass() {
        let c = DenseChain::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let d0 = ProbDist::point(2, 0);
        let d1 = c.evolve(&d0, 1);
        assert_eq!(d1.prob(1), 1.0);
        let d2 = c.evolve(&d0, 2);
        assert_eq!(d2.prob(0), 1.0);
    }

    #[test]
    fn mixing_time_monotone_in_eps() {
        let c = lazy_cycle(8);
        let loose = c.mixing_time(0.25, 1 << 20).unwrap();
        let tight = c.mixing_time(0.01, 1 << 20).unwrap();
        assert!(tight >= loose, "tight {tight} < loose {loose}");
        assert!(loose >= 1);
    }

    #[test]
    fn mixing_time_grows_with_cycle_length() {
        let t8 = lazy_cycle(8).mixing_time(0.05, 1 << 22).unwrap();
        let t16 = lazy_cycle(16).mixing_time(0.05, 1 << 22).unwrap();
        // Mixing of a lazy cycle scales like k²; 16 vs 8 should be ≈ 4x.
        let ratio = t16 as f64 / t8 as f64;
        assert!(ratio > 2.0, "ratio = {ratio}");
    }

    #[test]
    fn mixing_time_definition_holds() {
        // TV at t_mix <= eps and TV at t_mix - 1 > eps.
        let c = lazy_cycle(6);
        let eps = 0.05;
        let t = c.mixing_time(eps, 1 << 20).unwrap();
        let pi = c.stationary(1e-13, 1_000_000).unwrap();
        let worst_at = |steps: usize| -> f64 {
            (0..c.state_count())
                .map(|x| {
                    c.evolve(&ProbDist::point(c.state_count(), x), steps)
                        .tv_distance(&pi)
                })
                .fold(0.0, f64::max)
        };
        assert!(worst_at(t) <= eps + 1e-9);
        assert!(worst_at(t - 1) > eps);
    }

    #[test]
    fn sample_next_respects_row() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let c = DenseChain::from_rows(vec![vec![0.2, 0.8], vec![1.0, 0.0]]).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut ones = 0;
        let trials = 20_000;
        for _ in 0..trials {
            if c.sample_next(0, &mut rng) == 1 {
                ones += 1;
            }
        }
        let freq = ones as f64 / trials as f64;
        assert!((freq - 0.8).abs() < 0.02, "freq = {freq}");
        assert_eq!(c.sample_next(1, &mut rng), 0);
    }
}
