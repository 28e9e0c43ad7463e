//! Spectral analysis of reversible chains: spectral gap and relaxation
//! time.
//!
//! The mixing-time bounds the paper imports (\[1\], Aldous–Fill) are
//! usually proved through the relaxation time `1/γ` where
//! `γ = 1 − λ₂` is the spectral gap. For reversible chains we compute
//! `λ₂` by power iteration on the similarity-symmetrized kernel
//! `S = D^{1/2} P D^{-1/2}` (with `D = diag(π)`), deflating the known top
//! eigenvector `√π`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{DenseChain, MarkovError, ProbDist};

/// Spectral summary of a reversible ergodic chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spectrum {
    /// Second-largest eigenvalue magnitude `λ*` of the chain.
    pub lambda_star: f64,
    /// Spectral gap `γ = 1 − λ*`.
    pub gap: f64,
    /// Relaxation time `1/γ` (`inf` when the gap vanishes numerically).
    pub relaxation_time: f64,
}

/// `true` if the chain is reversible w.r.t. `pi` (detailed balance
/// `π(i)P(i,j) = π(j)P(j,i)` within tolerance).
pub fn is_reversible(chain: &DenseChain, pi: &ProbDist, tol: f64) -> bool {
    let k = chain.state_count();
    if pi.len() != k {
        return false;
    }
    for i in 0..k {
        for j in (i + 1)..k {
            let forward = pi.prob(i) * chain.transition(i, j);
            let backward = pi.prob(j) * chain.transition(j, i);
            if (forward - backward).abs() > tol * (forward + backward).max(1e-300) {
                return false;
            }
        }
    }
    true
}

/// Computes the spectral gap of a **reversible** ergodic chain by power
/// iteration with deflation of the top eigenvector.
///
/// # Errors
///
/// Returns [`MarkovError::NotErgodic`] for non-ergodic chains and
/// [`MarkovError::InvalidDistribution`] when the chain is not reversible
/// w.r.t. its stationary distribution (the symmetrization would be
/// invalid), or [`MarkovError::NoConvergence`] if power iteration fails
/// to settle within `max_iterations`.
///
/// # Examples
///
/// ```
/// use dg_markov::{spectral, TwoStateChain};
///
/// // Two-state chain: the exact gap is p + q.
/// let c = TwoStateChain::new(0.2, 0.3).unwrap();
/// let s = spectral::spectrum(&c.to_dense(), 1e-10, 100_000).unwrap();
/// assert!((s.gap - 0.5).abs() < 1e-6);
/// ```
pub fn spectrum(
    chain: &DenseChain,
    tol: f64,
    max_iterations: usize,
) -> Result<Spectrum, MarkovError> {
    if !chain.is_ergodic() {
        return Err(MarkovError::NotErgodic);
    }
    let pi = chain.stationary(1e-13, 1_000_000)?;
    if !is_reversible(chain, &pi, 1e-8) {
        return Err(MarkovError::InvalidDistribution { sum: f64::NAN });
    }
    let k = chain.state_count();
    // Top eigenvector of S = D^{1/2} P D^{-1/2} is v1 = sqrt(pi).
    let v1: Vec<f64> = (0..k).map(|i| pi.prob(i).sqrt()).collect();
    // S(i, j) = sqrt(pi_i) P(i, j) / sqrt(pi_j).
    let apply_s = |x: &[f64], out: &mut [f64]| {
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                let s_ij = v1[i] * chain.transition(i, j) / v1[j];
                acc += s_ij * xj;
            }
            *o = acc;
        }
    };
    // Power iteration on the deflated operator S - v1 v1^T.
    let mut rng = SmallRng::seed_from_u64(0x5BEC);
    let mut x: Vec<f64> = (0..k).map(|_| rng.gen::<f64>() - 0.5).collect();
    deflate(&mut x, &v1);
    normalize(&mut x);
    let mut out = vec![0.0; k];
    let mut lambda = 0.0f64;
    for _ in 0..max_iterations {
        apply_s(&x, &mut out);
        deflate(&mut out, &v1);
        let norm = out.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-300 {
            // The deflated operator annihilates everything: gap = 1.
            return Ok(Spectrum {
                lambda_star: 0.0,
                gap: 1.0,
                relaxation_time: 1.0,
            });
        }
        for (xi, oi) in x.iter_mut().zip(&out) {
            *xi = oi / norm;
        }
        // The power iteration converges on |lambda_2|; the Rayleigh
        // quotient gives a signed estimate whose magnitude we track.
        let new_lambda = norm;
        if (new_lambda - lambda).abs() <= tol * new_lambda.max(1e-12) {
            let lambda_star = new_lambda.min(1.0);
            return Ok(Spectrum {
                lambda_star,
                gap: 1.0 - lambda_star,
                relaxation_time: if lambda_star < 1.0 {
                    1.0 / (1.0 - lambda_star)
                } else {
                    f64::INFINITY
                },
            });
        }
        lambda = new_lambda;
    }
    Err(MarkovError::NoConvergence { max_iterations })
}

fn deflate(x: &mut [f64], v1: &[f64]) {
    let dot: f64 = x.iter().zip(v1).map(|(a, b)| a * b).sum();
    for (xi, &vi) in x.iter_mut().zip(v1) {
        *xi -= dot * vi;
    }
}

fn normalize(x: &mut [f64]) {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{random_walk_chain, TwoStateChain};

    #[test]
    fn two_state_gap_exact() {
        for (p, q) in [(0.1, 0.2), (0.3, 0.3), (0.05, 0.6)] {
            let c = TwoStateChain::new(p, q).unwrap().to_dense();
            let s = spectrum(&c, 1e-11, 200_000).unwrap();
            assert!(
                (s.gap - (p + q)).abs() < 1e-5,
                "p={p} q={q}: gap {} vs {}",
                s.gap,
                p + q
            );
        }
    }

    #[test]
    fn complete_graph_walk_gap() {
        // Lazy walk on K_k: P = 1/2 I + 1/2 W; W has lambda_2 = -1/(k-1),
        // so the lazy chain's lambda_2 = 1/2 - 1/(2(k-1)).
        let k = 6;
        let g = dg_graph::generators::complete(k);
        let chain = random_walk_chain(&g, 0.5).unwrap();
        let s = spectrum(&chain, 1e-11, 200_000).unwrap();
        let expected = 0.5 - 0.5 / (k as f64 - 1.0);
        assert!(
            (s.lambda_star - expected).abs() < 1e-5,
            "lambda {} vs {expected}",
            s.lambda_star
        );
    }

    #[test]
    fn relaxation_tracks_mixing_on_cycles() {
        // Relaxation time and exact mixing time scale together on cycles.
        let t = |k: usize| {
            let g = dg_graph::generators::cycle(k);
            let chain = random_walk_chain(&g, 0.5).unwrap();
            let s = spectrum(&chain, 1e-10, 500_000).unwrap();
            let mix = chain.mixing_time(0.25, 1 << 22).unwrap();
            (s.relaxation_time, mix as f64)
        };
        let (rel8, mix8) = t(8);
        let (rel16, mix16) = t(16);
        let rel_ratio = rel16 / rel8;
        let mix_ratio = mix16 / mix8;
        assert!(
            (rel_ratio / mix_ratio - 1.0).abs() < 0.5,
            "relaxation ratio {rel_ratio} vs mixing ratio {mix_ratio}"
        );
    }

    #[test]
    fn non_reversible_rejected() {
        // A biased 3-cycle is irreducible + aperiodic but not reversible.
        let chain = DenseChain::from_rows(vec![
            vec![0.1, 0.8, 0.1],
            vec![0.1, 0.1, 0.8],
            vec![0.8, 0.1, 0.1],
        ])
        .unwrap();
        assert!(chain.is_ergodic());
        assert!(matches!(
            spectrum(&chain, 1e-9, 100_000),
            Err(MarkovError::InvalidDistribution { .. })
        ));
    }

    #[test]
    fn non_ergodic_rejected() {
        let chain = DenseChain::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            spectrum(&chain, 1e-9, 1000),
            Err(MarkovError::NotErgodic)
        ));
    }

    #[test]
    fn reversibility_checker() {
        let c = TwoStateChain::new(0.2, 0.4).unwrap().to_dense();
        let pi = c.stationary(1e-13, 100_000).unwrap();
        assert!(is_reversible(&c, &pi, 1e-8));
        let biased = DenseChain::from_rows(vec![
            vec![0.1, 0.8, 0.1],
            vec![0.1, 0.1, 0.8],
            vec![0.8, 0.1, 0.1],
        ])
        .unwrap();
        let pi2 = biased.stationary(1e-13, 100_000).unwrap();
        assert!(!is_reversible(&biased, &pi2, 1e-8));
    }
}
