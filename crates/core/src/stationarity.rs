//! Empirical estimation of the `(M, α, β)`-stationarity parameters of §3.
//!
//! A dynamic graph is `(M, α, β)`-stationary when, at every epoch boundary
//! `τM` and regardless of the past:
//!
//! 1. **Density:** `P(e_{i,j}^{τM}) >= α` for every pair `{i, j}`;
//! 2. **β-independence:**
//!    `P(e_{i,A}·e_{j,A}) <= β · P(e_{i,A}) · P(e_{j,A})` for all `i, j`
//!    and `A ⊆ [n] − {i, j}`.
//!
//! These conditions cannot be verified exhaustively by simulation (they
//! quantify over all subsets), but they can be *probed*: we sample random
//! pairs `(i, j)` and random triples `(i, j, A)`, observe the process at
//! epoch boundaries across many independent runs, and report the worst
//! ratios seen. The estimates feed Theorem 1 directly (experiment T11).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{mix_seed, EvolvingGraph, Snapshot};

/// Configuration for the `(α, β)` estimator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlphaBetaConfig {
    /// Epoch length `M`: rounds between observed snapshots.
    pub epoch: usize,
    /// Warm-up rounds before the first observation (approach
    /// stationarity).
    pub warm_up: usize,
    /// Observations (epoch boundaries) per run.
    pub observations: usize,
    /// Independent runs.
    pub runs: usize,
    /// Number of random node pairs probed for the density condition.
    pub pair_samples: usize,
    /// Number of random `(i, j, A)` triples probed for β-independence.
    pub set_samples: usize,
    /// Size of each sampled set `A`.
    pub set_size: usize,
    /// Base seed for both the probe choice and the runs.
    pub base_seed: u64,
}

impl Default for AlphaBetaConfig {
    fn default() -> Self {
        AlphaBetaConfig {
            epoch: 1,
            warm_up: 0,
            observations: 200,
            runs: 8,
            pair_samples: 16,
            set_samples: 16,
            set_size: 4,
            base_seed: 0xA1FA_BE7A,
        }
    }
}

/// Empirical `(α, β)` estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaBetaEstimate {
    /// Minimum edge probability over probed pairs — the empirical `α`.
    pub alpha_min: f64,
    /// Mean edge probability over probed pairs.
    pub alpha_mean: f64,
    /// Maximum independence ratio over probed triples — the empirical `β`.
    /// `NaN` when no triple produced both marginals positive.
    pub beta_max: f64,
    /// Mean independence ratio over probed triples with positive marginals.
    pub beta_mean: f64,
    /// Total epoch-boundary observations used.
    pub observations: usize,
}

struct PairProbe {
    i: u32,
    j: u32,
    hits: u64,
}

struct SetProbe {
    i: u32,
    j: u32,
    set: Vec<u32>,
    i_hits: u64,
    j_hits: u64,
    both_hits: u64,
}

fn connected_to_set(snap: &Snapshot, node: u32, set: &[u32]) -> bool {
    set.iter().any(|&a| snap.has_edge(node, a))
}

/// Estimates `(α, β)` by Monte-Carlo probing at epoch boundaries.
///
/// `make(seed)` constructs a fresh seeded process. Probes (pairs and
/// triples) are drawn once from `cfg.base_seed` and shared across runs, so
/// counts accumulate per probe.
///
/// # Panics
///
/// Panics if the process has fewer than `cfg.set_size + 2` nodes, or if
/// any count in the config is zero.
///
/// # Examples
///
/// ```
/// use dynagraph::stationarity::{estimate_alpha_beta, AlphaBetaConfig};
/// use dynagraph::{StaticEvolvingGraph, ThinnedEvolvingGraph};
/// use dg_graph::generators;
///
/// // Complete graph thinned at 0.5: every edge appears independently with
/// // probability 1/2 => alpha ≈ 0.5, beta ≈ 1.
/// let cfg = AlphaBetaConfig { observations: 400, runs: 2, ..AlphaBetaConfig::default() };
/// let est = estimate_alpha_beta(
///     |seed| ThinnedEvolvingGraph::new(
///         StaticEvolvingGraph::new(generators::complete(16)), 0.5, seed,
///     ).unwrap(),
///     16,
///     &cfg,
/// );
/// assert!((est.alpha_mean - 0.5).abs() < 0.1);
/// assert!(est.beta_max < 2.0);
/// ```
pub fn estimate_alpha_beta<G, F>(make: F, n: usize, cfg: &AlphaBetaConfig) -> AlphaBetaEstimate
where
    G: EvolvingGraph,
    F: Fn(u64) -> G + Sync,
{
    assert!(
        cfg.epoch > 0 && cfg.observations > 0 && cfg.runs > 0,
        "counts must be positive"
    );
    assert!(cfg.pair_samples > 0 && cfg.set_samples > 0 && cfg.set_size > 0);
    assert!(
        n >= cfg.set_size + 2,
        "need at least set_size + 2 nodes to sample disjoint probes"
    );
    let mut probe_rng = SmallRng::seed_from_u64(mix_seed(cfg.base_seed, 0xBEEF));
    let mut pairs: Vec<PairProbe> = (0..cfg.pair_samples)
        .map(|_| {
            let i = probe_rng.gen_range(0..n as u32);
            let mut j = probe_rng.gen_range(0..n as u32);
            while j == i {
                j = probe_rng.gen_range(0..n as u32);
            }
            PairProbe { i, j, hits: 0 }
        })
        .collect();
    let mut sets: Vec<SetProbe> = (0..cfg.set_samples)
        .map(|_| {
            // Sample i, j, and a disjoint A by shuffling a prefix.
            let mut nodes: Vec<u32> = (0..n as u32).collect();
            for k in 0..(cfg.set_size + 2) {
                let l = probe_rng.gen_range(k..n);
                nodes.swap(k, l);
            }
            SetProbe {
                i: nodes[0],
                j: nodes[1],
                set: nodes[2..cfg.set_size + 2].to_vec(),
                i_hits: 0,
                j_hits: 0,
                both_hits: 0,
            }
        })
        .collect();

    for run in 0..cfg.runs {
        let seed = mix_seed(cfg.base_seed, 1 + run as u64);
        let mut g = make(seed);
        assert_eq!(g.node_count(), n, "process size must match n");
        g.warm_up(cfg.warm_up);
        for obs in 0..cfg.observations {
            if obs > 0 || cfg.epoch > 1 {
                g.warm_up(cfg.epoch - 1);
            }
            let snap = g.step();
            for p in &mut pairs {
                if snap.has_edge(p.i, p.j) {
                    p.hits += 1;
                }
            }
            for s in &mut sets {
                let ei = connected_to_set(snap, s.i, &s.set);
                let ej = connected_to_set(snap, s.j, &s.set);
                if ei {
                    s.i_hits += 1;
                }
                if ej {
                    s.j_hits += 1;
                }
                if ei && ej {
                    s.both_hits += 1;
                }
            }
        }
    }

    let total = (cfg.runs * cfg.observations) as f64;
    let alpha_probs: Vec<f64> = pairs.iter().map(|p| p.hits as f64 / total).collect();
    let alpha_min = alpha_probs.iter().copied().fold(f64::INFINITY, f64::min);
    let alpha_mean = alpha_probs.iter().sum::<f64>() / alpha_probs.len() as f64;

    let mut beta_max = f64::NAN;
    let mut beta_sum = 0.0;
    let mut beta_count = 0usize;
    for s in &sets {
        if s.i_hits == 0 || s.j_hits == 0 {
            continue;
        }
        let pi = s.i_hits as f64 / total;
        let pj = s.j_hits as f64 / total;
        let pboth = s.both_hits as f64 / total;
        let ratio = pboth / (pi * pj);
        beta_sum += ratio;
        beta_count += 1;
        if beta_max.is_nan() || ratio > beta_max {
            beta_max = ratio;
        }
    }
    let beta_mean = if beta_count == 0 {
        f64::NAN
    } else {
        beta_sum / beta_count as f64
    };

    AlphaBetaEstimate {
        alpha_min,
        alpha_mean,
        beta_max,
        beta_mean,
        observations: cfg.runs * cfg.observations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StaticEvolvingGraph, ThinnedEvolvingGraph};
    use dg_graph::generators;

    #[test]
    fn independent_edges_beta_near_one() {
        let cfg = AlphaBetaConfig {
            observations: 500,
            runs: 4,
            pair_samples: 10,
            set_samples: 10,
            set_size: 3,
            ..AlphaBetaConfig::default()
        };
        let est = estimate_alpha_beta(
            |seed| {
                ThinnedEvolvingGraph::new(
                    StaticEvolvingGraph::new(generators::complete(20)),
                    0.3,
                    seed,
                )
                .unwrap()
            },
            20,
            &cfg,
        );
        assert!(
            (est.alpha_mean - 0.3).abs() < 0.05,
            "alpha = {}",
            est.alpha_mean
        );
        assert!(est.alpha_min > 0.2);
        assert!(est.beta_max < 1.6, "beta_max = {}", est.beta_max);
        assert!((est.beta_mean - 1.0).abs() < 0.3);
        assert_eq!(est.observations, 2000);
    }

    #[test]
    fn static_complete_graph_alpha_one() {
        let cfg = AlphaBetaConfig {
            observations: 10,
            runs: 1,
            ..AlphaBetaConfig::default()
        };
        let est = estimate_alpha_beta(
            |_| StaticEvolvingGraph::new(generators::complete(10)),
            10,
            &cfg,
        );
        assert_eq!(est.alpha_min, 1.0);
        assert_eq!(est.alpha_mean, 1.0);
        // Both marginals are always 1, joint always 1: beta = 1 exactly.
        assert_eq!(est.beta_max, 1.0);
    }

    #[test]
    fn edgeless_graph_alpha_zero_beta_nan() {
        let cfg = AlphaBetaConfig {
            observations: 5,
            runs: 1,
            ..AlphaBetaConfig::default()
        };
        let est = estimate_alpha_beta(
            |_| StaticEvolvingGraph::new(dg_graph::GraphBuilder::new(12).build()),
            12,
            &cfg,
        );
        assert_eq!(est.alpha_min, 0.0);
        assert!(est.beta_max.is_nan());
        assert!(est.beta_mean.is_nan());
    }

    #[test]
    #[should_panic(expected = "set_size + 2")]
    fn too_few_nodes_panics() {
        let cfg = AlphaBetaConfig {
            set_size: 5,
            ..AlphaBetaConfig::default()
        };
        let _ = estimate_alpha_beta(|_| StaticEvolvingGraph::new(generators::path(4)), 4, &cfg);
    }
}
