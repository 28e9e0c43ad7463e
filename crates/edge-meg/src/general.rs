//! The generalized edge-MEG `EM(n, M, χ)` of Appendix A.
//!
//! Each edge evolves according to an arbitrary hidden finite Markov chain
//! `M = (S, P)`; an arbitrary map `χ : S → {0, 1}` decides whether the
//! edge exists. Edges are independent, so β = 1 and Theorem 1 yields
//! `O(T_mix · (1/(nα) + 1)² · log² n)` where `α = Σ_{x : χ(x)=1} π(x)`.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use dg_markov::samplers::AliasSampler;
use dg_markov::{DenseChain, MarkovError, ProbDist};
use dynagraph::{mix_seed, EdgeDelta, EvolvingGraph, Snapshot};

use crate::pairs::{edge_pair, pair_count};

/// A generalized edge-MEG: one hidden-chain state per edge.
///
/// # Examples
///
/// ```
/// use dg_edge_meg::{bursty_chain, HiddenChainEdgeMeg};
/// use dynagraph::{flooding, EvolvingGraph};
///
/// let (chain, chi) = bursty_chain(0.05, 0.25, 0.5);
/// let mut g = HiddenChainEdgeMeg::stationary(48, chain, chi, 3).unwrap();
/// let alpha = g.alpha();
/// assert!(alpha > 0.0 && alpha < 1.0);
/// let run = flooding::flood(&mut g, 0, 50_000);
/// assert!(run.flooding_time().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct HiddenChainEdgeMeg {
    n: usize,
    chain: DenseChain,
    chi: Vec<bool>,
    stationary: ProbDist,
    row_samplers: Vec<AliasSampler>,
    init_sampler: AliasSampler,
    states: Vec<u8>,
    rng: SmallRng,
    snapshot: Snapshot,
    edge_buf: Vec<(u32, u32)>,
    synced: bool,
}

impl HiddenChainEdgeMeg {
    /// Creates a stationary generalized edge-MEG: every edge's hidden
    /// state starts from the chain's stationary distribution.
    ///
    /// # Errors
    ///
    /// Returns an error when `n < 2`, when `chi` does not match the state
    /// count, when the chain is not ergodic, or when `χ` never turns an
    /// edge on (`α = 0`).
    pub fn stationary(
        n: usize,
        chain: DenseChain,
        chi: Vec<bool>,
        seed: u64,
    ) -> Result<Self, MarkovError> {
        if n < 2 {
            return Err(MarkovError::DimensionMismatch {
                expected: 2,
                found: n,
            });
        }
        if chi.len() != chain.state_count() {
            return Err(MarkovError::DimensionMismatch {
                expected: chain.state_count(),
                found: chi.len(),
            });
        }
        if chain.state_count() > u8::MAX as usize + 1 {
            return Err(MarkovError::DimensionMismatch {
                expected: u8::MAX as usize + 1,
                found: chain.state_count(),
            });
        }
        let stationary = chain.stationary(1e-13, 1_000_000)?;
        let alpha: f64 = stationary
            .as_slice()
            .iter()
            .zip(&chi)
            .filter(|&(_, &on)| on)
            .map(|(&p, _)| p)
            .sum();
        if alpha <= 0.0 {
            return Err(MarkovError::InvalidDistribution { sum: alpha });
        }
        let row_samplers = (0..chain.state_count())
            .map(|i| {
                let row =
                    ProbDist::new(chain.row(i).to_vec()).expect("chain rows are distributions");
                AliasSampler::new(&row)
            })
            .collect();
        let init_sampler = AliasSampler::new(&stationary);
        let mut meg = HiddenChainEdgeMeg {
            n,
            chain,
            chi,
            stationary,
            row_samplers,
            init_sampler,
            states: vec![0; pair_count(n) as usize],
            rng: SmallRng::seed_from_u64(seed),
            snapshot: Snapshot::empty(n),
            edge_buf: Vec::new(),
            synced: false,
        };
        meg.reset(seed);
        Ok(meg)
    }

    /// Stationary edge-existence probability `α = Σ_{χ(x)=1} π(x)`.
    pub fn alpha(&self) -> f64 {
        self.stationary
            .as_slice()
            .iter()
            .zip(&self.chi)
            .filter(|&(_, &on)| on)
            .map(|(&p, _)| p)
            .sum()
    }

    /// Exact mixing time of the hidden chain at TV tolerance `eps`.
    ///
    /// # Errors
    ///
    /// Propagates [`dg_markov::DenseChain::mixing_time`] failures.
    pub fn mixing_time(&self, eps: f64) -> Result<usize, MarkovError> {
        self.chain.mixing_time(eps, 1 << 30)
    }

    /// The Theorem 1 bound specialized to independent edges (β = 1):
    /// `O(T_mix · (1/(nα) + 1)² · log² n)`.
    ///
    /// # Errors
    ///
    /// Propagates mixing-time failures.
    pub fn flooding_bound(&self, eps: f64) -> Result<f64, MarkovError> {
        let tmix = self.mixing_time(eps)? as f64;
        Ok(dynagraph::theory::edge_meg_hidden_bound(
            tmix,
            self.alpha(),
            self.n,
        ))
    }

    /// The hidden chain.
    pub fn chain(&self) -> &DenseChain {
        &self.chain
    }
}

impl EvolvingGraph for HiddenChainEdgeMeg {
    fn node_count(&self) -> usize {
        self.n
    }

    fn step(&mut self) -> &Snapshot {
        self.edge_buf.clear();
        for (e, s) in self.states.iter_mut().enumerate() {
            *s = self.row_samplers[*s as usize].sample(&mut self.rng) as u8;
            if self.chi[*s as usize] {
                self.edge_buf.push(edge_pair(e as u64));
            }
        }
        self.snapshot.rebuild_from_edges(&self.edge_buf);
        self.synced = false;
        &self.snapshot
    }

    fn step_delta(&mut self, delta: &mut EdgeDelta) {
        // Same hidden-chain draws as `step`; only χ-transitions (an edge
        // switching existence) enter the delta, so no snapshot is built.
        delta.begin_round();
        if self.synced {
            for (e, s) in self.states.iter_mut().enumerate() {
                let was_on = self.chi[*s as usize];
                *s = self.row_samplers[*s as usize].sample(&mut self.rng) as u8;
                let is_on = self.chi[*s as usize];
                match (was_on, is_on) {
                    (false, true) => delta.push_added(edge_pair(e as u64)),
                    (true, false) => delta.push_removed(edge_pair(e as u64)),
                    _ => {}
                }
            }
        } else {
            for (e, s) in self.states.iter_mut().enumerate() {
                *s = self.row_samplers[*s as usize].sample(&mut self.rng) as u8;
                if self.chi[*s as usize] {
                    delta.push_added(edge_pair(e as u64));
                }
            }
            self.synced = true;
        }
    }

    fn has_native_deltas(&self) -> bool {
        true
    }

    fn rebase_deltas(&mut self) {
        self.synced = false;
    }

    fn reset(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(mix_seed(seed, 0x41DD));
        for s in &mut self.states {
            *s = self.init_sampler.sample(&mut self.rng) as u8;
        }
        self.synced = false;
    }
}

/// A 3-state bursty edge chain: `dormant → warm → on` with geometric
/// holding times — a simple non-reversible hidden chain whose on-periods
/// arrive in bursts, unlike the memoryless two-state chain.
///
/// * `wake`: probability a dormant edge warms up per round;
/// * `fire`: probability a warm edge turns on per round (else it may fall
///   back dormant with the same probability);
/// * `cool`: probability an on edge falls dormant per round.
///
/// Returns the chain and its `χ` map (`on` is the only connected state).
///
/// # Panics
///
/// Panics unless all rates are in `(0, 1)`.
pub fn bursty_chain(wake: f64, fire: f64, cool: f64) -> (DenseChain, Vec<bool>) {
    for (name, v) in [("wake", wake), ("fire", fire), ("cool", cool)] {
        assert!(v > 0.0 && v < 1.0, "{name} must be in (0, 1)");
    }
    let chain = DenseChain::from_rows(vec![
        // dormant
        vec![1.0 - wake, wake, 0.0],
        // warm: fire up, fall back, or stay warm
        vec![fire, 1.0 - 2.0 * fire.min(0.5), fire],
        // on
        vec![cool, 0.0, 1.0 - cool],
    ])
    .expect("bursty rows are stochastic");
    (chain, vec![false, false, true])
}

/// The 4-state opportunistic-network edge chain of Becchetti et al.
/// (reference \[5\] of the paper, "Information Spreading in Opportunistic
/// Networks is Fast"): contacts have distinct *inter-contact* and
/// *contact* duration regimes, modeled by two off states (long-off,
/// short-off) and two on states (long-on, short-on).
///
/// * From long-off: wake into short-off with probability `wake`;
/// * from short-off: start a contact with probability `connect` (long-on
///   with probability `long_share`, else short-on), or fall back;
/// * long-on / short-on end with probabilities `end_long` / `end_short`
///   back into long-off.
///
/// Returns the chain and its `χ` map (both on states are connected).
///
/// # Panics
///
/// Panics unless every rate is in `(0, 1)`.
pub fn four_state_chain(
    wake: f64,
    connect: f64,
    long_share: f64,
    end_long: f64,
    end_short: f64,
) -> (DenseChain, Vec<bool>) {
    for (name, v) in [
        ("wake", wake),
        ("connect", connect),
        ("long_share", long_share),
        ("end_long", end_long),
        ("end_short", end_short),
    ] {
        assert!(v > 0.0 && v < 1.0, "{name} must be in (0, 1)");
    }
    let fall_back = (connect * 0.5).min(0.25);
    let chain = DenseChain::from_rows(vec![
        // 0: long-off
        vec![1.0 - wake, wake, 0.0, 0.0],
        // 1: short-off
        vec![
            fall_back,
            1.0 - fall_back - connect,
            connect * long_share,
            connect * (1.0 - long_share),
        ],
        // 2: long-on
        vec![end_long, 0.0, 1.0 - end_long, 0.0],
        // 3: short-on
        vec![end_short, 0.0, 0.0, 1.0 - end_short],
    ])
    .expect("four-state rows are stochastic");
    (chain, vec![false, false, true, true])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynagraph::flooding::flood;

    fn two_state_as_hidden(p: f64, q: f64) -> (DenseChain, Vec<bool>) {
        (
            DenseChain::from_rows(vec![vec![1.0 - p, p], vec![q, 1.0 - q]]).unwrap(),
            vec![false, true],
        )
    }

    #[test]
    fn reduces_to_two_state() {
        let (chain, chi) = two_state_as_hidden(0.1, 0.3);
        let g = HiddenChainEdgeMeg::stationary(30, chain, chi, 1).unwrap();
        assert!((g.alpha() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empirical_density_matches_alpha() {
        let (chain, chi) = bursty_chain(0.1, 0.3, 0.2);
        let mut g = HiddenChainEdgeMeg::stationary(24, chain, chi, 5).unwrap();
        let alpha = g.alpha();
        let mut total = 0usize;
        let rounds = 500;
        for _ in 0..rounds {
            total += g.step().edge_count();
        }
        let mean = total as f64 / rounds as f64;
        let expected = alpha * pair_count(24) as f64;
        assert!(
            (mean / expected - 1.0).abs() < 0.15,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn first_snapshot_is_stationary() {
        // The start law: every pair's hidden state starts from π, so the
        // first snapshot's on-pairs, counted over all pairs of 40 seeds,
        // are Binomial(N, α) with α from the balance equations, not from
        // the model. The count must lie within 5 standard deviations (a
        // two-sided false-alarm level of 5.7e-7 under the normal limit;
        // α·N ≈ 1900). The chain is t03's slowest: a start from one
        // row of it instead of π puts ~0.01% of the pairs on, not ~2.4%.
        let s = 8.0;
        let (wake, fire, cool) = (0.02 / s, 0.4 / s, 0.4 / s);
        // dormant ↔ warm ↔ on balance: π_warm = π_dormant·wake/(2·fire),
        // π_on = π_dormant·wake/(2·cool).
        let (warm, on) = (wake / (2.0 * fire), wake / (2.0 * cool));
        let alpha = on / (1.0 + warm + on);
        let n = 64;
        let (mut on_pairs, mut pairs) = (0.0, 0.0);
        for seed in 0..40 {
            let (chain, chi) = bursty_chain(wake, fire, cool);
            let mut g = HiddenChainEdgeMeg::stationary(n, chain, chi, seed).unwrap();
            on_pairs += g.step().edge_count() as f64;
            pairs += pair_count(n) as f64;
        }
        let z = (on_pairs - alpha * pairs) / (alpha * (1.0 - alpha) * pairs).sqrt();
        assert!(
            z.abs() < 5.0,
            "{on_pairs} of {pairs} pairs on at round 1, α = {alpha:.4}: z = {z:.2}"
        );
    }

    #[test]
    fn bursty_on_periods_are_bursty() {
        // Mean on-period of the bursty chain is 1/cool.
        let (chain, chi) = bursty_chain(0.05, 0.3, 0.1);
        let mut g = HiddenChainEdgeMeg::stationary(8, chain, chi, 2).unwrap();
        let mut runs = Vec::new();
        let mut current = 0u32;
        for _ in 0..20_000 {
            let snap = g.step();
            if snap.has_edge(0, 1) {
                current += 1;
            } else if current > 0 {
                runs.push(current as f64);
                current = 0;
            }
        }
        let s: dg_stats::Summary = runs.into_iter().collect();
        assert!(s.len() > 50);
        assert!((s.mean() - 10.0).abs() < 2.5, "mean on-period {}", s.mean());
    }

    #[test]
    fn floods_and_respects_bound_shape() {
        let (chain, chi) = bursty_chain(0.1, 0.4, 0.3);
        let mut g = HiddenChainEdgeMeg::stationary(64, chain, chi, 7).unwrap();
        let bound = g.flooding_bound(0.25).unwrap();
        let run = flood(&mut g, 0, 100_000);
        let t = run.flooding_time().unwrap() as f64;
        assert!(t <= bound, "t = {t}, bound = {bound}");
    }

    #[test]
    fn rejects_bad_inputs() {
        let (chain, _) = two_state_as_hidden(0.1, 0.1);
        assert!(HiddenChainEdgeMeg::stationary(1, chain.clone(), vec![false, true], 0).is_err());
        assert!(HiddenChainEdgeMeg::stationary(10, chain.clone(), vec![true], 0).is_err());
        // chi all-false => alpha = 0.
        assert!(HiddenChainEdgeMeg::stationary(10, chain, vec![false, false], 0).is_err());
    }

    #[test]
    fn reset_reproducible() {
        let (chain, chi) = bursty_chain(0.2, 0.3, 0.2);
        let mut g = HiddenChainEdgeMeg::stationary(16, chain, chi, 0).unwrap();
        g.reset(9);
        let a: Vec<_> = g.step().edges().collect();
        g.reset(9);
        let b: Vec<_> = g.step().edges().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn four_state_chain_is_valid_and_floods() {
        let (chain, chi) = four_state_chain(0.05, 0.4, 0.3, 0.1, 0.5);
        assert!(chain.is_ergodic());
        let mut g = HiddenChainEdgeMeg::stationary(48, chain, chi, 1).unwrap();
        let alpha = g.alpha();
        assert!(alpha > 0.0 && alpha < 1.0, "alpha = {alpha}");
        let run = flood(&mut g, 0, 100_000);
        assert!(run.flooding_time().is_some());
    }

    #[test]
    fn four_state_long_contacts_longer_than_short() {
        // Long-on holding time 1/end_long must exceed short-on 1/end_short.
        let (chain, _) = four_state_chain(0.05, 0.4, 0.3, 0.05, 0.5);
        // Holding time of state s is 1/(1 - P(s, s)).
        let hold = |s: usize| 1.0 / (1.0 - chain.transition(s, s));
        assert!(hold(2) > 4.0 * hold(3));
    }

    #[test]
    fn four_state_rejects_bad_rates() {
        let result = std::panic::catch_unwind(|| four_state_chain(0.0, 0.4, 0.3, 0.1, 0.5));
        assert!(result.is_err());
    }
}
