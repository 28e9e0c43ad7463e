//! Property tests for the edge-MEG crate: pair indexing, density
//! against the stationary `α` on both two-state simulators, delta-path
//! equivalence (stepping via `step_delta` + `DynAdjacency` reproduces
//! the rebuild path's snapshot sequence exactly), and the exact-scan
//! model's lazy first toggles against the eager scan they replace.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dg_edge_meg::{
    bursty_chain, edge_index, edge_pair, pair_count, HiddenChainEdgeMeg, ShardedSparseEdgeMeg,
    SparseTwoStateEdgeMeg,
};
use dynagraph::delta::assert_replays_rebuild;
use dynagraph::{mix_seed, EdgeDelta, EvolvingGraph};

/// The eager exact-scan edge-MEG — the oracle for
/// `SparseTwoStateEdgeMeg::stationary`. `reset` scans every pair in
/// order, drawing its Bernoulli(α) state and then its first toggle time
/// and scheduling that toggle at once; each round pops the due toggles
/// in ascending `(round, pair)` order from a binary heap (the original
/// event queue) and draws each toggled pair's next toggle. The lazy
/// model consumes its RNG stream in the same order, so the two must
/// agree bit for bit: the same snapshots, and the same deltas in the
/// same order.
struct EagerScan {
    n: usize,
    p: f64,
    q: f64,
    rng: SmallRng,
    round: u64,
    /// Currently-on pairs, in the lazy model's alive-list order.
    alive: Vec<u64>,
    /// Position of each pair in `alive`, or `None` while it is off.
    position: Vec<Option<usize>>,
    events: BinaryHeap<Reverse<(u64, u64)>>,
    /// `true` once the previous delta left the consumer in sync.
    synced: bool,
}

impl EagerScan {
    fn new(n: usize, p: f64, q: f64, seed: u64) -> Self {
        let mut g = EagerScan {
            n,
            p,
            q,
            rng: SmallRng::seed_from_u64(0),
            round: 0,
            alive: Vec::new(),
            position: Vec::new(),
            events: BinaryHeap::new(),
            synced: false,
        };
        g.reset(seed);
        g
    }

    fn reset(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(mix_seed(seed, 0x5BA5));
        self.round = 0;
        self.synced = false;
        self.alive.clear();
        self.position = vec![None; pair_count(self.n) as usize];
        self.events.clear();
        let alpha = self.p / (self.p + self.q);
        for e in 0..pair_count(self.n) {
            let on = self.rng.gen_bool(alpha);
            if on {
                self.turn_on(e);
            }
            self.schedule(e, on);
        }
    }

    fn schedule(&mut self, edge: u64, on: bool) {
        let rate = if on { self.q } else { self.p };
        let dt = if rate >= 1.0 {
            1
        } else {
            let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            ((u.ln() / (1.0 - rate).ln()).ceil() as u64).max(1)
        };
        self.events.push(Reverse((self.round + dt, edge)));
    }

    fn turn_on(&mut self, edge: u64) {
        self.position[edge as usize] = Some(self.alive.len());
        self.alive.push(edge);
    }

    fn turn_off(&mut self, edge: u64) {
        let pos = self.position[edge as usize].take().expect("edge is alive");
        self.alive.swap_remove(pos);
        if let Some(&moved) = self.alive.get(pos) {
            self.position[moved as usize] = Some(pos);
        }
    }

    /// Advances one round, recording its churn in toggle order.
    fn advance(&mut self, delta: &mut EdgeDelta) {
        self.round += 1;
        delta.begin_round();
        while let Some(&Reverse((when, edge))) = self.events.peek() {
            if when != self.round {
                assert!(when > self.round, "a toggle was skipped");
                break;
            }
            self.events.pop();
            let on = self.position[edge as usize].is_some();
            if on {
                self.turn_off(edge);
                delta.push_removed(edge_pair(edge));
            } else {
                self.turn_on(edge);
                delta.push_added(edge_pair(edge));
            }
            self.schedule(edge, !on);
        }
    }

    /// The snapshot path: this round's edge set, sorted like
    /// `Snapshot::edges`.
    fn step_edges(&mut self) -> Vec<(u32, u32)> {
        self.advance(&mut EdgeDelta::new());
        self.synced = false;
        let mut edges: Vec<_> = self.alive.iter().map(|&e| edge_pair(e)).collect();
        edges.sort_unstable();
        edges
    }

    /// The delta path: this round's churn, or the full alive list (in
    /// alive order) when the consumer is out of sync.
    fn step_delta(&mut self, delta: &mut EdgeDelta) {
        self.advance(delta);
        if !self.synced {
            delta.record_full(self.alive.iter().map(|&e| edge_pair(e)));
            self.synced = true;
        }
    }
}

/// FNV-style fold of a round's edge lists into a running fingerprint.
fn fold(mut h: u64, lists: [&[(u32, u32)]; 2]) -> u64 {
    for list in lists {
        for &(u, v) in list {
            h ^= ((u as u64) << 32) | v as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h ^= list.len() as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Realization fingerprints `(snapshot path, delta path)` of the lazy
/// exact-scan model over `rounds` rounds, resetting to `reset_seed`
/// before round `reset_at` (no reset if `reset_at >= rounds`).
fn lazy_fingerprints(
    (n, p, q, seed): (usize, f64, f64, u64),
    rounds: usize,
    (reset_at, reset_seed): (usize, u64),
) -> (u64, u64) {
    let mut snap = SparseTwoStateEdgeMeg::stationary(n, p, q, seed).unwrap();
    let mut delta_model = SparseTwoStateEdgeMeg::stationary(n, p, q, seed).unwrap();
    let mut delta = EdgeDelta::new();
    let (mut hs, mut hd) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
    for round in 0..rounds {
        if round == reset_at {
            snap.reset(reset_seed);
            delta_model.reset(reset_seed);
        }
        let edges: Vec<_> = snap.step().edges().collect();
        hs = fold(hs, [&edges, &[]]);
        delta_model.step_delta(&mut delta);
        hd = fold(hd, [delta.added(), delta.removed()]);
    }
    (hs, hd)
}

/// [`lazy_fingerprints`] of the eager oracle.
fn eager_fingerprints(
    (n, p, q, seed): (usize, f64, f64, u64),
    rounds: usize,
    (reset_at, reset_seed): (usize, u64),
) -> (u64, u64) {
    let mut snap = EagerScan::new(n, p, q, seed);
    let mut delta_model = EagerScan::new(n, p, q, seed);
    let mut delta = EdgeDelta::new();
    let (mut hs, mut hd) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
    for round in 0..rounds {
        if round == reset_at {
            snap.reset(reset_seed);
            delta_model.reset(reset_seed);
        }
        hs = fold(hs, [&snap.step_edges(), &[]]);
        delta_model.step_delta(&mut delta);
        hd = fold(hd, [delta.added(), delta.removed()]);
    }
    (hs, hd)
}

/// A rate from one of four regimes: tiny (past the event calendar's
/// horizon, through its overflow list), the paper's sparse `Θ(1/n)`,
/// moderate, and exactly one (no draw at all).
fn rate(kind: u32, x: f64, n: usize) -> f64 {
    match kind {
        0 => 1e-6 + x * 1e-4,
        1 => (0.5 + 2.5 * x) / n as f64,
        2 => 0.01 + 0.5 * x,
        _ => 1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pair_index_round_trips(u in 0u32..5000, v in 0u32..5000) {
        prop_assume!(u != v);
        let e = edge_index(u, v);
        prop_assert_eq!(edge_pair(e), (u.min(v), u.max(v)));
    }

    #[test]
    fn pair_index_round_trips_full_u32(u in any::<u32>(), v in any::<u32>()) {
        // The whole node-id space: indices range up to ~2^63, far past
        // both u32::MAX and the 2^52 f64-exactness cliff.
        prop_assume!(u != v);
        let e = edge_index(u, v);
        prop_assert_eq!(edge_pair(e), (u.min(v), u.max(v)));
    }

    #[test]
    fn pair_inverse_exact_at_u32_boundary(off in 0u64..4096) {
        // Indices straddling u32::MAX — the region the old 92 682-node
        // cap fenced off.
        let e = u32::MAX as u64 - 2048 + off;
        let (u, v) = edge_pair(e);
        prop_assert!(u < v);
        prop_assert_eq!(edge_index(u, v), e);
    }

    #[test]
    fn pair_inverse_exact_at_f64_mantissa_boundary(off in 0u64..4096) {
        // Indices straddling 2^52, where 8i + 1 stops being exactly
        // representable in f64 and the old float inverse could misplace
        // the row.
        let e = (1u64 << 52) - 2048 + off;
        let (u, v) = edge_pair(e);
        prop_assert!(u < v);
        prop_assert_eq!(edge_index(u, v), e);
    }

    #[test]
    fn pair_index_is_dense_bijection(n in 2u32..40) {
        let mut seen = vec![false; pair_count(n as usize) as usize];
        for v in 0..n {
            for u in 0..v {
                let e = edge_index(u, v);
                prop_assert!(!seen[e as usize]);
                seen[e as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn stationary_density_tracks_alpha(
        n in 8usize..32,
        p in 0.02f64..0.5,
        q in 0.02f64..0.5,
        seed in any::<u64>(),
    ) {
        let expected = p / (p + q) * pair_count(n) as f64;
        let rounds = 300;
        let mean = |g: &mut dyn EvolvingGraph| {
            (0..rounds).map(|_| g.step().edge_count()).sum::<usize>() as f64 / rounds as f64
        };
        let sparse = mean(&mut SparseTwoStateEdgeMeg::stationary(n, p, q, seed).unwrap());
        let lane = mean(&mut ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap());
        // 4-sigma-ish band for the time average.
        for (model, mean) in [("exact scan", sparse), ("lane model", lane)] {
            prop_assert!(
                (mean - expected).abs() < 0.35 * expected + 3.0,
                "{model}: mean {mean} vs expected {expected}"
            );
        }
    }

    #[test]
    fn sparse_deltas_replay_rebuild(
        n in 4usize..32,
        p in 0.02f64..0.4,
        q in 0.05f64..0.5,
        seed in any::<u64>(),
    ) {
        let mut rebuild = SparseTwoStateEdgeMeg::stationary(n, p, q, seed).unwrap();
        let mut delta = SparseTwoStateEdgeMeg::stationary(n, p, q, seed).unwrap();
        assert_replays_rebuild(&mut rebuild, &mut delta, 30);
        rebuild.reset(seed ^ 7);
        delta.reset(seed ^ 7);
        assert_replays_rebuild(&mut rebuild, &mut delta, 30);
    }

    #[test]
    fn sparse_deltas_survive_warm_up(
        n in 4usize..24,
        seed in any::<u64>(),
    ) {
        // Warm-up runs on the delta path and rebases; the first delta a
        // consumer sees afterwards must be the full warmed-up edge set.
        let mut rebuild = SparseTwoStateEdgeMeg::stationary(n, 0.2, 0.3, seed).unwrap();
        let mut delta = SparseTwoStateEdgeMeg::stationary(n, 0.2, 0.3, seed).unwrap();
        rebuild.warm_up(17);
        delta.warm_up(17);
        assert_replays_rebuild(&mut rebuild, &mut delta, 10);
    }

    #[test]
    fn hidden_chain_deltas_replay_rebuild(
        n in 4usize..20,
        wake in 0.05f64..0.5,
        fire in 0.05f64..0.45,
        cool in 0.05f64..0.5,
        seed in any::<u64>(),
    ) {
        let make = || {
            let (chain, chi) = bursty_chain(wake, fire, cool);
            HiddenChainEdgeMeg::stationary(n, chain, chi, seed).unwrap()
        };
        let mut rebuild = make();
        let mut delta = make();
        assert_replays_rebuild(&mut rebuild, &mut delta, 25);
        rebuild.reset(seed ^ 3);
        delta.reset(seed ^ 3);
        assert_replays_rebuild(&mut rebuild, &mut delta, 25);
    }

    #[test]
    fn reset_is_deterministic(
        n in 4usize..20,
        p in 0.05f64..0.5,
        q in 0.05f64..0.5,
        seed in any::<u64>(),
    ) {
        let mut g = ShardedSparseEdgeMeg::stationary(n, p, q, 0).unwrap();
        g.reset(seed);
        let a: Vec<_> = g.step().edges().collect();
        g.reset(seed);
        let b: Vec<_> = g.step().edges().collect();
        prop_assert_eq!(a, b);
    }

    // The zero-rebuild reuse contract (engine per-worker model reuse):
    // a used instance reset(s) must be observably identical to a fresh
    // construction with seed s — byte-identical realizations on both
    // stepping paths, lazily grown internal state included.

    #[test]
    fn sparse_reset_matches_fresh(
        n in 4usize..24,
        p in 0.02f64..0.5,
        q in 0.05f64..0.5,
        perturb in any::<u64>(),
        seed in any::<u64>(),
    ) {
        prop_assume!(perturb != seed);
        // Exact-scan: every pair stays tracked; reset rewinds the
        // calendar queue and the alive list.
        dynagraph::assert_reset_matches_fresh(
            |s| SparseTwoStateEdgeMeg::stationary(n, p, q, s).unwrap(),
            perturb,
            seed,
            25,
        );
        // Lane model: the perturbation rounds grow (and retire) the lazy
        // per-lane occupancy maps; reset must clear every trace of them.
        dynagraph::assert_reset_matches_fresh(
            |s| ShardedSparseEdgeMeg::stationary(n, p, q, s).unwrap(),
            perturb,
            seed,
            25,
        );
    }

    #[test]
    fn hidden_chain_reset_matches_fresh(
        n in 4usize..20,
        wake in 0.05f64..0.5,
        fire in 0.05f64..0.45,
        cool in 0.05f64..0.5,
        perturb in any::<u64>(),
        seed in any::<u64>(),
    ) {
        prop_assume!(perturb != seed);
        dynagraph::assert_reset_matches_fresh(
            |s| {
                let (chain, chi) = bursty_chain(wake, fire, cool);
                HiddenChainEdgeMeg::stationary(n, chain, chi, s).unwrap()
            },
            perturb,
            seed,
            20,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lazy_scan_matches_eager_scan(
        n in 2usize..130,
        p_kind in 0u32..4,
        p_x in 0.0f64..1.0,
        q_kind in 0u32..4,
        q_x in 0.0f64..1.0,
        seed in any::<u64>(),
        rounds in 1usize..200,
        reset_at in 0usize..300,
    ) {
        // Runs cross the first window (round 64) in most cases, often
        // with a reset on either side of it; n above 91 spans two scan
        // checkpoints, the last one partial.
        let (p, q) = (rate(p_kind, p_x, n), rate(q_kind, q_x, n));
        prop_assume!(p < 1.0 || q < 1.0);
        let model = (n, p, q, seed);
        let reset = (reset_at, seed ^ 0x9E37);
        prop_assert_eq!(
            lazy_fingerprints(model, rounds, reset),
            eager_fingerprints(model, rounds, reset),
            "n {} p {} q {} seed {} rounds {} reset at {}", n, p, q, seed, rounds, reset_at
        );
    }

    #[test]
    fn lazy_scan_matches_eager_scan_past_the_calendar_horizon(
        n in 2usize..12,
        p_x in 0.0f64..1.0,
        q_x in 0.0f64..1.0,
        seed in any::<u64>(),
        rounds in 9_000usize..20_000,
        reset_at in 0usize..20_000,
    ) {
        // Rates ≤ 1e-4: first toggles land thousands of rounds out,
        // beyond the calendar's 8192-round ring, so both the replay's
        // pushes and the rescheduled toggles go through its overflow.
        let (p, q) = (rate(0, p_x, n), rate(0, q_x, n));
        let model = (n, p, q, seed);
        let reset = (reset_at, seed ^ 0x9E37);
        prop_assert_eq!(
            lazy_fingerprints(model, rounds, reset),
            eager_fingerprints(model, rounds, reset),
            "n {} p {} q {} seed {} rounds {} reset at {}", n, p, q, seed, rounds, reset_at
        );
    }
}
