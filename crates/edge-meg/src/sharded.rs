//! Lane-decomposed lazy two-state edge-MEG: the workspace's lazy
//! edge-MEG dynamics, and its million-node model.
//!
//! [`ShardedSparseEdgeMeg`] splits the pair index into [`LANES`] *fixed
//! logical lanes*: lane `l` owns the contiguous pair range whose higher
//! endpoint falls in the `l`-th slice of the node space. Each lane, with
//! its own RNG stream, skip-samples its slice of the stationary on-set
//! at reset (`O(#on)` work, nothing scheduled) and then runs three steps
//! per round: a Geometric(`q`) *death sweep* over its alive list, a
//! Geometric(`p`) *birth sweep* over its untouched pairs, and the
//! retirement of the round's dead back to untouched. Per-round cost and
//! memory are bounded by the current on-set, not by every pair that
//! ever toggled. Because every pair behaves independently in the
//! two-state process, the union over lanes is the two-state edge-MEG
//! itself — and because the decomposition is fixed
//! (never a function of the thread count), a realization depends only
//! on `(n, p, q, seed)`.
//!
//! The payoff: the model exposes its lanes through
//! [`dynagraph::EvolvingGraph::sharding`], so the engine's lane executor
//! ([`dynagraph::shard`]) can advance them on all cores — one
//! `n = 10^6` trial saturates the machine, byte-identical to the serial
//! path (the serial `step_delta` sweeps the same lanes in lane order
//! with the same per-lane streams). Each lane keeps its on-pairs as
//! `(u, v)`, so the executor's scan rounds read every on-edge straight
//! from the lanes, with no delta and no pair-index inversion.
//!
//! A lane also keeps the pair indices of its on-set in a
//! [`PairSet`], which answers the birth sweep's "is this pair already
//! on?". The set picks its own form from the lane's range and expected
//! on-set: a bitmap over the range at density `α ≥ 1/144` (the served
//! cell and every denser one), a range-hashed table below. Membership
//! reads the same either way and the set is never iterated, so the form
//! never moves a byte of a realization; the lane code does not know it.
//!
//! Every skip — the reset's `Geometric(α)`, the death sweep's
//! `Geometric(q)`, the birth sweep's `Geometric(p)` — is one
//! [`Geometric`] draw: one uniform from the lane's stream, then either
//! a table lookup (a guide read and one compare against precomputed
//! thresholds) or, for rates with a mean gap above ~148 and for the
//! ~10⁻⁷ of draws that land near a threshold, one `ln` and one
//! division. Both paths return the same value for the same uniform.
//! The model builds its three samplers once, at construction; the
//! lanes share their tables. At the served cell (`n = 4096`, `p =
//! 1.5/n`, `q = 0.01`) the reset and the death sweep take the table and
//! the births (mean gap ~2730) take the logarithm.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use dg_markov::{MarkovError, TwoStateChain};
use dynagraph::delta::Edge;
use dynagraph::shard::{ShardAccess, ShardLane};
use dynagraph::{mix_seed, EdgeDelta, EvolvingGraph, Snapshot};

use crate::pairs::edge_pair;
use crate::pairset::PairSet;
use crate::sparse::{check_rates, Geometric};

/// Number of logical lanes — fixed, so realizations are independent of
/// how many threads step them. 64 comfortably exceeds any core count
/// the executor's round-robin assignment has to balance over, while
/// keeping per-lane state (a few Vecs + a PairSet) negligible.
pub const LANES: usize = 64;

/// Seed-domain tag separating lane streams from every other consumer of
/// the trial seed.
const LANE_SEED_TAG: u64 = 0x5AA2_DED0;

/// `tri(v) = v(v-1)/2` — the pair index of `(0, v)`, i.e. the first
/// index whose higher endpoint is `v`.
#[inline]
fn tri(v: u64) -> u64 {
    v * (v - 1) / 2
}

/// The pair index of an on-pair `(u, v)`, `u < v` — the inverse of
/// [`edge_pair`] by one multiply, for the occupancy set.
#[inline]
fn index_of((u, v): Edge) -> u64 {
    tri(v as u64) + u as u64
}

/// The pair `gap` indices past the pair `prev`, whose index is `idx`.
///
/// The reset's skip-sample and the birth sweep walk ascending indices,
/// so a small step is one add plus at most one row carry: row `v` holds
/// `v` pairs, so for `gap < v` the target lies in row `v` or `v + 1`.
/// Larger steps fall back to [`edge_pair`] (a square root).
#[inline]
fn step_pair((u, v): Edge, gap: u64, idx: u64) -> Edge {
    debug_assert_eq!(index_of((u, v)) + gap, idx);
    if gap < v as u64 {
        let u = u as u64 + gap;
        if u < v as u64 {
            (u as u32, v)
        } else {
            ((u - v as u64) as u32, v + 1)
        }
    } else {
        edge_pair(idx)
    }
}

/// Draws a lane's birth sweep makes before it probes the occupancy set
/// for them: enough independent probes to overlap their cache misses,
/// few enough that the buffer stays small on dense lanes (at `p = 1`
/// every pair of the range is a candidate).
const BIRTH_BATCH: usize = 256;

/// First coordinate of a dying pair's mark in the alive list, `(DYING,
/// m)` for the round's `m`-th death. No pair looks like this, because
/// `u < v`; alive-list positions and marks are `u32`, so a lane's on-set
/// stays below `u32::MAX`.
const DYING: u32 = u32::MAX;

/// One lane: an independently advanceable slice `[start, end)` of the
/// pair index space with its own RNG stream and lazy on-set tracking.
#[derive(Debug, Clone)]
struct Lane {
    /// Owned pair range `[start, end)`.
    start: u64,
    end: u64,
    /// The pair at index `start`, where the ascending sweeps begin
    /// decoding (see [`step_pair`]).
    first: Edge,
    /// Birth and death skip samplers; every lane shares their tables.
    birth: Geometric,
    death: Geometric,
    /// Currently-on pairs in this lane, as `(u, v)` with `u < v`: stored
    /// unpacked so scans, full emissions and snapshots read them without
    /// inverting a pair index. Between a round's death sweep and its
    /// retirements, dying pairs are marked `(DYING, m)`.
    alive: Vec<Edge>,
    /// Pair indices of the on pairs (only on pairs are tracked), as a
    /// bitmap or a table, whichever is smaller for the range.
    occ: PairSet,
    /// This round's dying pairs, in the order the death sweep drew them.
    retire_buf: Vec<Edge>,
    /// Current alive-list position of each of this round's dying pairs.
    retire_pos: Vec<u32>,
    /// Birth candidates drawn and not yet probed.
    birth_buf: Vec<u64>,
    rng: SmallRng,
}

impl Lane {
    /// One round of the lazy dynamics over this lane's range. Returns the
    /// round's churn (births plus deaths); with `delta`, the churn is
    /// also recorded there.
    ///
    /// Each sweep draws before it touches memory: the death positions all
    /// at once, the birth candidates [`BIRTH_BATCH`] at a time, so the
    /// alive-list reads and set probes that follow are independent loads
    /// whose cache misses overlap instead of each waiting behind a
    /// logarithm. The draws come in the same order as in one interleaved
    /// pass, so the realization does not depend on the batching.
    #[inline]
    fn advance(&mut self, mut delta: Option<&mut EdgeDelta>) -> u64 {
        let mut births = 0u64;
        // 1. Death sweep: every on edge dies with probability q, so the
        //    dying positions of the start-of-round alive list are found
        //    by Geometric(q) skips. The dying stay in the set through the
        //    birth sweep, so a pair cannot die and be re-born in one
        //    round; in the alive list they are marked, and their pairs
        //    set aside for the retirement.
        debug_assert!(self.retire_buf.is_empty() && self.retire_pos.is_empty());
        let live = self.alive.len() as u64;
        let mut pos = self.death.draw(&mut self.rng) - 1;
        while pos < live {
            self.retire_pos.push(pos as u32);
            pos += self.death.draw(&mut self.rng);
        }
        for (m, &pos) in self.retire_pos.iter().enumerate() {
            let slot = &mut self.alive[pos as usize];
            self.retire_buf.push(*slot);
            *slot = (DYING, m as u32);
        }
        // 2. Birth sweep: the untouched pairs firing this round are found
        //    by Geometric(p) skips over the range; candidates landing on
        //    tracked pairs are discarded, which leaves untouched pairs'
        //    birth times exactly Geometric(p). The newborn join `alive`
        //    after the death positions were drawn, so they live through
        //    this round.
        //    Newborn pairs are decoded by stepping from the last one.
        let (mut at, mut pair) = (self.start, self.first);
        let mut idx = self.start + self.birth.draw(&mut self.rng) - 1;
        while idx < self.end {
            self.birth_buf.clear();
            while idx < self.end && self.birth_buf.len() < BIRTH_BATCH {
                self.birth_buf.push(idx);
                idx += self.birth.draw(&mut self.rng);
            }
            for &cand in &self.birth_buf {
                if self.occ.insert(cand) {
                    pair = step_pair(pair, cand - at, cand);
                    at = cand;
                    assert!(
                        self.alive.len() < DYING as usize,
                        "on-set exceeds u32 alive-list positions"
                    );
                    self.alive.push(pair);
                    births += 1;
                    if let Some(d) = delta.as_deref_mut() {
                        d.push_added(pair);
                    }
                }
            }
        }
        // 3. Retire the dead to untouched: their next birth comes from
        //    the sweep, the same Geometric(p) wait an eager schedule
        //    would have drawn. Each death swap-removes its mark, in draw
        //    order; a mark moved into the hole gets its new position.
        for m in 0..self.retire_buf.len() {
            let pos = self.retire_pos[m] as usize;
            debug_assert_eq!(self.alive[pos], (DYING, m as u32));
            self.alive.swap_remove(pos);
            if let Some(&(DYING, moved)) = self.alive.get(pos) {
                self.retire_pos[moved as usize] = pos as u32;
            }
            let pair = self.retire_buf[m];
            self.occ.remove(index_of(pair));
            if let Some(d) = delta.as_deref_mut() {
                d.push_removed(pair);
            }
        }
        let deaths = self.retire_buf.len() as u64;
        self.retire_buf.clear();
        self.retire_pos.clear();
        births + deaths
    }
}

impl ShardLane for Lane {
    fn step_round(&mut self, delta: &mut EdgeDelta, emit_full: bool) {
        if emit_full {
            self.advance(None);
            for &e in &self.alive {
                delta.push_added(e);
            }
        } else {
            self.advance(Some(delta));
        }
    }

    fn advance_quiet(&mut self) -> u64 {
        self.advance(None)
    }

    fn edges(&self) -> &[Edge] {
        &self.alive
    }
}

/// Lazy two-state edge-MEG decomposed into [`LANES`] fixed lanes — the
/// library's model of the Appendix-A process at every `n`, and the one
/// behind million-node single-trial sharding.
///
/// Same process distribution as the exact-scan
/// [`crate::SparseTwoStateEdgeMeg`] (every pair flips independently;
/// only the random-stream bookkeeping differs), with `O(#on)` setup and
/// churn-proportional rounds. Exposes a lane decomposition via
/// [`EvolvingGraph::sharding`], so
/// `Simulation::builder().shards(..)` and
/// [`dynagraph::flooding::flood_sharded`] run a *single* trial on all
/// cores; serial and sharded execution are byte-identical.
///
/// # Examples
///
/// ```
/// use dg_edge_meg::ShardedSparseEdgeMeg;
/// use dynagraph::{flooding, EvolvingGraph, Shards};
///
/// let n = 512;
/// let mut g = ShardedSparseEdgeMeg::stationary(n, 1.5 / n as f64, 0.3, 1).unwrap();
/// let serial = flooding::flood(&mut g, 0, 100_000);
/// g.reset(1);
/// let sharded = flooding::flood_sharded(&mut g, 0, 100_000, Shards::Fixed(4));
/// assert_eq!(serial, sharded);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedSparseEdgeMeg {
    n: usize,
    chain: TwoStateChain,
    /// The reset's skip sampler over the stationary density `α`.
    alpha: Geometric,
    lanes: Vec<Lane>,
    snapshot: Snapshot,
    edge_buf: Vec<(u32, u32)>,
    synced: bool,
}

impl ShardedSparseEdgeMeg {
    /// Creates a stationary lane-decomposed sparse edge-MEG (each pair
    /// on independently with probability `p/(p+q)` at round 0).
    ///
    /// # Errors
    ///
    /// Returns an error for rates [`crate::check_rates`] rejects (among
    /// them `p = 0` and `q = 0`), for `p = q = 1`, or for `n < 2` — the
    /// same conditions as [`crate::SparseTwoStateEdgeMeg::stationary`].
    pub fn stationary(n: usize, p: f64, q: f64, seed: u64) -> Result<Self, MarkovError> {
        check_rates(p, q)?;
        let chain = TwoStateChain::new(p, q)?;
        if n < 2 {
            return Err(MarkovError::DimensionMismatch {
                expected: 2,
                found: n,
            });
        }
        let node_span = n.div_ceil(LANES) as u64;
        let birth = Geometric::new(chain.birth());
        let death = Geometric::new(chain.death());
        let lanes = (0..LANES as u64)
            .map(|l| {
                let lo = (l * node_span).min(n as u64);
                let hi = ((l + 1) * node_span).min(n as u64);
                let (start, end) = (tri(lo.max(1)), tri(hi.max(1)));
                Lane {
                    start,
                    end,
                    first: (0, lo.max(1) as u32),
                    birth: birth.clone(),
                    death: death.clone(),
                    alive: Vec::new(),
                    // Sized and written by the first `reset`, lane by
                    // lane, right after its skip-sample.
                    occ: PairSet::new(start..end),
                    retire_buf: Vec::new(),
                    retire_pos: Vec::new(),
                    birth_buf: Vec::new(),
                    rng: SmallRng::seed_from_u64(0),
                }
            })
            .collect();
        let mut meg = ShardedSparseEdgeMeg {
            n,
            alpha: Geometric::new(chain.stationary_on()),
            chain,
            lanes,
            snapshot: Snapshot::empty(n),
            edge_buf: Vec::new(),
            synced: false,
        };
        meg.reset(seed);
        Ok(meg)
    }

    /// The stationary edge density `α = p/(p+q)`.
    pub fn alpha(&self) -> f64 {
        self.chain.stationary_on()
    }

    /// Number of currently-on edges (summed over lanes).
    pub fn alive_count(&self) -> usize {
        self.lanes.iter().map(|l| l.alive.len()).sum()
    }
}

impl EvolvingGraph for ShardedSparseEdgeMeg {
    fn node_count(&self) -> usize {
        self.n
    }

    fn step(&mut self) -> &Snapshot {
        for lane in &mut self.lanes {
            lane.advance(None);
        }
        self.edge_buf.clear();
        for lane in &self.lanes {
            self.edge_buf.extend_from_slice(&lane.alive);
        }
        self.snapshot.rebuild_from_edges(&self.edge_buf);
        self.synced = false;
        &self.snapshot
    }

    fn step_delta(&mut self, delta: &mut EdgeDelta) {
        // The serial reference sweep: lanes in lane order, appending
        // into one delta — exactly the concatenation the sharded
        // executor's merge produces, which is what makes serial and
        // sharded runs byte-identical.
        delta.begin_round();
        let full = !self.synced;
        for lane in &mut self.lanes {
            lane.step_round(delta, full);
        }
        self.synced = true;
    }

    fn has_native_deltas(&self) -> bool {
        true
    }

    fn rebase_deltas(&mut self) {
        self.synced = false;
    }

    fn reset(&mut self, seed: u64) {
        self.synced = false;
        let alpha = self.chain.stationary_on();
        let death = self.chain.death();
        for (l, lane) in self.lanes.iter_mut().enumerate() {
            lane.alive.clear();
            lane.retire_buf.clear();
            lane.retire_pos.clear();
            // Room for the lane's expected stationary on-set and its
            // round peaks (the on-set plus a round's births, which balance
            // its deaths), with 4 standard deviations to spare, so the
            // rounds after the first reset rarely regrow the buffers.
            let on = alpha * (lane.end - lane.start) as f64;
            let room = |mean: f64| (mean + 4.0 * mean.sqrt()).ceil() as usize;
            lane.alive.reserve_exact(room(on * (1.0 + death)));
            lane.retire_buf.reserve_exact(room(on * death));
            lane.retire_pos.reserve_exact(room(on * death));
            lane.rng = SmallRng::seed_from_u64(mix_seed(mix_seed(seed, LANE_SEED_TAG), l as u64));
            // Skip-sample the lane's slice of the stationary on-set:
            // successive on-pairs are Geometric(alpha) apart in the pair
            // index, so only the ≈ alpha·(end - start) live pairs are
            // visited, one draw and one pair step each.
            let (mut at, mut pair) = (lane.start, lane.first);
            let mut idx = lane.start + self.alpha.draw(&mut lane.rng) - 1;
            while idx < lane.end {
                pair = step_pair(pair, idx - at, idx);
                at = idx;
                lane.alive.push(pair);
                idx += self.alpha.draw(&mut lane.rng);
            }
            assert!(
                lane.alive.len() <= DYING as usize,
                "on-set exceeds u32 alive-list positions"
            );
            // The alive list is ascending in the pair index: index it in
            // one pass, sized for the expected on-set.
            lane.occ.rebuild(
                lane.alive.iter().map(|&pair| index_of(pair)),
                on.ceil() as usize,
            );
        }
    }

    fn sharding(&mut self) -> Option<&mut dyn ShardAccess> {
        Some(self)
    }
}

impl ShardAccess for ShardedSparseEdgeMeg {
    fn lanes(&mut self) -> Vec<&mut dyn ShardLane> {
        // The executor steps lanes behind the model's back: break the
        // delta baseline so the next model-level `step_delta` emits the
        // full current edge set, per the delta contract.
        self.synced = false;
        self.lanes
            .iter_mut()
            .map(|l| l as &mut dyn ShardLane)
            .collect()
    }

    fn step_lanes(&mut self, delta: &mut EdgeDelta, emit_full: bool, churn: &mut [u64]) {
        self.synced = false;
        for (lane, churn) in self.lanes.iter_mut().zip(churn) {
            let before = delta.churn();
            lane.step_round(delta, emit_full);
            *churn = (delta.churn() - before) as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::pair_count;
    use dg_stats::Summary;
    use dynagraph::flooding::{flood, flood_sharded};
    use dynagraph::Shards;

    #[test]
    fn lane_ranges_partition_the_pair_space() {
        for n in [2usize, 3, 17, 63, 64, 65, 200, 1000] {
            let g = ShardedSparseEdgeMeg::stationary(n, 0.1, 0.3, 0).unwrap();
            let mut next = 0u64;
            for lane in &g.lanes {
                assert_eq!(lane.start, next, "n = {n}");
                assert!(lane.end >= lane.start);
                next = lane.end;
            }
            assert_eq!(next, pair_count(n), "n = {n}");
        }
    }

    #[test]
    fn density_matches_stationary_alpha() {
        let n = 64;
        let (p, q) = (0.05, 0.2);
        let mut g = ShardedSparseEdgeMeg::stationary(n, p, q, 7).unwrap();
        let rounds = 600;
        let mut s = Summary::new();
        for _ in 0..rounds {
            s.push(g.step().edge_count() as f64);
        }
        let expected = p / (p + q) * pair_count(n) as f64;
        assert!(
            (s.mean() / expected - 1.0).abs() < 0.15,
            "mean {} vs {expected}",
            s.mean()
        );
    }

    #[test]
    fn deltas_replay_rebuild() {
        let mut rebuild = ShardedSparseEdgeMeg::stationary(96, 0.03, 0.2, 11).unwrap();
        let mut delta = ShardedSparseEdgeMeg::stationary(96, 0.03, 0.2, 11).unwrap();
        dynagraph::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 40);
        rebuild.reset(12);
        delta.reset(12);
        dynagraph::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 40);
    }

    #[test]
    fn reset_matches_fresh() {
        dynagraph::assert_reset_matches_fresh(
            |s| ShardedSparseEdgeMeg::stationary(80, 0.04, 0.25, s).unwrap(),
            99,
            5,
            25,
        );
    }

    #[test]
    fn rate_one_chains_replay_and_reset() {
        // Birth or death rate 1: that side toggles every round without a
        // draw. (`deltas_replay_rebuild` and `reset_matches_fresh` keep
        // their sparse rates as pinned.)
        for (p, q) in [(1.0, 0.3), (0.05, 1.0)] {
            let mut rebuild = ShardedSparseEdgeMeg::stationary(96, p, q, 11).unwrap();
            let mut delta = ShardedSparseEdgeMeg::stationary(96, p, q, 11).unwrap();
            dynagraph::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 20);
            dynagraph::assert_reset_matches_fresh(
                move |s| ShardedSparseEdgeMeg::stationary(80, p, q, s).unwrap(),
                99,
                5,
                10,
            );
        }
    }

    #[test]
    fn sharded_flood_is_byte_identical_to_serial() {
        // The tentpole pin at model level: the same realization, flooded
        // serially and with every shard count, node for node and round
        // for round.
        let n = 384;
        let p = 1.5 / n as f64;
        for seed in [1u64, 9, 42] {
            let mut g = ShardedSparseEdgeMeg::stationary(n, p, 0.3, seed).unwrap();
            let serial = flood(&mut g, 0, 100_000);
            for shards in [2usize, 3, 4, 8] {
                g.reset(seed);
                let sharded = flood_sharded(&mut g, 0, 100_000, Shards::Fixed(shards));
                assert_eq!(serial, sharded, "seed {seed}, {shards} shards");
            }
        }
    }

    #[test]
    fn sharded_flood_with_one_shard_matches_serial() {
        // One thread still runs the lane executor (scan rounds).
        let n = 128;
        let mut g = ShardedSparseEdgeMeg::stationary(n, 2.0 / n as f64, 0.3, 3).unwrap();
        let serial = flood(&mut g, 5, 100_000);
        g.reset(3);
        let one = flood_sharded(&mut g, 5, 100_000, Shards::Fixed(1));
        assert_eq!(serial, one);
    }

    #[test]
    fn holding_times_geometric() {
        // A pair's on-runs must be Geometric(q) (mean 1/q) and its
        // off-runs Geometric(p) (mean 1/p) under the lane decomposition —
        // including the off-runs after a retirement, whose birth comes
        // from the lazy sweep.
        let n = 16;
        let (p, q) = (0.2, 0.5);
        let mut g = ShardedSparseEdgeMeg::stationary(n, p, q, 23).unwrap();
        let (eu, ev) = edge_pair(0);
        let (mut on_runs, mut off_runs) = (Summary::new(), Summary::new());
        let mut run = 0u32;
        let mut was_on = None;
        for _ in 0..40_000 {
            let on = g.step().has_edge(eu, ev);
            match was_on {
                Some(prev) if prev == on => run += 1,
                Some(prev) => {
                    if prev { &mut on_runs } else { &mut off_runs }.push(run as f64);
                    run = 1;
                }
                None => run = 1,
            }
            was_on = Some(on);
        }
        assert!(on_runs.len() > 500 && off_runs.len() > 500);
        let (on, off) = (on_runs.mean(), off_runs.mean());
        assert!((on - 1.0 / q).abs() < 0.2, "on mean {on}");
        assert!((off - 1.0 / p).abs() < 0.5, "off mean {off}");
    }

    #[test]
    fn transition_rates_match_p_and_q() {
        // Given the on-set at the start of a round, each off pair is born
        // with probability p and each on pair dies with probability q,
        // independently. Over the rounds, births − p·N_off (N_off the
        // off-pair-rounds) is then a martingale with variance
        // p(1 − p)·N_off, and deaths − q·N_on likewise. Each statistic
        // must lie within 5 standard deviations: a two-sided false-alarm
        // level of 5.7e-7 per comparison under the normal limit (every
        // count here is above 10^5), 2.3e-6 over the four. A 3% error in
        // p moves the birth statistic by about 12 of them at the served
        // cell and 19 at the dense one; a 10% error in q moves the death
        // statistic by 43 and 62.
        for (n, p, q) in [(4096, 1.5 / 4096.0, 0.01), (512, 0.05, 0.2)] {
            let mut g = ShardedSparseEdgeMeg::stationary(n, p, q, 0x7A7E).unwrap();
            let mut delta = EdgeDelta::new();
            // The first delta is the full edge set, not a round's churn.
            g.step_delta(&mut delta);
            let rounds = 60;
            let (mut on_rounds, mut births, mut deaths) = (0.0, 0.0, 0.0);
            for _ in 0..rounds {
                on_rounds += g.alive_count() as f64;
                g.step_delta(&mut delta);
                births += delta.added().len() as f64;
                deaths += delta.removed().len() as f64;
            }
            let off_rounds = (rounds * pair_count(n)) as f64 - on_rounds;
            for (what, count, trials, rate) in [
                ("births", births, off_rounds, p),
                ("deaths", deaths, on_rounds, q),
            ] {
                let z = (count - rate * trials) / (rate * (1.0 - rate) * trials).sqrt();
                assert!(
                    z.abs() < 5.0,
                    "(n, p, q) = ({n}, {p}, {q}): {what} z = {z:.2} \
                     ({count} in {trials} pair-rounds)"
                );
            }
        }
    }

    #[test]
    fn memory_bounded_by_current_on_set() {
        // Retire-to-untouched: at every round boundary each lane's
        // occupancy set holds exactly its on-set and no dying mark is left
        // in its alive list, however many pairs have toggled over the run.
        // Moderate rates make every pair toggle many times.
        let n = 40;
        let (p, q) = (0.05, 0.5);
        let mut g = ShardedSparseEdgeMeg::stationary(n, p, q, 17).unwrap();
        let mut max_tracked = 0;
        for round in 0..5_000 {
            let mut tracked = 0;
            for lane in &g.lanes {
                assert_eq!(lane.occ.len(), lane.alive.len(), "round {round}");
                for &(u, v) in &lane.alive {
                    assert!(u < v, "round {round}: marked entry ({u}, {v}) left");
                    assert!(lane.occ.contains(index_of((u, v))));
                }
                tracked += lane.occ.len();
            }
            max_tracked = max_tracked.max(tracked);
            let _ = g.step();
        }
        let expected = p / (p + q) * pair_count(n) as f64;
        assert!(
            (max_tracked as f64) < 4.0 * expected,
            "max tracked {max_tracked} vs stationary on-set {expected}"
        );
    }

    /// Bytes the lanes hold per current on-edge: the capacities of the
    /// alive lists, occupancy sets and round buffers.
    fn bytes_per_on_edge(g: &ShardedSparseEdgeMeg) -> f64 {
        let bytes: usize = g
            .lanes
            .iter()
            .map(|l| {
                8 * l.alive.capacity()
                    + 8 * l.occ.capacity()
                    + 8 * l.retire_buf.capacity()
                    + 4 * l.retire_pos.capacity()
                    + 8 * l.birth_buf.capacity()
            })
            .sum();
        bytes as f64 / g.alive_count() as f64
    }

    #[test]
    fn lane_bytes_within_the_admission_price() {
        // `dg-serve` prices a lane model at `ON_EDGE_BYTES` = 39 B per
        // expected on-edge (`crates/serve/src/workload.rs`): its admission
        // cap and warm-slot bound rest on it. Hold the lanes to it at the
        // served flooding cell, at a dense high-churn cell, whose round
        // peak (on-set plus births) is 1.3 times its on-set, and at a
        // sparse one whose lanes keep the table. At the served cell the
        // occupancy set is a bitmap of ~3.5 B per on-edge, which holds the
        // lanes to 14 B; its table (18 B per on-edge) would not.
        for (n, p, q, cap) in [
            (4096, 1.5 / 4096.0, 0.01, 14.0),
            (512, 1.0, 0.3, 39.0),
            (4096, 1.5 / 4096.0, 0.0594, 39.0),
        ] {
            let mut g = ShardedSparseEdgeMeg::stationary(n, p, q, 0xB17E5).unwrap();
            g.reset(0xB17E6);
            let after_reset = bytes_per_on_edge(&g);
            for _ in 0..50 {
                g.lanes.iter_mut().for_each(|lane| _ = lane.advance(None));
            }
            let after_rounds = bytes_per_on_edge(&g);
            for (when, b) in [("reset", after_reset), ("50 rounds", after_rounds)] {
                assert!(
                    b <= cap,
                    "(n, p, q) = ({n}, {p}, {q}) after {when}: {b:.2} B per on-edge"
                );
            }
        }
    }

    #[test]
    fn far_future_births_fire() {
        // Tiny p and q: births and deaths come hundreds of rounds apart
        // per lane, yet the long-run density must converge to α = 0.5.
        let n = 24;
        let mut g = ShardedSparseEdgeMeg::stationary(n, 1e-4, 1e-4, 11).unwrap();
        let mut total = 0usize;
        for _ in 0..30_000 {
            total += g.step().edge_count();
        }
        let expected = 0.5 * pair_count(n) as f64;
        let mean = total as f64 / 30_000.0;
        assert!((mean / expected - 1.0).abs() < 0.2, "mean = {mean}");
    }

    #[test]
    fn handles_pair_indices_past_u32() {
        // 100 000 nodes put ~14% of the pair space above u32::MAX; with
        // ~500 on-edges the on-set reaches it with overwhelming
        // probability. Tiny rates keep the test small.
        let n = 100_000;
        assert!(pair_count(n) > u32::MAX as u64);
        let mut g = ShardedSparseEdgeMeg::stationary(n, 3e-8, 0.3, 1).unwrap();
        let indices = |g: &ShardedSparseEdgeMeg| {
            g.lanes
                .iter()
                .flat_map(|l| l.alive.iter().map(|&pair| index_of(pair)))
                .collect::<Vec<_>>()
        };
        assert!(
            indices(&g).iter().any(|&e| e > u32::MAX as u64),
            "on-set never exercised the wide index space"
        );
        for _ in 0..5 {
            let snap = g.step();
            for (u, v) in snap.edges() {
                assert!(u < v && (v as usize) < n);
            }
            assert_eq!(snap.edge_count(), g.alive_count());
            for e in indices(&g) {
                assert_eq!(index_of(edge_pair(e)), e);
            }
        }
    }

    #[test]
    fn init_distribution_passes_chi_square() {
        // Round-0 on-edges spread uniformly over the pair index (see the
        // exact-scan twin of this check in `sparse.rs`).
        let (n, p, q) = (64, 0.1, 0.3);
        let make = |s| ShardedSparseEdgeMeg::stationary(n, p, q, s).unwrap();
        let chi = crate::sparse::tests::init_chi_square(make, p / (p + q), 25);
        assert!(chi < 50.0, "lane-model χ² = {chi}");
    }

    #[test]
    fn init_distribution_matches_degree_moments() {
        let (n, p, q) = (64, 0.1, 0.3);
        let make = |s| ShardedSparseEdgeMeg::stationary(n, p, q, s).unwrap();
        crate::sparse::tests::assert_degree_moments(make, p / (p + q), 30);
    }

    #[test]
    fn step_pair_matches_edge_pair() {
        // Every gap from 0 to past the row length, from every position of
        // a few rows: in-row steps, one-row carries, and the edge_pair
        // fallback at gaps >= v.
        for v in [1u32, 2, 3, 7, 64, 4095, 70_000] {
            for u in (0..v).step_by((v as usize / 16).max(1)).chain([v - 1]) {
                let from = index_of((u, v));
                for gap in (0..=2 * v as u64 + 3).chain([10 * v as u64, 1 << 40]) {
                    let idx = from + gap;
                    assert_eq!(
                        step_pair((u, v), gap, idx),
                        edge_pair(idx),
                        "({u}, {v}) + {gap}"
                    );
                }
            }
        }
        // And along a lane's ascending walk past u32 pair indices.
        let mut rng = SmallRng::seed_from_u64(5);
        let skip = Geometric::new(1e-4);
        let (mut at, mut pair) = (1u64 << 33, edge_pair(1 << 33));
        for _ in 0..100_000 {
            let gap = skip.draw(&mut rng);
            pair = step_pair(pair, gap, at + gap);
            at += gap;
            assert_eq!(pair, edge_pair(at), "index {at}");
        }
    }

    #[test]
    fn lanes_probe_near_home() {
        // The range hash is safe because a lane's on-set is a uniform
        // random subset of its range, spread over every slot: every
        // table lane's entries sit at most ~1 slot from home on average
        // (random hashing at the table's 4/9 load: 0.4), and a miss (or a
        // delete) scans at most ~3 slots (2.1), after the reset's
        // ascending fill and after rounds of births and retirements.
        // Cells whose lanes keep the table (density below 1/144): just
        // under the rule's boundary, where tables are largest, and a
        // sparse high-churn one, at `n = 16 384` so that its lanes hold
        // ~300 keys and up (at `n = 4096` they hold 10–230, too few for
        // one lane's mean to be steady). A lane whose on-set drew far
        // above its mean may be a bitmap, so the check only asks that
        // most lanes are tables.
        for (n, p, q) in [(4096, 1.5 / 4096.0, 0.0594), (16_384, 1.5 / 16_384.0, 0.64)] {
            let mut g = ShardedSparseEdgeMeg::stationary(n, p, q, 0x5E4E).unwrap();
            let check = |g: &ShardedSparseEdgeMeg, when: &str| {
                let mut tables = 0;
                for (l, lane) in g.lanes.iter().enumerate() {
                    if lane.occ.is_bitmap() {
                        continue;
                    }
                    let (d, m) = (lane.occ.mean_displacement(), lane.occ.mean_miss_probes());
                    assert!(
                        d <= 1.0 && m <= 3.0,
                        "(n, p, q) = ({n}, {p}, {q}), {when}: lane {l} mean displacement {d:.3}, miss probes {m:.3}"
                    );
                    tables += 1;
                }
                assert!(
                    tables >= LANES - 2,
                    "(n, p, q) = ({n}, {p}, {q}), {when}: only {tables} tables"
                );
            };
            check(&g, "after reset");
            for _ in 0..50 {
                let _ = g.step();
            }
            check(&g, "after 50 rounds");
        }
    }

    /// FNV-1a over `words`, continuing from `h`.
    fn fnv(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
            }
        }
        h
    }

    /// Folds every lane's alive list, in order, into `h`.
    fn fold_lanes(h: u64, g: &ShardedSparseEdgeMeg) -> u64 {
        g.lanes.iter().fold(h, |h, lane| {
            let pairs = lane.alive.iter().map(|&(u, v)| (u as u64) << 32 | v as u64);
            fnv(fnv(h, [lane.alive.len() as u64]), pairs)
        })
    }

    #[test]
    fn lane_realizations_pinned() {
        // The realization in full, not just the on-set: every lane's
        // alive list in order (swap-remove moves it), plus each round's
        // delta in order, after the build, each of 50 rounds, a reset
        // and 50 more rounds. Digests recorded before the occupancy map
        // became a key-only set; any change here is a stream drift.
        // Cells: the served flooding cell, a death-rate-one cell (every
        // position dies, so dying pairs move in the alive list before
        // they retire), and two dense ones.
        for ((n, p, q), want) in [
            ((4096, 1.5 / 4096.0, 0.01), 0x944e_afae_c980_0460u64),
            ((96, 0.05, 1.0), 0x1ce0_9ccd_d773_e886),
            ((96, 1.0, 0.3), 0xfed3_383c_ccf8_b2e4),
            ((512, 0.09, 0.01), 0x5fae_3557_f24d_4b3e),
        ] {
            let mut g = ShardedSparseEdgeMeg::stationary(n, p, q, 0xD16E57).unwrap();
            let mut delta = EdgeDelta::new();
            let mut h = fold_lanes(0xCBF2_9CE4_8422_2325, &g);
            for seed in [None, Some(0x5EED)] {
                if let Some(seed) = seed {
                    g.reset(seed);
                    h = fold_lanes(h, &g);
                }
                for _ in 0..50 {
                    g.step_delta(&mut delta);
                    let pairs = |d: &[Edge]| {
                        d.iter()
                            .map(|&(u, v)| (u as u64) << 32 | v as u64)
                            .collect::<Vec<_>>()
                    };
                    h = fnv(h, pairs(delta.added()));
                    h = fnv(h, pairs(delta.removed()));
                    h = fold_lanes(h, &g);
                }
            }
            assert_eq!(h, want, "(n, p, q) = ({n}, {p}, {q}): {h:#018x}");
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ShardedSparseEdgeMeg::stationary(10, 0.0, 0.5, 0).is_err());
        assert!(ShardedSparseEdgeMeg::stationary(10, 0.5, 0.0, 0).is_err());
        assert!(ShardedSparseEdgeMeg::stationary(1, 0.2, 0.2, 0).is_err());
    }
}
