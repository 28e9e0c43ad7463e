//! Intra-trial sharding: one flooding trial over a model's lanes, on
//! one or more cores.
//!
//! A lane model ([`crate::EvolvingGraph::sharding`]) splits its pair
//! space into fixed logical lanes ([`ShardLane`]), each with its own RNG
//! stream. The executor here runs flooding over those lanes with the
//! per-round work partitioned by lane and by node range, on `k` threads
//! *inside* one trial (`k = 1` runs every phase inline). Each round is
//! one of two kinds.
//!
//! # Scan rounds
//!
//! A trial starts with scan rounds. Flooding needs, per round, only the
//! nodes adjacent to `I_t` and the message count
//! `Σ_{u ∈ I_t} deg_{E_t}(u)`; both fall out of one pass over `E_t`. So
//! a scan round keeps no adjacency at all:
//!
//! 1. **Lane advance** — every lane advances one round without recording
//!    churn ([`ShardLane::advance_quiet`]) and reports its churn count.
//! 2. **Lane scan** — every lane's on-edges ([`ShardLane::edges`]) are
//!    scanned against the informed bitset of `I_t`: an edge with one
//!    informed endpoint yields the other as a candidate, routed into a
//!    per-destination-node-shard bucket, and each informed endpoint adds
//!    one message.
//! 3. **Commit** — each node shard informs its own candidates (dedup via
//!    its own 64-bit-aligned bitset words; no atomics anywhere), and the
//!    coordinator splices the per-shard new nodes in shard order.
//!
//! No [`EdgeDelta`], full emission, bulk load or [`DynAdjacency`] is
//! involved, so a short flood never pays the `O(|E|)` adjacency build.
//!
//! # Adjacency rounds
//!
//! A scan costs `|E_t|` per round, however little the graph changed; an
//! adjacency costs one build plus `churn_t` per round. Slow-churn floods
//! that run for many rounds therefore switch to adjacency rounds:
//!
//! 1. **Lane step** — the lanes advance recording churn: on one thread
//!    straight into one [`EdgeDelta`] in lane order
//!    ([`ShardAccess::step_lanes`]), on more concurrently, each into its
//!    own, concatenated by the coordinator in lane order — either way
//!    byte-identical to a serial sweep.
//! 2. **Apply** — on one thread [`DynAdjacency::apply`]; on more,
//!    disjoint node-range views of the shared adjacency
//!    ([`DynAdjacency::range_shards`]) apply the merged delta's incident
//!    halves concurrently.
//! 3. **Frontier scan** — each node shard scans the flooding frontier
//!    and the round's added edges read-only, pre-filtering candidates
//!    against the informed bitset and routing them into
//!    per-destination-shard buckets; per-shard message partial sums
//!    replicate [`crate::engine::Flooding`]'s incremental
//!    informed-degree bookkeeping exactly.
//! 4. **Commit** — as in a scan round.
//!
//! # The switch
//!
//! The executor sums the edges its scan rounds read (`S`) and the churn
//! they skipped (`C`). After a scan round over `|E_t|` edges, once
//! `S > W·(|E_t| + C)` — the scans have cost more than building the
//! adjacency and applying every skipped delta would have — the rest of
//! the trial runs adjacency rounds. It switches at most once. At the
//! switch the lanes re-emit their edge sets in full, the executor
//! bulk-loads them, the frontier is the last scan round's new nodes, and
//! the informed-degree sum restarts at 0: the full emission's
//! `added`-edge accounting then rebuilds `Σ_{u ∈ I_t} deg(u)` exactly.
//!
//! `W` ([`ADJ_EDGE_COST`]) is the measured cost of building or applying
//! one adjacency edge, in scanned edges. On a 2-vCPU x86-64 host, for
//! `n = 4096` lane models with `q` from 0.01 to 0.5 (5k–300k edges), a
//! scan round costs 2–4 ns per edge (lane advance excluded); emitting
//! and bulk-loading the full edge set costs 30–38 ns per edge, and
//! applying churn 43–160 ns per changed edge (denser lists cost more).
//! So `W = 12`, the build ratio and the low end of the apply ratio. It
//! is a constant, not a setting: the switch changes only cost, never a
//! record.
//!
//! Callers that need the adjacency every round — observers reading
//! snapshots or deltas, and [`crate::engine::Stepping::Delta`] — start
//! in adjacency rounds and never scan.
//!
//! # Determinism
//!
//! The *realization* depends only on the model's fixed lane
//! decomposition and per-lane RNG streams — never on the thread count or
//! the round kind (a lane draws the same numbers whether or not it
//! records churn) — and every per-round quantity the engine records
//! (informed counts, rounds, messages, informed-at rounds) is a function
//! of the informed *set*, which both round kinds compute exactly. A
//! trial run on this executor at any shard count is therefore
//! byte-identical to the same trial on the serial paths; only the order
//! of each round's newly informed nodes differs. Pinned by
//! `crates/edge-meg/tests/scan_identity.rs`, the sharded-engine suite
//! and `benches/t18_shard`.

use crate::delta::{DynAdjacency, Edge, EdgeDelta};
use crate::engine::instrument::{engine_obs, shard_obs};

/// Sentinel in the executor's informed-at array (same value as
/// [`crate::engine::SpreadView::UNINFORMED`]).
const UNINFORMED: u32 = u32::MAX;

/// One logical lane of a shardable model: an independently advanceable
/// slice of the model's pair space with its own RNG stream.
///
/// Lane decompositions are *fixed* (independent of the physical thread
/// count), so realizations depend only on `(model parameters, seed)`;
/// [`Shards`] chooses how many threads step the lanes, nothing more.
///
/// A round advances a lane through exactly one of
/// [`ShardLane::step_round`] (adjacency rounds) or
/// [`ShardLane::advance_quiet`] (scan rounds), and both must draw the
/// same random numbers, so the round kind never changes the realization.
pub trait ShardLane: Send {
    /// Advances this lane one round, recording its churn into `delta`
    /// (the caller has already called [`EdgeDelta::begin_round`]).
    ///
    /// With `emit_full`, the delta baseline is broken (first adjacency
    /// round of a trial, or after a reset/rebase): advance *without*
    /// recording churn, then record the lane's entire post-advance edge
    /// set as added — the lane-local piece of the delta contract's full
    /// emission.
    fn step_round(&mut self, delta: &mut EdgeDelta, emit_full: bool);

    /// Advances this lane one round without recording churn, returning
    /// the number of edges it turned on plus the number it turned off.
    fn advance_quiet(&mut self) -> u64;

    /// Every currently-on edge of this lane, in any order.
    fn edges(&self) -> &[Edge];
}

/// One lane's output of a scan round, kept across rounds so steady-state
/// scans allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct LaneScan {
    /// Candidates (uninformed endpoints of edges into `I_t`), one bucket
    /// per destination node shard.
    buckets: Vec<Vec<u32>>,
    /// `Σ [u ∈ I_t] + [v ∈ I_t]` over the lane's edges.
    messages: u64,
    /// Edges scanned.
    edges: u64,
}

impl LaneScan {
    /// Scans `edges` (one lane's `E_t`) against the informed bitset of
    /// `I_t`, routing candidates to node shards `span` nodes wide: each
    /// endpoint in `I_t` sends one message along its edge, and an edge
    /// with exactly one informed endpoint informs the other.
    fn scan(&mut self, edges: &[Edge], informed: &[u64], span: usize, shards: usize) {
        self.buckets.resize_with(shards, Vec::new);
        self.buckets.truncate(shards);
        for b in &mut self.buckets {
            b.clear();
        }
        let informed = |x: u32| informed[x as usize / 64] >> (x % 64) & 1 == 1;
        let mut messages = 0u64;
        for &(u, v) in edges {
            let (iu, iv) = (informed(u), informed(v));
            messages += iu as u64 + iv as u64;
            if iu != iv {
                let w = if iu { v } else { u };
                self.buckets[w as usize / span].push(w);
            }
        }
        self.messages = messages;
        self.edges = edges.len() as u64;
    }
}

/// A model's lane decomposition, exposed to the lane executor via
/// [`crate::EvolvingGraph::sharding`].
pub trait ShardAccess {
    /// Mutable references to every lane, in lane order. Called once per
    /// parallel phase; the lanes must be the same ones every call.
    fn lanes(&mut self) -> Vec<&mut dyn ShardLane>;

    /// Steps every lane one adjacency round in lane order, recording
    /// into the one `delta` (the caller has begun its round), with
    /// `churn[l]` set to lane `l`'s churn — the serial sweep of
    /// one-thread adjacency rounds. The default steps
    /// [`ShardAccess::lanes`]; a model may override it to step its
    /// lanes without dynamic dispatch, which slow-churn floods (a few
    /// changed edges per round) notice.
    fn step_lanes(&mut self, delta: &mut EdgeDelta, emit_full: bool, churn: &mut [u64]) {
        for (lane, churn) in self.lanes().into_iter().zip(churn) {
            let before = delta.churn();
            lane.step_round(delta, emit_full);
            *churn = (delta.churn() - before) as u64;
        }
    }
}

/// The engine's intra-trial shard axis: how many threads execute a
/// single trial's round loop.
///
/// Takes effect only when the model exposes a lane decomposition
/// ([`crate::EvolvingGraph::sharding`]) and the protocol supports
/// sharded execution (flooding); otherwise the engine silently runs the
/// usual serial paths. `usize` converts via `From`, so
/// `builder.shards(8)` and `builder.shards(Shards::Auto)` both read
/// naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shards {
    /// One thread per available core
    /// ([`std::thread::available_parallelism`]).
    Auto,
    /// Exactly this many threads (clamped to at least 1).
    Fixed(usize),
}

impl Default for Shards {
    /// `Fixed(1)`: single-threaded trials, the engine's historical
    /// behavior.
    fn default() -> Self {
        Shards::Fixed(1)
    }
}

impl Shards {
    /// The concrete thread count this setting resolves to here and now.
    pub fn resolve(self) -> usize {
        match self {
            Shards::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            Shards::Fixed(k) => k.max(1),
        }
    }
}

impl From<usize> for Shards {
    fn from(k: usize) -> Self {
        Shards::Fixed(k)
    }
}

/// `W`: the cost of building or applying one adjacency edge, measured in
/// scanned edges — the rent-or-buy ratio of the scan → adjacency switch
/// (see the module docs for the measurement).
pub const ADJ_EDGE_COST: u64 = 12;

/// Per-shard outputs of an adjacency round's read-only frontier/churn
/// scan (phase 3).
#[derive(Debug, Default)]
struct Gather {
    /// In-range candidates from the round's added edges.
    own_cands: Vec<u32>,
    /// Frontier-scan candidates routed per destination shard.
    buckets: Vec<Vec<u32>>,
    /// Removed-edge halves whose endpoint was informed before this
    /// round (the negative churn term of the message count).
    removed_informed: u64,
    /// Added-edge halves whose endpoint was informed before this round.
    added_informed: u64,
    /// Post-apply degree sum of in-range frontier nodes.
    frontier_degree: u64,
}

impl Gather {
    fn begin_round(&mut self) {
        self.own_cands.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.removed_informed = 0;
        self.added_informed = 0;
        self.frontier_degree = 0;
    }
}

/// Reusable state of the lane executor — lives in the engine's
/// per-worker [`crate::engine::TrialScratch`] so consecutive trials
/// allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct ShardScratch {
    /// One churn buffer per model lane (adjacency rounds on two or more
    /// threads).
    lane_deltas: Vec<EdgeDelta>,
    /// One scan output per model lane (scan rounds).
    lane_scans: Vec<LaneScan>,
    /// The round's churn per model lane.
    lane_churn: Vec<u64>,
    /// The round's lane deltas concatenated in lane order.
    merged: EdgeDelta,
    /// The incrementally maintained edge set, applied partitioned
    /// (adjacency rounds only).
    pub(crate) adj: DynAdjacency,
    /// Informed bitset, one bit per node; shard boundaries are 64-node
    /// aligned so each shard owns whole words.
    bits: Vec<u64>,
    /// Round each node was informed ([`UNINFORMED`] sentinel).
    pub(crate) informed_at: Vec<u32>,
    /// Informed nodes in the order they were committed.
    pub(crate) informed_list: Vec<u32>,
    /// Per-shard adjacency-round scan outputs.
    gather: Vec<Gather>,
    /// Per-shard commit outputs (nodes informed this round).
    new_nodes: Vec<Vec<u32>>,
}

impl ShardScratch {
    fn prepare(&mut self, n: usize, shards: usize, lanes: usize) {
        self.lane_deltas.resize_with(lanes, EdgeDelta::default);
        for d in &mut self.lane_deltas {
            d.clear();
        }
        self.lane_scans.resize_with(lanes, LaneScan::default);
        self.lane_churn.clear();
        self.lane_churn.resize(lanes, 0);
        self.merged.clear();
        self.adj.reset(n);
        self.bits.clear();
        self.bits.resize(n.div_ceil(64), 0);
        self.informed_at.clear();
        self.informed_at.resize(n, UNINFORMED);
        self.informed_list.clear();
        self.gather.resize_with(shards, Gather::default);
        for g in &mut self.gather {
            g.buckets.resize_with(shards, Vec::new);
            g.buckets.truncate(shards);
        }
        self.new_nodes.resize_with(shards, Vec::new);
        self.new_nodes.truncate(shards);
    }
}

/// What the executor reports after each committed round — enough for
/// the engine to drive observers and for [`crate::flooding`] to build a
/// [`crate::flooding::FloodRun`].
pub(crate) struct RoundEvent<'a> {
    /// The (1-based) round that just completed.
    pub round: u32,
    /// Nodes informed this round, in shard-commit order.
    pub newly_informed: &'a [u32],
    /// `|I_t|` after this round.
    pub informed_count: usize,
    /// Messages transmitted this round.
    pub messages: u64,
    /// The round's merged churn (a full emission on the first adjacency
    /// round); `None` on scan rounds.
    pub delta: Option<&'a EdgeDelta>,
    /// The post-apply edge set, for observers that need snapshots;
    /// `None` on scan rounds.
    pub adj: Option<&'a mut DynAdjacency>,
}

/// Terminal summary of one lane-executor flooding trial.
pub(crate) struct ShardOutcome {
    /// Round at which the last node was informed, if flooding completed.
    pub completed: Option<u32>,
    /// Rounds executed.
    pub rounds: u32,
    /// Total messages across all executed rounds.
    pub messages: u64,
    /// Nodes informed by the end of the run.
    pub informed: usize,
}

/// Which kind of round a lane-executor trial starts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FirstRounds {
    /// Scan rounds, switching to adjacency rounds once the scans have
    /// cost more than an adjacency would have (see the module docs).
    Scan,
    /// Adjacency rounds from round 1 — for callers that need the delta
    /// or the adjacency every round.
    Adjacency,
}

#[cfg(test)]
thread_local! {
    /// Rounds after which this thread's trials switched from scan to
    /// adjacency rounds, in order — the test hook behind the
    /// at-most-one-switch pin.
    pub(crate) static SWITCHES: std::cell::RefCell<Vec<u32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs one flooding trial over the model's lanes on `threads` threads.
///
/// Semantics (round structure, message counts, completion) replicate
/// the engine's delta path with the [`crate::engine::Flooding`]
/// protocol exactly; see the module docs for the two round kinds, the
/// switch between them and the determinism argument.
#[allow(clippy::too_many_arguments)] // internal executor entry
pub(crate) fn flood_sharded_core(
    n: usize,
    access: &mut dyn ShardAccess,
    sources: &[u32],
    max_rounds: u32,
    threads: usize,
    first: FirstRounds,
    scratch: &mut ShardScratch,
    mut on_round: impl FnMut(RoundEvent<'_>),
) -> ShardOutcome {
    let threads = threads.max(1);
    // 64-aligned shard width, so bitset words never straddle shards.
    let span = n.div_ceil(threads).next_multiple_of(64);
    let shards = n.div_ceil(span);

    scratch.prepare(n, shards, access.lanes().len());

    for &s in sources {
        assert!((s as usize) < n, "flood source {s} out of range");
        assert_eq!(
            scratch.informed_at[s as usize], UNINFORMED,
            "duplicate flood source {s}"
        );
        scratch.informed_at[s as usize] = 0;
        scratch.bits[s as usize / 64] |= 1 << (s % 64);
        scratch.informed_list.push(s);
    }

    let obs = engine_obs();

    let mut completed = (scratch.informed_list.len() == n).then_some(0u32);
    let mut t: u32 = 0;
    let mut frontier_start = 0usize;
    let mut informed_degree: u64 = 0;
    let mut messages_total: u64 = 0;
    let mut scanning = first == FirstRounds::Scan;
    // Scan-round totals for the switch: edges read, churn skipped.
    let mut scanned: u64 = 0;
    let mut skipped: u64 = 0;
    // The first adjacency round re-emits the full edge set.
    let mut emit_full = true;

    while completed.is_none() && t < max_rounds {
        if scanning {
            // Phase 1: advance the lanes without recording churn.
            {
                let _span = obs.model_step.start();
                run_parallel(
                    threads,
                    access.lanes().into_iter().zip(&mut scratch.lane_churn),
                    |(lane, churn)| *churn = lane.advance_quiet(),
                );
            }
            if dg_obs::enabled() {
                shard_obs().record_round(scratch.lane_churn.iter().copied());
            }
            let _span = obs.protocol.start();
            // Phase 2: every lane scans its on-set against I_t.
            {
                let informed = &scratch.bits;
                run_parallel(
                    threads,
                    access.lanes().into_iter().zip(&mut scratch.lane_scans),
                    |(lane, out)| out.scan(lane.edges(), informed, span, shards),
                );
            }
            // Phase 3: commit the lanes' candidates per node shard.
            let lane_scans = &scratch.lane_scans;
            commit_round(
                threads,
                &mut scratch.bits,
                &mut scratch.informed_at,
                &mut scratch.new_nodes,
                span,
                t + 1,
                |s| lane_scans.iter().map(move |l| l.buckets[s].as_slice()),
            );
            let mut edges = 0u64;
            informed_degree = 0;
            for l in lane_scans {
                edges += l.edges;
                informed_degree += l.messages;
            }
            scanned += edges;
            skipped += scratch.lane_churn.iter().sum::<u64>();
            if scanned > ADJ_EDGE_COST.saturating_mul(edges + skipped) {
                scanning = false;
                #[cfg(test)]
                SWITCHES.with(|s| s.borrow_mut().push(t + 1));
            }
        } else {
            if emit_full {
                // The full emission's added-edge accounting rebuilds the
                // informed-degree sum from zero.
                informed_degree = 0;
            }
            // Phase 1: step the lanes, recording churn.
            {
                let _span = obs.model_step.start();
                let merged = &mut scratch.merged;
                merged.begin_round();
                if threads <= 1 {
                    // One thread: the serial sweep itself, straight into
                    // the merged delta.
                    access.step_lanes(merged, emit_full, &mut scratch.lane_churn);
                } else {
                    run_parallel(
                        threads,
                        access.lanes().into_iter().zip(&mut scratch.lane_deltas),
                        |(lane, delta)| {
                            delta.begin_round();
                            lane.step_round(delta, emit_full);
                        },
                    );
                    // Merge in lane order: byte-identical to a serial
                    // lane sweep.
                    for (ld, churn) in scratch.lane_deltas.iter().zip(&mut scratch.lane_churn) {
                        merged.merge_from(ld);
                        *churn = ld.churn() as u64;
                    }
                }
            }
            emit_full = false;
            if dg_obs::enabled() {
                shard_obs().record_round(scratch.lane_churn.iter().copied());
            }

            // Phase 2: apply — on one thread the serial DynAdjacency::apply
            // (no range views to allocate), else partitioned, with the
            // same bulk-load fast path on the full emission.
            {
                let _span = obs.delta_apply.start();
                let merged = &scratch.merged;
                if threads <= 1 {
                    scratch.adj.apply(merged);
                } else {
                    let bulk = scratch.adj.is_edgeless() && merged.removed().is_empty();
                    let ranges = scratch.adj.range_shards(span);
                    run_parallel(threads, ranges.into_iter(), |mut r| {
                        if bulk {
                            r.bulk_load_own_halves(merged.added());
                        } else {
                            r.apply_own_halves(merged);
                        }
                    });
                    scratch.adj.commit_partitioned(merged);
                }
            }

            let _span = obs.protocol.start();
            // Phase 3: read-only frontier + churn scan per node shard.
            {
                let adj = &scratch.adj;
                let merged = &scratch.merged;
                let bits = &scratch.bits;
                let informed_at = &scratch.informed_at;
                let frontier = &scratch.informed_list[frontier_start..];
                run_parallel(threads, scratch.gather.iter_mut().enumerate(), |(s, g)| {
                    g.begin_round();
                    let lo = (s * span) as u32;
                    let hi = ((s + 1) * span).min(n) as u32;
                    let owns = |x: u32| x >= lo && x < hi;
                    // "Informed before this round" excludes the current
                    // frontier — the exact predicate of the serial
                    // Flooding::transmit_delta message bookkeeping.
                    let informed_before = |x: u32| informed_at[x as usize] < t;
                    let informed_now = |x: u32| bits[x as usize / 64] >> (x % 64) & 1 == 1;
                    for &(u, v) in merged.removed() {
                        if owns(u) && informed_before(u) {
                            g.removed_informed += 1;
                        }
                        if owns(v) && informed_before(v) {
                            g.removed_informed += 1;
                        }
                    }
                    for &(u, v) in merged.added() {
                        if owns(u) {
                            if informed_before(u) {
                                g.added_informed += 1;
                            }
                            if !informed_now(u) && informed_now(v) {
                                g.own_cands.push(u);
                            }
                        }
                        if owns(v) {
                            if informed_before(v) {
                                g.added_informed += 1;
                            }
                            if !informed_now(v) && informed_now(u) {
                                g.own_cands.push(v);
                            }
                        }
                    }
                    for &f in frontier {
                        if !owns(f) {
                            continue;
                        }
                        g.frontier_degree += adj.degree(f) as u64;
                        for &w in adj.neighbors(f) {
                            if !informed_now(w) {
                                g.buckets[w as usize / span].push(w);
                            }
                        }
                    }
                });
            }

            // Phase 4: commit — each shard informs its own nodes (its own
            // bitset words and informed-at slice; no write sharing).
            let gather = &scratch.gather;
            commit_round(
                threads,
                &mut scratch.bits,
                &mut scratch.informed_at,
                &mut scratch.new_nodes,
                span,
                t + 1,
                |s| {
                    std::iter::once(gather[s].own_cands.as_slice())
                        .chain(gather.iter().map(move |g| g.buckets[s].as_slice()))
                },
            );
            for g in gather {
                informed_degree =
                    informed_degree + g.added_informed - g.removed_informed + g.frontier_degree;
            }
        }

        // The coordinator splices new nodes in shard order.
        t += 1;
        messages_total += informed_degree;
        frontier_start = scratch.informed_list.len();
        for news in &scratch.new_nodes {
            scratch.informed_list.extend_from_slice(news);
        }
        if scratch.informed_list.len() == n {
            completed = Some(t);
        }
        let adjacency = !scanning && !emit_full;
        let _span = obs.observer.start();
        on_round(RoundEvent {
            round: t,
            newly_informed: &scratch.informed_list[frontier_start..],
            informed_count: scratch.informed_list.len(),
            messages: informed_degree,
            delta: adjacency.then_some(&scratch.merged),
            adj: adjacency.then_some(&mut scratch.adj),
        });
    }

    ShardOutcome {
        completed,
        rounds: t,
        messages: messages_total,
        informed: scratch.informed_list.len(),
    }
}

/// Commits one round's candidates: node shard `s` informs the nodes of
/// every slice `cands(s)` yields — its own bitset words and informed-at
/// slice, so shards commit concurrently without write sharing — and
/// records them, in order, in `new_nodes[s]`.
fn commit_round<'c, I>(
    threads: usize,
    bits: &mut [u64],
    informed_at: &mut [u32],
    new_nodes: &mut [Vec<u32>],
    span: usize,
    round: u32,
    cands: impl Fn(usize) -> I + Sync,
) where
    I: Iterator<Item = &'c [u32]>,
{
    let units = bits
        .chunks_mut(span / 64)
        .zip(informed_at.chunks_mut(span))
        .zip(new_nodes.iter_mut())
        .enumerate();
    run_parallel(threads, units, |(s, ((words, at), news))| {
        news.clear();
        let base = (s * span) as u32;
        for slice in cands(s) {
            for &v in slice {
                commit(v, base, round, words, at, news);
            }
        }
    });
}

/// Marks `v` informed in its shard's bitset words, recording its round
/// and membership — the dedup point where a node reachable through
/// several candidates is informed exactly once.
#[inline]
fn commit(v: u32, base: u32, round: u32, words: &mut [u64], at: &mut [u32], news: &mut Vec<u32>) {
    let local = (v - base) as usize;
    let w = local / 64;
    let m = 1u64 << (local % 64);
    if words[w] & m == 0 {
        words[w] |= m;
        at[local] = round;
        news.push(v);
    }
}

/// Runs `f` once per unit. With one thread every unit runs inline on
/// the calling thread, in order, allocating nothing — the `shards = 1`
/// path. Otherwise units are dealt round-robin to at most `threads`
/// scoped threads (lane pair-mass grows with the node id, so striding
/// balances lanes better than contiguous chunks; node shards number at
/// most `threads`, so each gets its own thread).
fn run_parallel<T: Send>(threads: usize, units: impl Iterator<Item = T>, f: impl Fn(T) + Sync) {
    if threads <= 1 {
        units.for_each(f);
        return;
    }
    let mut work: Vec<Vec<T>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, unit) in units.enumerate() {
        work[i % threads].push(unit);
    }
    work.retain(|w| !w.is_empty());
    if work.len() <= 1 {
        work.into_iter().flatten().for_each(f);
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        for unit in work {
            scope.spawn(move || unit.into_iter().for_each(f));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small dense lane model for executor tests: `n` nodes, lanes
    /// over contiguous runs of pairs, every pair a two-state chain
    /// (birth `p`, death `q`) stepped by its lane's own splitmix stream.
    struct ToyLanes {
        lanes: Vec<ToyLane>,
    }

    struct ToyLane {
        pairs: Vec<(u32, u32)>,
        on: Vec<bool>,
        /// The on pairs, in pair order.
        alive: Vec<(u32, u32)>,
        p: f64,
        q: f64,
        state: u64,
    }

    impl ToyLanes {
        fn new(n: u32, lanes: usize, p: f64, q: f64, seed: u64) -> Self {
            let pairs: Vec<(u32, u32)> = (1..n).flat_map(|v| (0..v).map(move |u| (u, v))).collect();
            let chunk = pairs.len().div_ceil(lanes).max(1);
            let alpha = p / (p + q);
            let lanes = pairs
                .chunks(chunk)
                .enumerate()
                .map(|(l, c)| {
                    let mut lane = ToyLane {
                        pairs: c.to_vec(),
                        on: Vec::new(),
                        alive: Vec::new(),
                        p,
                        q,
                        state: seed ^ (l as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    };
                    lane.on = (0..c.len()).map(|_| lane.uniform() < alpha).collect();
                    lane.sync_alive();
                    lane
                })
                .collect();
            ToyLanes { lanes }
        }
    }

    impl ToyLane {
        fn uniform(&mut self) -> f64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        }

        fn advance(&mut self, mut delta: Option<&mut EdgeDelta>) -> u64 {
            let mut churn = 0;
            for i in 0..self.pairs.len() {
                let rate = if self.on[i] { self.q } else { self.p };
                if self.uniform() < rate {
                    self.on[i] = !self.on[i];
                    churn += 1;
                    match delta.as_deref_mut() {
                        Some(d) if self.on[i] => d.push_added(self.pairs[i]),
                        Some(d) => d.push_removed(self.pairs[i]),
                        None => {}
                    }
                }
            }
            self.sync_alive();
            churn
        }

        fn sync_alive(&mut self) {
            self.alive.clear();
            let on = self.pairs.iter().zip(&self.on).filter(|p| *p.1);
            self.alive.extend(on.map(|p| *p.0));
        }
    }

    impl ShardLane for ToyLane {
        fn step_round(&mut self, delta: &mut EdgeDelta, emit_full: bool) {
            if emit_full {
                self.advance(None);
                for (i, &e) in self.pairs.iter().enumerate() {
                    if self.on[i] {
                        delta.push_added(e);
                    }
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

    impl ShardAccess for ToyLanes {
        fn lanes(&mut self) -> Vec<&mut dyn ShardLane> {
            self.lanes
                .iter_mut()
                .map(|l| l as &mut dyn ShardLane)
                .collect()
        }
    }

    /// One toy trial: `(informed_at, per-round (messages, informed
    /// count, delta present), outcome (completed, rounds, messages),
    /// switch rounds)`.
    type ToyRun = (
        Vec<u32>,
        Vec<(u64, usize, bool)>,
        (Option<u32>, u32, u64),
        Vec<u32>,
    );

    fn toy_flood(n: u32, p: f64, q: f64, seed: u64, threads: usize, first: FirstRounds) -> ToyRun {
        let mut model = ToyLanes::new(n, 7, p, q, seed);
        let mut scratch = ShardScratch::default();
        let mut rounds = Vec::new();
        SWITCHES.with(|s| s.borrow_mut().clear());
        let out = flood_sharded_core(
            n as usize,
            &mut model,
            &[0],
            400,
            threads,
            first,
            &mut scratch,
            |ev| rounds.push((ev.messages, ev.informed_count, ev.delta.is_some())),
        );
        let switches = SWITCHES.with(|s| s.borrow().clone());
        (
            scratch.informed_at,
            rounds,
            (out.completed, out.rounds, out.messages),
            switches,
        )
    }

    #[test]
    fn scan_rounds_match_adjacency_rounds() {
        // Fast and slow churn, dense and sparse (the last pair switches
        // mid-trial), every thread count: the
        // informed-at rounds, per-round messages and totals agree.
        for (p, q) in [
            (0.02, 0.3),
            (0.3, 0.6),
            (1e-4, 1e-3),
            (0.004, 0.01),
            (2e-5, 1e-3),
        ] {
            for seed in [1u64, 2, 3] {
                let (at, rounds, out, _) = toy_flood(70, p, q, seed, 1, FirstRounds::Adjacency);
                assert!(rounds.iter().all(|r| r.2), "adjacency rounds carry deltas");
                for threads in [1usize, 2, 3, 8] {
                    let scan = toy_flood(70, p, q, seed, threads, FirstRounds::Scan);
                    let strip = |r: &[(u64, usize, bool)]| -> Vec<(u64, usize)> {
                        r.iter().map(|&(m, c, _)| (m, c)).collect()
                    };
                    assert_eq!(scan.0, at, "p {p}, q {q}, seed {seed}, {threads} threads");
                    assert_eq!(strip(&scan.1), strip(&rounds));
                    assert_eq!(scan.2, out);
                }
            }
        }
    }

    #[test]
    fn scan_switches_at_most_once_and_early_under_slow_churn() {
        let mut switched = 0;
        for seed in 0..12u64 {
            // Slow churn, sparse: floods stall for hundreds of rounds.
            let (_, rounds, out, switches) = toy_flood(60, 2e-5, 1e-3, seed, 1, FirstRounds::Scan);
            assert!(switches.len() <= 1, "seed {seed}: switches {switches:?}");
            if out.1 > ADJ_EDGE_COST as u32 + 1 {
                // Churn is near zero, so the scans overtake one
                // adjacency build after W + 1 rounds.
                let at = *switches.first().expect("a long slow-churn trial switches");
                assert!(
                    at <= ADJ_EDGE_COST as u32 + 1,
                    "seed {seed}: switched at {at}"
                );
                // Scan rounds report no delta; every later round does.
                let kinds: Vec<bool> = rounds.iter().map(|r| r.2).collect();
                assert!(kinds[..at as usize].iter().all(|&d| !d));
                assert!(kinds[at as usize..].iter().all(|&d| d));
                switched += 1;
            }
        }
        assert!(switched >= 6, "only {switched} of 12 slow trials ran long");
        // Fast churn never switches: churn outgrows the edge set.
        for seed in 0..4u64 {
            let (.., switches) = toy_flood(60, 0.02, 0.9, seed, 1, FirstRounds::Scan);
            assert!(switches.is_empty(), "seed {seed}: switches {switches:?}");
        }
        // Adjacency-first trials never scan, so never switch.
        let (.., switches) = toy_flood(60, 2e-5, 1e-3, 5, 2, FirstRounds::Adjacency);
        assert!(switches.is_empty());
    }

    #[test]
    fn shards_resolve_and_convert() {
        assert_eq!(Shards::Fixed(4).resolve(), 4);
        assert_eq!(Shards::Fixed(0).resolve(), 1);
        assert!(Shards::Auto.resolve() >= 1);
        assert_eq!(Shards::from(8), Shards::Fixed(8));
        assert_eq!(Shards::default(), Shards::Fixed(1));
    }

    #[test]
    fn run_parallel_covers_every_unit() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let total = AtomicU64::new(0);
        for threads in [1, 2, 3, 200] {
            total.store(0, Ordering::Relaxed);
            run_parallel(threads, 1u64..=100, |x| {
                total.fetch_add(x, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 5050, "{threads} threads");
        }
        // Single unit: inline path.
        run_parallel(4, std::iter::once(7u64), |x| {
            total.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 5057);
        run_parallel(4, std::iter::empty::<u64>(), |_| unreachable!());
    }
}
