//! The dynamic-graph process abstraction and generic combinators.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{DynagraphError, EdgeDelta, Snapshot};

/// A dynamic graph `G([n], {E_t})` in the sense of §2 of the paper: a
/// synchronous stochastic process producing one edge set per round over a
/// fixed vertex set `[n]`.
///
/// Implementations own their randomness: [`EvolvingGraph::reset`]
/// re-initializes the process from its initial distribution with a given
/// seed, making every experiment reproducible.
///
/// The class of processes is deliberately broader than Markovian evolving
/// graphs — the paper's Theorem 1 is stated for arbitrary
/// `(M, α, β)`-stationary processes — so nothing here assumes the
/// Markov property.
pub trait EvolvingGraph {
    /// Number of nodes `n`.
    fn node_count(&self) -> usize;

    /// Advances the process one round and exposes the new edge set `E_t`.
    ///
    /// The first call after construction or [`EvolvingGraph::reset`]
    /// produces `E_0`.
    fn step(&mut self) -> &Snapshot;

    /// Re-initializes the process from its initial distribution, seeding
    /// all internal randomness from `seed`.
    ///
    /// # The reuse contract
    ///
    /// `reset(s)` must leave the process **observably identical to a
    /// fresh construction with seed `s`**: the same realization (edge-set
    /// sequence, on both stepping paths) from the same seed, with no
    /// residue of earlier rounds — including any lazily grown internal
    /// state. This is what lets the engine and sweep layers build one
    /// model per worker and re-randomize it in place between trials
    /// instead of reconstructing (zero-rebuild trials); the cross-crate
    /// property suites pin the equivalence for every model in the
    /// workspace via [`crate::assert_reset_matches_fresh`].
    ///
    /// Wrappers over an inner process ([`ThinnedEvolvingGraph`],
    /// [`JammedEvolvingGraph`]) reset the inner model with the **same**
    /// seed they receive, so the canonical factory shape
    /// `Wrapper::new(inner_constructor(seed), ..., seed)` is
    /// reset-equivalent by construction. Streams of *different* layers
    /// stay independent only through each model's internal derivation
    /// tag — so stacking two wrappers of the **same type** on one seed
    /// would hand both layers the identical coin sequence; give each
    /// layer of a same-type stack its own derived seed (e.g.
    /// `mix_seed(seed, depth)`) at construction *and* accept that such
    /// a factory is not reset-equivalent, or avoid same-type stacking.
    ///
    /// `reset` must also break the delta baseline (like construction,
    /// the next [`EvolvingGraph::step_delta`] is a full emission), and
    /// be idempotent: `reset(s); reset(s)` ≡ `reset(s)`.
    fn reset(&mut self, seed: u64);

    /// Advances the process one round and records the edge churn relative
    /// to the previous round into `delta`.
    ///
    /// Consumes exactly the same randomness as [`EvolvingGraph::step`]
    /// would for the same round, so the two stepping paths produce
    /// identical realizations from the same seed.
    ///
    /// # Contract
    ///
    /// The delta is relative to the edge set exposed by the *previous*
    /// `step`/`step_delta` call. After construction,
    /// [`EvolvingGraph::reset`], [`EvolvingGraph::warm_up`], or a plain
    /// `step`, the next `step_delta` describes the full edge set relative
    /// to the empty graph — so a freshly created
    /// [`crate::DynAdjacency`] synchronizes on its first
    /// [`apply`](crate::DynAdjacency::apply).
    ///
    /// The default implementation steps the snapshot path and diffs
    /// against the previous snapshot (scratch lives inside `delta`, so
    /// reuse the same buffer across rounds); implement it natively — and
    /// flag it via [`EvolvingGraph::has_native_deltas`] — when the model
    /// can enumerate its churn in `O(churn)`.
    fn step_delta(&mut self, delta: &mut EdgeDelta) {
        let snap = self.step();
        delta.diff_snapshot(snap);
    }

    /// `true` when [`EvolvingGraph::step_delta`] is implemented natively
    /// (per-round cost proportional to churn, no snapshot
    /// materialization). The engine (and so [`crate::flooding::flood`])
    /// uses this to pick the delta path automatically.
    fn has_native_deltas(&self) -> bool {
        false
    }

    /// Forgets the delta baseline: the next [`EvolvingGraph::step_delta`]
    /// emits the full edge set relative to the empty graph.
    ///
    /// Models with native deltas must implement this (the default
    /// snapshot-diffing path keeps its baseline inside the consumer's
    /// [`EdgeDelta`], so the default is a no-op).
    fn rebase_deltas(&mut self) {}

    /// Advances the process `rounds` rounds, discarding the edge sets.
    ///
    /// Used to let a Markovian process approach its stationary
    /// distribution before measurements begin (the paper's bounds are for
    /// *stationary* MEGs). Models with native deltas warm up on the delta
    /// path — `O(churn)` per round, no snapshot ever materialized — and
    /// are rebased afterwards, so the next `step_delta` emits the full
    /// (warmed-up) edge set; everything else just steps (diffing would be
    /// pure overhead for a discarded round).
    fn warm_up(&mut self, rounds: usize) {
        if self.has_native_deltas() {
            let mut scratch = EdgeDelta::new();
            for _ in 0..rounds {
                self.step_delta(&mut scratch);
            }
            self.rebase_deltas();
        } else {
            for _ in 0..rounds {
                self.step();
            }
        }
    }

    /// Exposes the model's lane decomposition to the engine's intra-trial
    /// sharded executor ([`crate::shard`]), if it has one.
    ///
    /// Models that can advance disjoint slices of their pair space
    /// independently (fixed logical lanes with per-lane RNG streams,
    /// like `dg-edge-meg`'s `ShardedSparseEdgeMeg`) return their
    /// [`ShardAccess`](crate::shard::ShardAccess) view here; the engine
    /// then steps the lanes on several threads within a *single* trial.
    /// The default `None` keeps every existing model on the serial
    /// per-round path — the engine silently falls back.
    fn sharding(&mut self) -> Option<&mut dyn crate::shard::ShardAccess> {
        None
    }
}

/// The degenerate dynamic graph whose snapshot never changes.
///
/// Flooding on a `StaticEvolvingGraph` is plain BFS, which makes this the
/// reference point for tests and the trivial `Ω(D)` lower bounds quoted in
/// §4.1.
///
/// # Examples
///
/// ```
/// use dynagraph::{EvolvingGraph, StaticEvolvingGraph};
/// use dg_graph::generators;
///
/// let mut g = StaticEvolvingGraph::new(generators::path(4));
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.step().edge_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct StaticEvolvingGraph {
    snapshot: Snapshot,
    edges: Vec<(u32, u32)>,
    synced: bool,
}

impl StaticEvolvingGraph {
    /// Wraps a static graph.
    pub fn new(graph: dg_graph::Graph) -> Self {
        let mut snapshot = Snapshot::empty(graph.node_count());
        let edges: Vec<(u32, u32)> = graph.edges().collect();
        snapshot.rebuild_from_edges(&edges);
        let edges = snapshot.edges().collect();
        StaticEvolvingGraph {
            snapshot,
            edges,
            synced: false,
        }
    }
}

impl EvolvingGraph for StaticEvolvingGraph {
    fn node_count(&self) -> usize {
        self.snapshot.node_count()
    }

    fn step(&mut self) -> &Snapshot {
        self.synced = false;
        &self.snapshot
    }

    fn step_delta(&mut self, delta: &mut EdgeDelta) {
        delta.begin_round();
        if !self.synced {
            delta.record_full(self.edges.iter().copied());
            self.synced = true;
        }
    }

    fn has_native_deltas(&self) -> bool {
        true
    }

    fn rebase_deltas(&mut self) {
        self.synced = false;
    }

    fn reset(&mut self, _seed: u64) {
        self.synced = false;
    }
}

/// A deterministic, periodic (hence non-Markovian in general) dynamic
/// graph cycling through a fixed list of snapshots.
///
/// Used to exercise the claim that the framework — and the
/// `(M, α, β)`-stationarity analysis of §3 — does not require the Markov
/// property, and as an adversarial fixture in tests.
#[derive(Debug, Clone)]
pub struct PeriodicEvolvingGraph {
    snapshots: Vec<Snapshot>,
    /// `deltas[i]` is the churn from `snapshots[i]` to
    /// `snapshots[(i + 1) % period]`, precomputed at construction.
    deltas: Vec<crate::delta::DeltaPair>,
    cursor: usize,
    synced: bool,
}

impl PeriodicEvolvingGraph {
    /// Builds a periodic process from a non-empty list of graphs on the
    /// same vertex set.
    ///
    /// # Errors
    ///
    /// Returns [`DynagraphError::DimensionMismatch`] if the list is empty
    /// or the graphs disagree on the node count.
    pub fn new(graphs: &[dg_graph::Graph]) -> Result<Self, DynagraphError> {
        let n = graphs
            .first()
            .ok_or(DynagraphError::DimensionMismatch {
                expected: 1,
                found: 0,
            })?
            .node_count();
        let mut snapshots = Vec::with_capacity(graphs.len());
        for g in graphs {
            if g.node_count() != n {
                return Err(DynagraphError::DimensionMismatch {
                    expected: n,
                    found: g.node_count(),
                });
            }
            let mut s = Snapshot::empty(n);
            let edges: Vec<(u32, u32)> = g.edges().collect();
            s.rebuild_from_edges(&edges);
            snapshots.push(s);
        }
        let edge_lists: Vec<Vec<(u32, u32)>> =
            snapshots.iter().map(|s| s.edges().collect()).collect();
        let period = snapshots.len();
        let mut scratch = EdgeDelta::new();
        let deltas = (0..period)
            .map(|i| {
                scratch.record_transition(&edge_lists[i], &edge_lists[(i + 1) % period]);
                (scratch.added().to_vec(), scratch.removed().to_vec())
            })
            .collect();
        Ok(PeriodicEvolvingGraph {
            snapshots,
            deltas,
            cursor: 0,
            synced: false,
        })
    }

    /// The period length.
    pub fn period(&self) -> usize {
        self.snapshots.len()
    }
}

impl EvolvingGraph for PeriodicEvolvingGraph {
    fn node_count(&self) -> usize {
        self.snapshots[0].node_count()
    }

    fn step(&mut self) -> &Snapshot {
        self.synced = false;
        let s = &self.snapshots[self.cursor];
        self.cursor = (self.cursor + 1) % self.snapshots.len();
        s
    }

    fn step_delta(&mut self, delta: &mut EdgeDelta) {
        let period = self.snapshots.len();
        if self.synced {
            let from = (self.cursor + period - 1) % period;
            let (added, removed) = &self.deltas[from];
            delta.begin_round();
            for &e in added {
                delta.push_added(e);
            }
            for &e in removed {
                delta.push_removed(e);
            }
        } else {
            delta.record_full(self.snapshots[self.cursor].edges());
            self.synced = true;
        }
        self.cursor = (self.cursor + 1) % period;
    }

    fn has_native_deltas(&self) -> bool {
        true
    }

    fn rebase_deltas(&mut self) {
        self.synced = false;
    }

    fn reset(&mut self, _seed: u64) {
        self.cursor = 0;
        self.synced = false;
    }
}

/// Shared delta-native bookkeeping of the §5 wrappers: the inner
/// process's current edge set maintained as a sorted flat list (fed by
/// the inner delta stream), plus the wrapper's own previous visible set.
///
/// Both wrappers re-decide *every* inner edge's visibility each round
/// (survival coins / fresh victims), so their per-round floor is
/// `O(|E_t^inner|)` whatever the representation; this bookkeeping keeps
/// them at exactly that floor — no CSR materialization, no `O(n)`
/// snapshot term — which is what matters in the paper's very sparse
/// regimes where `|E_t| ≪ n`.
#[derive(Debug, Clone, Default)]
struct WrapperDeltaState {
    /// Reusable buffer for the inner process's per-round churn.
    inner_delta: EdgeDelta,
    /// The inner process's current edge set, lexicographically sorted.
    inner_edges: Vec<(u32, u32)>,
    /// Reusable merge target for `apply_to_sorted_with` (swapped with
    /// `inner_edges` each round, so steady state allocates nothing).
    merge_scratch: Vec<(u32, u32)>,
    /// The wrapper's previous visible (thinned/unjammed) edge set, sorted.
    visible: Vec<(u32, u32)>,
    /// Scratch for this round's visible set.
    next_visible: Vec<(u32, u32)>,
    /// `true` when `inner_edges` tracks the inner delta baseline; a plain
    /// `step`/`reset` invalidates it and forces a rebase + full re-sync.
    inner_synced: bool,
    /// `true` when the consumer's baseline matches `visible`; when
    /// false the next delta is a full emission.
    synced: bool,
}

impl WrapperDeltaState {
    /// Advances the inner process one round on the delta path and brings
    /// `inner_edges` up to date, rebasing first if a plain `step` or a
    /// `reset` broke the baseline.
    fn step_inner<G: EvolvingGraph>(&mut self, inner: &mut G) {
        if !self.inner_synced {
            inner.rebase_deltas();
            self.inner_delta.clear();
            self.inner_edges.clear();
            self.inner_synced = true;
        }
        inner.step_delta(&mut self.inner_delta);
        self.inner_delta
            .apply_to_sorted_with(&mut self.inner_edges, &mut self.merge_scratch);
    }

    /// Emits the wrapper's delta for this round — a transition against
    /// the previous visible set, or a full emission after a baseline
    /// break — and rolls `next_visible` into `visible`.
    fn emit(&mut self, delta: &mut EdgeDelta) {
        if self.synced {
            delta.record_transition(&self.visible, &self.next_visible);
        } else {
            delta.record_full(self.next_visible.iter().copied());
            self.synced = true;
        }
        std::mem::swap(&mut self.visible, &mut self.next_visible);
    }

    /// A plain `step` (or `reset`) happened: both baselines are stale.
    fn invalidate(&mut self) {
        self.inner_synced = false;
        self.synced = false;
    }
}

/// Independently keeps each edge of an inner process with probability
/// `gamma` each round — the "virtual dynamic graph in which a subset of
/// the edges are removed" of §5, used to reduce randomized transmission
/// protocols to plain flooding.
///
/// Both stepping paths draw one survival coin per inner edge in
/// lexicographic edge order, so `step` and
/// [`step_delta`](EvolvingGraph::step_delta) realize byte-identical
/// thinned sequences from the same seed; the delta path just never
/// materializes a snapshot.
///
/// # Examples
///
/// ```
/// use dynagraph::{EvolvingGraph, StaticEvolvingGraph, ThinnedEvolvingGraph};
/// use dg_graph::generators;
///
/// let inner = StaticEvolvingGraph::new(generators::complete(20));
/// let mut thin = ThinnedEvolvingGraph::new(inner, 0.1, 7).unwrap();
/// let m = thin.step().edge_count();
/// assert!(m < 190); // w.o.p. far fewer than all 190 edges survive
/// ```
#[derive(Debug, Clone)]
pub struct ThinnedEvolvingGraph<G> {
    inner: G,
    gamma: f64,
    rng: SmallRng,
    seed: u64,
    snapshot: Snapshot,
    edge_buf: Vec<(u32, u32)>,
    delta_state: WrapperDeltaState,
}

impl<G: EvolvingGraph> ThinnedEvolvingGraph<G> {
    /// Wraps `inner`, keeping each edge with probability `gamma` per round.
    ///
    /// # Errors
    ///
    /// Returns [`DynagraphError::ParameterOutOfRange`] unless
    /// `gamma ∈ [0, 1]`.
    pub fn new(inner: G, gamma: f64, seed: u64) -> Result<Self, DynagraphError> {
        if !(0.0..=1.0).contains(&gamma) || !gamma.is_finite() {
            return Err(DynagraphError::ParameterOutOfRange {
                name: "gamma",
                value: gamma,
            });
        }
        let n = inner.node_count();
        Ok(ThinnedEvolvingGraph {
            inner,
            gamma,
            rng: SmallRng::seed_from_u64(crate::mix_seed(seed, 0xC0FFEE)),
            seed,
            snapshot: Snapshot::empty(n),
            edge_buf: Vec::new(),
            delta_state: WrapperDeltaState::default(),
        })
    }

    /// The survival probability per edge per round.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The wrapped process.
    pub fn inner(&self) -> &G {
        &self.inner
    }
}

impl<G: EvolvingGraph> EvolvingGraph for ThinnedEvolvingGraph<G> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn step(&mut self) -> &Snapshot {
        let inner_snap = self.inner.step();
        self.edge_buf.clear();
        for (u, v) in inner_snap.edges() {
            if self.rng.gen_bool(self.gamma) {
                self.edge_buf.push((u, v));
            }
        }
        self.snapshot.rebuild_from_edges(&self.edge_buf);
        self.delta_state.invalidate();
        &self.snapshot
    }

    fn step_delta(&mut self, delta: &mut EdgeDelta) {
        self.delta_state.step_inner(&mut self.inner);
        // Survival sweep in sorted edge order — the exact order `step`
        // iterates the inner CSR snapshot, so the RNG stream (and the
        // realized thinned sequence) is identical on both paths.
        self.delta_state.next_visible.clear();
        for &(u, v) in &self.delta_state.inner_edges {
            if self.rng.gen_bool(self.gamma) {
                self.delta_state.next_visible.push((u, v));
            }
        }
        self.delta_state.emit(delta);
    }

    fn has_native_deltas(&self) -> bool {
        // The wrapper itself is delta-native; claim the fast path only
        // when the whole stack is, so `Stepping::Auto` stays honest for
        // wrapped third-party models.
        self.inner.has_native_deltas()
    }

    fn rebase_deltas(&mut self) {
        self.delta_state.synced = false;
    }

    fn reset(&mut self, seed: u64) {
        self.seed = seed;
        // Same seed as the canonical factory hands the inner constructor
        // (reset-equivalence, see the trait docs); the wrapper's own
        // stream stays independent through its 0xC0FFEE tag.
        self.inner.reset(seed);
        self.rng = SmallRng::seed_from_u64(crate::mix_seed(seed, 0xC0FFEE));
        self.delta_state.invalidate();
        self.delta_state.visible.clear();
    }
}

/// Failure injection: each round, `victims_per_round` uniformly chosen
/// nodes are *jammed* — all of their incident edges are removed from the
/// snapshot (radio jamming / crash-for-a-round semantics).
///
/// Jamming preserves the Markov property of the wrapped process (victims
/// are chosen freshly each round), so the `(M, α, β)` analysis of §3
/// still applies with `α` scaled by the probability that neither endpoint
/// is jammed.
///
/// # Examples
///
/// ```
/// use dynagraph::{EvolvingGraph, JammedEvolvingGraph, StaticEvolvingGraph};
/// use dg_graph::generators;
///
/// let inner = StaticEvolvingGraph::new(generators::complete(10));
/// let mut g = JammedEvolvingGraph::new(inner, 2, 1).unwrap();
/// // Two jammed nodes lose all 9 incident edges each (minus the shared one).
/// assert!(g.step().edge_count() <= 28);
/// ```
#[derive(Debug, Clone)]
pub struct JammedEvolvingGraph<G> {
    inner: G,
    victims_per_round: usize,
    rng: SmallRng,
    snapshot: Snapshot,
    edge_buf: Vec<(u32, u32)>,
    jammed: Vec<bool>,
    delta_state: WrapperDeltaState,
}

impl<G: EvolvingGraph> JammedEvolvingGraph<G> {
    /// Wraps `inner`, jamming `victims_per_round` random nodes each round.
    ///
    /// # Errors
    ///
    /// Returns [`DynagraphError::ParameterOutOfRange`] when
    /// `victims_per_round` exceeds the node count.
    pub fn new(inner: G, victims_per_round: usize, seed: u64) -> Result<Self, DynagraphError> {
        let n = inner.node_count();
        if victims_per_round > n {
            return Err(DynagraphError::ParameterOutOfRange {
                name: "victims_per_round",
                value: victims_per_round as f64,
            });
        }
        Ok(JammedEvolvingGraph {
            inner,
            victims_per_round,
            rng: SmallRng::seed_from_u64(crate::mix_seed(seed, 0x7A33)),
            snapshot: Snapshot::empty(n),
            edge_buf: Vec::new(),
            jammed: vec![false; n],
            delta_state: WrapperDeltaState::default(),
        })
    }

    /// Victims jammed per round.
    pub fn victims_per_round(&self) -> usize {
        self.victims_per_round
    }

    /// Draws this round's victim set — rejection sampling without
    /// replacement, shared verbatim by both stepping paths so the
    /// wrapper's RNG stream is identical either way.
    fn draw_victims(&mut self) {
        let n = self.jammed.len();
        self.jammed.fill(false);
        let mut chosen = 0usize;
        while chosen < self.victims_per_round {
            let v = self.rng.gen_range(0..n);
            if !self.jammed[v] {
                self.jammed[v] = true;
                chosen += 1;
            }
        }
    }
}

impl<G: EvolvingGraph> EvolvingGraph for JammedEvolvingGraph<G> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn step(&mut self) -> &Snapshot {
        self.draw_victims();
        let jammed = &self.jammed;
        let inner_snap = self.inner.step();
        self.edge_buf.clear();
        for (u, v) in inner_snap.edges() {
            if !jammed[u as usize] && !jammed[v as usize] {
                self.edge_buf.push((u, v));
            }
        }
        self.snapshot.rebuild_from_edges(&self.edge_buf);
        self.delta_state.invalidate();
        &self.snapshot
    }

    fn step_delta(&mut self, delta: &mut EdgeDelta) {
        // Victims first, then the inner step — the same order as `step`,
        // so the victim draws consume the identical RNG prefix.
        self.draw_victims();
        self.delta_state.step_inner(&mut self.inner);
        self.delta_state.next_visible.clear();
        for &(u, v) in &self.delta_state.inner_edges {
            if !self.jammed[u as usize] && !self.jammed[v as usize] {
                self.delta_state.next_visible.push((u, v));
            }
        }
        self.delta_state.emit(delta);
    }

    fn has_native_deltas(&self) -> bool {
        self.inner.has_native_deltas()
    }

    fn rebase_deltas(&mut self) {
        self.delta_state.synced = false;
    }

    fn reset(&mut self, seed: u64) {
        // Same seed to the inner as the canonical factory uses; the
        // jamming stream stays independent through its 0x7A33 tag.
        self.inner.reset(seed);
        self.rng = SmallRng::seed_from_u64(crate::mix_seed(seed, 0x7A33));
        self.delta_state.invalidate();
        self.delta_state.visible.clear();
    }
}

/// Test/diagnostics helper pinning the [`EvolvingGraph::reset`] reuse
/// contract: a *used* instance (constructed with a different seed and
/// stepped for a while) that is `reset(seed)` must realize exactly the
/// snapshot sequence of a freshly constructed `make(seed)` — and, via a
/// second pass through [`crate::delta::assert_replays_rebuild`], the
/// identical delta stream (reset must rebase it).
///
/// `make` is the same shape of factory the engine's
/// [`SimulationBuilder::model`](crate::engine::SimulationBuilder::model)
/// takes; call this from every model crate's property suite.
///
/// # Panics
///
/// Panics (with the failing round) on the first divergence.
pub fn assert_reset_matches_fresh<G, F>(make: F, perturb_seed: u64, seed: u64, rounds: usize)
where
    G: EvolvingGraph,
    F: Fn(u64) -> G,
{
    assert_ne!(perturb_seed, seed, "perturbation must use a different seed");
    // Snapshot path: dirty the instance, reset, compare step-for-step.
    let mut reused = make(perturb_seed);
    for _ in 0..rounds {
        let _ = reused.step();
    }
    reused.reset(seed);
    let mut fresh = make(seed);
    for round in 0..rounds {
        assert_eq!(
            reused.step(),
            fresh.step(),
            "reset({seed:#x}) diverged from fresh construction at round {round}"
        );
    }
    // Delta path: dirty through step_delta (growing any lazy internal
    // state), reset, and demand the fresh rebuild sequence replayed as
    // deltas — this also catches a reset that forgets to rebase.
    let mut reused = make(perturb_seed);
    let mut delta = EdgeDelta::new();
    for _ in 0..rounds {
        reused.step_delta(&mut delta);
    }
    reused.reset(seed);
    let mut fresh = make(seed);
    crate::delta::assert_replays_rebuild(&mut fresh, &mut reused, rounds);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_graph::generators;

    #[test]
    fn static_graph_constant() {
        let mut g = StaticEvolvingGraph::new(generators::cycle(5));
        let e0: Vec<_> = g.step().edges().collect();
        let e1: Vec<_> = g.step().edges().collect();
        assert_eq!(e0, e1);
        g.reset(9);
        assert_eq!(g.step().edge_count(), 5);
    }

    #[test]
    fn periodic_cycles() {
        let a = generators::path(3);
        let b = generators::complete(3);
        let mut g = PeriodicEvolvingGraph::new(&[a, b]).unwrap();
        assert_eq!(g.period(), 2);
        assert_eq!(g.step().edge_count(), 2);
        assert_eq!(g.step().edge_count(), 3);
        assert_eq!(g.step().edge_count(), 2);
        g.reset(0);
        assert_eq!(g.step().edge_count(), 2);
    }

    #[test]
    fn periodic_rejects_mismatched() {
        let a = generators::path(3);
        let b = generators::path(4);
        assert!(PeriodicEvolvingGraph::new(&[a, b]).is_err());
        assert!(PeriodicEvolvingGraph::new(&[]).is_err());
    }

    #[test]
    fn thinning_extremes() {
        let inner = StaticEvolvingGraph::new(generators::complete(10));
        let mut keep_all = ThinnedEvolvingGraph::new(inner.clone(), 1.0, 1).unwrap();
        assert_eq!(keep_all.step().edge_count(), 45);
        let mut keep_none = ThinnedEvolvingGraph::new(inner, 0.0, 1).unwrap();
        assert!(keep_none.step().is_edgeless());
    }

    #[test]
    fn thinning_rate() {
        let inner = StaticEvolvingGraph::new(generators::complete(40));
        let mut g = ThinnedEvolvingGraph::new(inner, 0.3, 5).unwrap();
        let mut total = 0usize;
        let rounds = 200;
        for _ in 0..rounds {
            total += g.step().edge_count();
        }
        let mean = total as f64 / rounds as f64;
        let expected = 0.3 * 780.0;
        assert!((mean - expected).abs() < 15.0, "mean = {mean}");
    }

    #[test]
    fn thinning_rejects_bad_gamma() {
        let inner = StaticEvolvingGraph::new(generators::path(2));
        assert!(ThinnedEvolvingGraph::new(inner.clone(), -0.1, 0).is_err());
        assert!(ThinnedEvolvingGraph::new(inner, 1.1, 0).is_err());
    }

    #[test]
    fn thinning_reset_reproducible() {
        let inner = StaticEvolvingGraph::new(generators::complete(12));
        let mut g = ThinnedEvolvingGraph::new(inner, 0.5, 3).unwrap();
        g.reset(77);
        let a: Vec<_> = g.step().edges().collect();
        g.reset(77);
        let b: Vec<_> = g.step().edges().collect();
        assert_eq!(a, b);
        g.reset(78);
        let c: Vec<_> = g.step().edges().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn warm_up_advances() {
        let mut g = StaticEvolvingGraph::new(generators::path(3));
        g.warm_up(10); // must not panic or hang
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn static_deltas_are_full_then_empty() {
        let mut g = StaticEvolvingGraph::new(generators::cycle(5));
        assert!(g.has_native_deltas());
        let mut d = EdgeDelta::new();
        g.step_delta(&mut d);
        assert_eq!(d.added().len(), 5);
        g.step_delta(&mut d);
        assert!(d.is_empty());
        // After a plain step() the baseline is forgotten again.
        let _ = g.step();
        g.step_delta(&mut d);
        assert_eq!(d.added().len(), 5);
    }

    #[test]
    fn warm_up_rebases_native_deltas() {
        let mut g = StaticEvolvingGraph::new(generators::path(4));
        g.warm_up(3);
        let mut d = EdgeDelta::new();
        g.step_delta(&mut d);
        assert_eq!(d.added().len(), 3, "post-warm-up delta must be full");
    }

    #[test]
    fn periodic_deltas_replay_rebuild_across_reset() {
        let a = generators::path(5);
        let b = generators::complete(5);
        let c = generators::star(5);
        let mut rebuild = PeriodicEvolvingGraph::new(&[a.clone(), b.clone(), c.clone()]).unwrap();
        let mut delta = PeriodicEvolvingGraph::new(&[a, b, c]).unwrap();
        crate::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 8);
        rebuild.reset(1);
        delta.reset(1);
        crate::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 8);
    }

    #[test]
    fn thinned_deltas_replay_rebuild() {
        let inner = StaticEvolvingGraph::new(generators::complete(8));
        let mut rebuild = ThinnedEvolvingGraph::new(inner.clone(), 0.4, 9).unwrap();
        let mut delta = ThinnedEvolvingGraph::new(inner, 0.4, 9).unwrap();
        assert!(rebuild.has_native_deltas(), "static inner => native stack");
        crate::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 12);
        // ... and across a reset.
        rebuild.reset(4);
        delta.reset(4);
        crate::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 12);
    }

    #[test]
    fn thinned_deltas_replay_rebuild_over_churning_inner() {
        let graphs = [
            generators::path(9),
            generators::complete(9),
            generators::star(9),
        ];
        let mut rebuild =
            ThinnedEvolvingGraph::new(PeriodicEvolvingGraph::new(&graphs).unwrap(), 0.6, 3)
                .unwrap();
        let mut delta =
            ThinnedEvolvingGraph::new(PeriodicEvolvingGraph::new(&graphs).unwrap(), 0.6, 3)
                .unwrap();
        crate::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 20);
    }

    #[test]
    fn thinned_gamma_extremes_on_delta_path() {
        for gamma in [0.0, 1.0] {
            let inner = StaticEvolvingGraph::new(generators::complete(7));
            let mut rebuild = ThinnedEvolvingGraph::new(inner.clone(), gamma, 5).unwrap();
            let mut delta = ThinnedEvolvingGraph::new(inner, gamma, 5).unwrap();
            crate::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 6);
        }
    }

    #[test]
    fn thinned_resyncs_after_plain_step_and_warm_up() {
        let graphs = [generators::path(8), generators::star(8)];
        let make = || {
            ThinnedEvolvingGraph::new(PeriodicEvolvingGraph::new(&graphs).unwrap(), 0.5, 7).unwrap()
        };
        // Interleave: plain steps break the baseline, the next delta must
        // be a clean full emission that replays the rebuild path.
        let mut rebuild = make();
        let mut delta = make();
        let _ = rebuild.step();
        let _ = rebuild.step();
        let _ = delta.step();
        let _ = delta.step();
        crate::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 10);
        // warm_up on the wrapper (native path + rebase) agrees too.
        let mut rebuild = make();
        let mut delta = make();
        rebuild.warm_up(5);
        delta.warm_up(5);
        crate::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 10);
    }

    #[test]
    fn thinned_wrapping_non_native_inner_is_not_native() {
        // The wrapper only advertises the fast path when the whole stack
        // has it; forced delta stepping still works via the default
        // diffing of the inner model (exercised by the engine tests).
        #[derive(Debug, Clone)]
        struct NoDeltas(StaticEvolvingGraph);
        impl EvolvingGraph for NoDeltas {
            fn node_count(&self) -> usize {
                self.0.node_count()
            }
            fn step(&mut self) -> &Snapshot {
                self.0.step()
            }
            fn reset(&mut self, seed: u64) {
                self.0.reset(seed);
            }
        }
        let inner = NoDeltas(StaticEvolvingGraph::new(generators::complete(6)));
        let mut rebuild = ThinnedEvolvingGraph::new(inner.clone(), 0.5, 2).unwrap();
        let mut delta = ThinnedEvolvingGraph::new(inner, 0.5, 2).unwrap();
        assert!(!rebuild.has_native_deltas());
        // Forced through step_delta, the wrapper still replays exactly.
        crate::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 10);
    }

    #[test]
    fn jammed_deltas_replay_rebuild() {
        let graphs = [generators::complete(10), generators::cycle(10)];
        let make = || {
            JammedEvolvingGraph::new(PeriodicEvolvingGraph::new(&graphs).unwrap(), 3, 13).unwrap()
        };
        let mut rebuild = make();
        let mut delta = make();
        assert!(rebuild.has_native_deltas());
        crate::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 25);
        rebuild.reset(6);
        delta.reset(6);
        crate::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 25);
    }

    #[test]
    fn jammed_resyncs_after_plain_step() {
        let make = || {
            let inner = StaticEvolvingGraph::new(generators::complete(9));
            JammedEvolvingGraph::new(inner, 2, 21).unwrap()
        };
        let mut rebuild = make();
        let mut delta = make();
        let _ = rebuild.step();
        let _ = delta.step();
        crate::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 15);
    }

    #[test]
    fn jammed_victim_extremes_on_delta_path() {
        for victims in [0usize, 8] {
            let inner = StaticEvolvingGraph::new(generators::complete(8));
            let mut rebuild = JammedEvolvingGraph::new(inner.clone(), victims, 1).unwrap();
            let mut delta = JammedEvolvingGraph::new(inner, victims, 1).unwrap();
            crate::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 6);
        }
    }

    #[test]
    fn stacked_wrappers_replay_rebuild() {
        // Thinned over jammed over periodic: the delta chain composes.
        let graphs = [generators::complete(8), generators::star(8)];
        let make = || {
            let inner = PeriodicEvolvingGraph::new(&graphs).unwrap();
            let jam = JammedEvolvingGraph::new(inner, 2, 5).unwrap();
            ThinnedEvolvingGraph::new(jam, 0.7, 9).unwrap()
        };
        let mut rebuild = make();
        let mut delta = make();
        assert!(rebuild.has_native_deltas());
        crate::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 18);
    }

    #[test]
    fn reset_matches_fresh_for_core_models() {
        // The zero-rebuild reuse contract, for every model in this
        // crate. Wrapper factories follow the canonical shape documented
        // on `EvolvingGraph::reset`: the inner constructor receives the
        // same seed the wrapper does.
        assert_reset_matches_fresh(
            |_| StaticEvolvingGraph::new(generators::grid(3, 4)),
            1,
            2,
            6,
        );
        let graphs = [
            generators::path(9),
            generators::complete(9),
            generators::star(9),
        ];
        assert_reset_matches_fresh(|_| PeriodicEvolvingGraph::new(&graphs).unwrap(), 1, 2, 10);
        assert_reset_matches_fresh(
            |seed| {
                let inner = PeriodicEvolvingGraph::new(&graphs).unwrap();
                ThinnedEvolvingGraph::new(inner, 0.6, seed).unwrap()
            },
            3,
            9,
            15,
        );
        assert_reset_matches_fresh(
            |seed| {
                let inner = PeriodicEvolvingGraph::new(&graphs).unwrap();
                JammedEvolvingGraph::new(inner, 2, seed).unwrap()
            },
            4,
            11,
            15,
        );
        // A stacked wrapper with *seeded* layers: every layer of the
        // canonical factory shape takes the same seed.
        assert_reset_matches_fresh(
            |seed| {
                let inner = PeriodicEvolvingGraph::new(&graphs).unwrap();
                let jam = JammedEvolvingGraph::new(inner, 2, seed).unwrap();
                ThinnedEvolvingGraph::new(jam, 0.7, seed).unwrap()
            },
            5,
            13,
            15,
        );
    }

    #[test]
    fn jamming_zero_victims_is_identity() {
        let inner = StaticEvolvingGraph::new(generators::complete(8));
        let mut g = JammedEvolvingGraph::new(inner, 0, 1).unwrap();
        assert_eq!(g.step().edge_count(), 28);
    }

    #[test]
    fn jamming_all_victims_is_edgeless() {
        let inner = StaticEvolvingGraph::new(generators::complete(8));
        let mut g = JammedEvolvingGraph::new(inner, 8, 1).unwrap();
        assert!(g.step().is_edgeless());
    }

    #[test]
    fn jamming_removes_exactly_victim_edges() {
        let inner = StaticEvolvingGraph::new(generators::complete(10));
        let mut g = JammedEvolvingGraph::new(inner, 1, 3).unwrap();
        for _ in 0..20 {
            let snap = g.step();
            // One jammed node in K10: its 9 edges vanish, 36 remain, and
            // exactly one node is isolated.
            assert_eq!(snap.edge_count(), 36);
            let isolated = (0..10u32).filter(|&u| snap.degree(u) == 0).count();
            assert_eq!(isolated, 1);
        }
    }

    #[test]
    fn jamming_too_many_victims_rejected() {
        let inner = StaticEvolvingGraph::new(generators::path(3));
        assert!(JammedEvolvingGraph::new(inner, 4, 0).is_err());
    }

    #[test]
    fn flooding_survives_moderate_jamming() {
        use crate::flooding::flood;
        let inner = StaticEvolvingGraph::new(generators::complete(20));
        let mut g = JammedEvolvingGraph::new(inner, 5, 7).unwrap();
        let run = flood(&mut g, 0, 1000);
        assert!(run.flooding_time().is_some());
    }

    #[test]
    fn jamming_reset_reproducible() {
        let inner = StaticEvolvingGraph::new(generators::complete(12));
        let mut g = JammedEvolvingGraph::new(inner, 3, 0).unwrap();
        g.reset(9);
        let a: Vec<_> = g.step().edges().collect();
        g.reset(9);
        let b: Vec<_> = g.step().edges().collect();
        assert_eq!(a, b);
    }
}
