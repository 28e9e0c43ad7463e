//! The builder-driven trial runner.

use crate::delta::{DynAdjacency, EdgeDelta};
use crate::engine::instrument::engine_obs;
use crate::engine::observer::{Observer, RoundCtx};
use crate::engine::protocol::{Protocol, ProtocolStatus, SpreadView, Transmissions};
use crate::engine::report::{SimulationReport, TrialRecord};
use crate::shard::{flood_sharded_core, FirstRounds, ShardScratch, Shards};
use crate::{mix_seed, EvolvingGraph};

/// Entry point to the engine; see [`Simulation::builder`].
#[derive(Debug, Clone, Copy)]
pub struct Simulation;

/// Which stepping pipeline drives each trial.
///
/// Both pipelines produce identical [`TrialRecord`]s for the built-in
/// protocols (the integration suite pins this, including message
/// counts); they differ only in per-round cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Stepping {
    /// Delta path for models advertising
    /// [`EvolvingGraph::has_native_deltas`], snapshot path otherwise
    /// (the default); flooding over a lane model runs on the lane
    /// executor instead (see [`SimulationBuilder::shards`]).
    #[default]
    Auto,
    /// Always rebuild a CSR [`crate::Snapshot`] per round (the classic
    /// pipeline; also the reference the delta path is tested against).
    Snapshot,
    /// Always drive [`EvolvingGraph::step_delta`] through a
    /// [`DynAdjacency`]: per-round cost proportional to churn plus
    /// frontier work. Works for every model (non-native models diff
    /// their snapshots), pays off for slow-churn ones.
    Delta,
}

/// Placeholder model of a freshly created builder — replaced by the
/// first call to [`SimulationBuilder::model`].
#[derive(Debug, Clone, Copy)]
pub struct NoModel;

fn no_observers(_trial: usize) {}

impl Simulation {
    /// Starts configuring a simulation. Defaults: [`Flooding`] protocol,
    /// 30 trials, `max_rounds = 100_000`, no warm-up, source node 0,
    /// base seed `0xD15E_A5E0`, no observers, one worker per available
    /// core.
    ///
    /// [`Flooding`]: crate::engine::Flooding
    pub fn builder() -> SimulationBuilder<NoModel, crate::engine::Flooding, fn(usize)> {
        SimulationBuilder {
            model: NoModel,
            protocol: crate::engine::Flooding::new(),
            observers: no_observers,
            trials: 30,
            max_rounds: 100_000,
            warm_up: 0,
            base_seed: 0xD15E_A5E0,
            sources: vec![0],
            threads: None,
            stepping: Stepping::Auto,
            shards: Shards::Fixed(1),
        }
    }
}

/// Reusable per-worker trial state: the spreading buffers and delta-path
/// structures of one trial, *cleared* — never reallocated — between
/// trials.
///
/// The batch loop ([`SimulationBuilder::run`]) keeps one scratch per
/// worker thread automatically; external schedulers opt in by holding a
/// scratch (plus a model slot) and calling
/// [`SimulationBuilder::run_trial_with`]. Buffers grow to the largest
/// trial seen and are retained, so steady-state trial setup allocates
/// nothing; a scratch may be reused across differently-sized models
/// (each trial re-targets the buffers at its own node count).
#[derive(Debug, Default)]
pub struct TrialScratch {
    informed: Vec<bool>,
    informed_at: Vec<u32>,
    informed_list: Vec<u32>,
    new_nodes: Vec<u32>,
    adj: DynAdjacency,
    delta: EdgeDelta,
    shard: ShardScratch,
}

impl TrialScratch {
    /// A fresh scratch; buffers grow on first use and are kept.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the spreading buffers for a trial over `n` nodes.
    fn prepare(&mut self, n: usize) {
        if self.informed.capacity() < n {
            engine_obs().scratch_grow.inc();
        }
        self.informed.clear();
        self.informed.resize(n, false);
        self.informed_at.clear();
        self.informed_at.resize(n, SpreadView::UNINFORMED);
        self.informed_list.clear();
        self.informed_list.reserve(n);
        self.new_nodes.clear();
    }
}

/// Builder for a spreading Monte-Carlo: model × protocol × observers,
/// plus trial bookkeeping. Construct with [`Simulation::builder`].
///
/// # Determinism
///
/// Trial `i` derives its seed as `mix_seed(base_seed, i)`; the model
/// factory, the protocol RNG, and nothing else consume randomness from
/// it. Aggregation is ordered by trial index, so [`SimulationBuilder::run`]
/// returns identical reports for identical configurations regardless of
/// the [`SimulationBuilder::threads`] cap or thread scheduling.
#[derive(Debug, Clone)]
pub struct SimulationBuilder<M, P, F> {
    model: M,
    protocol: P,
    observers: F,
    trials: usize,
    max_rounds: u32,
    warm_up: usize,
    base_seed: u64,
    sources: Vec<u32>,
    threads: Option<usize>,
    stepping: Stepping,
    shards: Shards,
}

impl<M, P, F> SimulationBuilder<M, P, F> {
    /// Sets the model factory: `make(seed)` must build a fresh process
    /// whose randomness is fully determined by `seed`.
    ///
    /// # The reuse contract
    ///
    /// Each batch worker calls the factory **once** and re-randomizes
    /// its instance between trials via [`EvolvingGraph::reset`]; only
    /// [`SimulationBuilder::run_trial`] builds fresh every time. The two
    /// are byte-identical exactly when `make(s)` is observably identical
    /// to `make(s0)` followed by `reset(s)` for any `s0` — true whenever
    /// the factory routes all of its randomness through the seed
    /// argument of constructors honoring the [`EvolvingGraph::reset`]
    /// contract (every model in this workspace does; the cross-crate
    /// property suites pin it). A factory that derives seed-dependent
    /// state *outside* that contract — e.g. a wrapper whose inner model
    /// is seeded with a different derivation than its `reset` uses —
    /// breaks it; drive such a factory through `run_trial`.
    pub fn model<G, M2>(self, model: M2) -> SimulationBuilder<M2, P, F>
    where
        G: EvolvingGraph,
        M2: Fn(u64) -> G,
    {
        SimulationBuilder {
            model,
            protocol: self.protocol,
            observers: self.observers,
            trials: self.trials,
            max_rounds: self.max_rounds,
            warm_up: self.warm_up,
            base_seed: self.base_seed,
            sources: self.sources,
            threads: self.threads,
            stepping: self.stepping,
            shards: self.shards,
        }
    }

    /// Sets the transmission protocol (default: flooding).
    pub fn protocol<P2: Protocol>(self, protocol: P2) -> SimulationBuilder<M, P2, F> {
        SimulationBuilder {
            model: self.model,
            protocol,
            observers: self.observers,
            trials: self.trials,
            max_rounds: self.max_rounds,
            warm_up: self.warm_up,
            base_seed: self.base_seed,
            sources: self.sources,
            threads: self.threads,
            stepping: self.stepping,
            shards: self.shards,
        }
    }

    /// Installs a per-trial observer factory; the observers are returned
    /// by [`SimulationBuilder::run_observed`], ordered by trial index.
    pub fn observers<O, F2>(self, observers: F2) -> SimulationBuilder<M, P, F2>
    where
        O: Observer,
        F2: Fn(usize) -> O,
    {
        SimulationBuilder {
            model: self.model,
            protocol: self.protocol,
            observers,
            trials: self.trials,
            max_rounds: self.max_rounds,
            warm_up: self.warm_up,
            base_seed: self.base_seed,
            sources: self.sources,
            threads: self.threads,
            stepping: self.stepping,
            shards: self.shards,
        }
    }

    /// Number of independent trials (default 30).
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Per-trial round cap (default 100 000).
    ///
    /// # Panics
    ///
    /// Panics on `u32::MAX`: round numbers double as informed-round
    /// values, whose uninformed sentinel is
    /// [`SpreadView::UNINFORMED`](crate::engine::SpreadView::UNINFORMED)
    /// (= `u32::MAX`), so the cap must leave it unreachable.
    pub fn max_rounds(mut self, max_rounds: u32) -> Self {
        check_max_rounds(max_rounds);
        self.max_rounds = max_rounds;
        self
    }

    /// Rounds to advance each process before the protocol starts, to
    /// reach stationarity (default 0).
    pub fn warm_up(mut self, warm_up: usize) -> Self {
        self.warm_up = warm_up;
        self
    }

    /// Base seed; trial `i` uses `mix_seed(base_seed, i)`.
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Single spreading source (default node 0).
    pub fn source(mut self, source: u32) -> Self {
        self.sources = vec![source];
        self
    }

    /// Multiple sources — `I_0` is the whole set (k-source broadcast).
    ///
    /// # Panics
    ///
    /// [`SimulationBuilder::run`] panics if the set is empty, contains
    /// duplicates, or contains an out-of-range node.
    pub fn sources<I: IntoIterator<Item = u32>>(mut self, sources: I) -> Self {
        self.sources = sources.into_iter().collect();
        self
    }

    /// Caps the worker-thread count (default: all available cores);
    /// `threads(1)` runs every trial on the calling thread.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Selects the stepping pipeline (default: [`Stepping::Auto`] —
    /// delta-native models run on the delta path, everything else on the
    /// snapshot path). Results are identical either way; only the
    /// per-round cost differs.
    pub fn stepping(mut self, stepping: Stepping) -> Self {
        self.stepping = stepping;
        self
    }

    /// Intra-trial sharding: how many threads execute a *single* trial's
    /// round loop (default `Shards::Fixed(1)`). Accepts a plain count
    /// (`.shards(8)`) or [`Shards::Auto`] for one thread per core.
    ///
    /// Applies to trials of a protocol supporting sharded execution
    /// ([`Protocol::supports_sharded_flooding`]) over a model exposing a
    /// lane decomposition ([`EvolvingGraph::sharding`]): under
    /// [`Stepping::Auto`] they run on the lane executor
    /// ([`crate::shard`]) at every shard count, starting with scan
    /// rounds; under [`Stepping::Delta`] they run on it, with adjacency
    /// rounds throughout, from two shards up. Anything else keeps its
    /// serial round loop. Records are byte-identical to the serial paths
    /// for every shard count — only the wall-clock of a single trial
    /// changes — and so are the callbacks of observers that read
    /// snapshots or deltas. Composes with trial-level parallelism: the
    /// engine's workers each run their trials sharded.
    pub fn shards(mut self, shards: impl Into<Shards>) -> Self {
        self.shards = shards.into();
        self
    }
}

/// Round numbers double as informed-round values, whose uninformed
/// sentinel is `u32::MAX`, so a round cap must leave it unreachable.
fn check_max_rounds(max_rounds: u32) {
    assert!(
        max_rounds < u32::MAX,
        "max_rounds must be below u32::MAX (the UNINFORMED sentinel)"
    );
}

impl<M, G, P, F, O> SimulationBuilder<M, P, F>
where
    M: Fn(u64) -> G,
    G: EvolvingGraph,
    P: Protocol + Clone,
    F: Fn(usize) -> O,
    O: Observer,
{
    /// Runs exactly one trial of this configuration — the hook for
    /// *externally scheduled* trials, where something other than
    /// [`SimulationBuilder::run`] decides how many trials a
    /// configuration gets (the adaptive scheduler in [`crate::sweep`]
    /// flattens many configurations' trials into one work pool).
    ///
    /// The trial is identical to what `run()` would execute at index
    /// `trial`: same `mix_seed(base_seed, trial)` derivation, same
    /// stepping-path selection — so collecting `run_trial(0..k)` equals
    /// the first `k` records of a `trials(k)` batch, and an external
    /// scheduler is byte-compatible with the engine's own loop.
    ///
    /// # Panics
    ///
    /// Panics if the source set is invalid for the model's node count.
    pub fn run_trial(&self, trial: usize) -> TrialRecord {
        assert!(!self.sources.is_empty(), "need at least one source");
        self.run_single(trial, &mut None, &mut TrialScratch::new())
            .0
    }

    /// [`SimulationBuilder::run_trial`] with caller-held reuse state —
    /// the zero-rebuild hook for external schedulers.
    ///
    /// `model` is a per-configuration model slot: on the first call it
    /// is filled via the factory; afterwards the cached instance is
    /// re-randomized in place with [`EvolvingGraph::reset`]. `scratch`
    /// holds the trial's spreading buffers and may be shared across
    /// *different* configurations (it re-targets itself per trial); the
    /// model slot must not be. Under the reuse contract (see
    /// [`SimulationBuilder::model`]) the record is byte-identical to
    /// [`SimulationBuilder::run_trial`]'s — pinned by the engine tests.
    ///
    /// # Panics
    ///
    /// Panics if the source set is invalid for the model's node count.
    pub fn run_trial_with(
        &self,
        trial: usize,
        model: &mut Option<G>,
        scratch: &mut TrialScratch,
    ) -> TrialRecord {
        assert!(!self.sources.is_empty(), "need at least one source");
        self.run_single(trial, model, scratch).0
    }

    /// The shared per-trial body of [`SimulationBuilder::run_trial`],
    /// [`SimulationBuilder::run_trial_with`] and the (possibly parallel)
    /// batch loop: fill or re-randomize the worker's model, then execute
    /// one trial over the reusable scratch.
    fn run_single(
        &self,
        trial: usize,
        model: &mut Option<G>,
        scratch: &mut TrialScratch,
    ) -> (TrialRecord, O, usize) {
        let seed = mix_seed(self.base_seed, trial as u64);
        let obs = engine_obs();
        obs.trials.inc();
        let g = match model {
            Some(g) => {
                obs.models_reused.inc();
                g.reset(seed);
                g
            }
            slot => {
                obs.models_built.inc();
                slot.insert((self.model)(seed))
            }
        };
        if self.warm_up > 0 {
            g.warm_up(self.warm_up);
        }
        let n = g.node_count();
        let mut protocol = self.protocol.clone();
        let mut observer = (self.observers)(trial);
        let use_delta = match self.stepping {
            Stepping::Auto => g.has_native_deltas(),
            Stepping::Snapshot => false,
            Stepping::Delta => true,
        };
        let threads = self.shards.resolve();
        // Flooding over a lane model runs on the lane executor: at every
        // shard count under Auto (scan-first rounds), and at two or more
        // shards under Delta (adjacency rounds throughout). Delta and
        // Snapshot at one shard keep the serial loop below — the
        // oracles the lane executor is pinned against.
        let record = if use_delta
            && (self.stepping == Stepping::Auto || threads >= 2)
            && protocol.supports_sharded_flooding()
            && g.sharding().is_some()
        {
            let first = if self.stepping == Stepping::Auto
                && !observer.needs_snapshots()
                && !observer.needs_deltas()
            {
                FirstRounds::Scan
            } else {
                FirstRounds::Adjacency
            };
            execute_trial_sharded(
                g,
                &mut observer,
                trial,
                seed,
                &self.sources,
                self.max_rounds,
                threads,
                first,
                scratch,
            )
        } else {
            execute_trial(
                g,
                &mut protocol,
                &mut observer,
                trial,
                seed,
                &self.sources,
                self.max_rounds,
                use_delta,
                scratch,
            )
        };
        (record, observer, n)
    }
}

impl<M, G, P, F, O> SimulationBuilder<M, P, F>
where
    M: Fn(u64) -> G + Sync,
    G: EvolvingGraph,
    P: Protocol + Clone + Sync,
    F: Fn(usize) -> O + Sync,
    O: Observer,
{
    /// Runs all trials and aggregates their outcomes.
    ///
    /// # Panics
    ///
    /// Panics if the source set is invalid for the model's node count or
    /// a worker thread panics.
    pub fn run(self) -> SimulationReport {
        self.run_observed().0
    }

    /// Runs all trials, returning the report plus the per-trial
    /// observers (ordered by trial index).
    pub fn run_observed(self) -> (SimulationReport, Vec<O>) {
        assert!(!self.sources.is_empty(), "need at least one source");
        let trials = self.trials;
        let mut slots: Vec<Option<(TrialRecord, O, usize)>> = Vec::with_capacity(trials);
        slots.resize_with(trials, || None);

        // One worker = one model + one scratch: the model is constructed
        // on the worker's first trial and re-randomized in place for the
        // rest (see the reuse contract on `SimulationBuilder::model`), so
        // per-trial setup allocates nothing after the first trial.
        let run_worker = |chunk: &mut [Option<(TrialRecord, O, usize)>], start: usize| {
            let mut model: Option<G> = None;
            let mut scratch = TrialScratch::new();
            for (offset, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(self.run_single(start + offset, &mut model, &mut scratch));
            }
        };

        let threads = self.worker_count();
        if threads <= 1 {
            run_worker(&mut slots, 0);
        } else {
            let chunk_size = trials.div_ceil(threads).max(1);
            let run_worker = &run_worker;
            std::thread::scope(|scope| {
                for (chunk_idx, chunk) in slots.chunks_mut(chunk_size).enumerate() {
                    scope.spawn(move || run_worker(chunk, chunk_idx * chunk_size));
                }
            });
        }

        let mut records = Vec::with_capacity(trials);
        let mut observers = Vec::with_capacity(trials);
        let mut node_count = 0;
        for slot in slots {
            let (record, observer, n) = slot.expect("every trial slot is filled");
            node_count = n;
            records.push(record);
            observers.push(observer);
        }
        (SimulationReport::new(node_count, records), observers)
    }

    fn worker_count(&self) -> usize {
        if self.trials <= 1 {
            return 1;
        }
        let available = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        available
            .min(self.threads.unwrap_or(usize::MAX))
            .min(self.trials)
            .max(1)
    }
}

/// Executes one trial: seeds, sources, the synchronous round loop,
/// quiescence, and the observer callbacks. Shared by every protocol.
/// All per-trial state lives in `scratch` — cleared here, allocated
/// (at most) once per worker.
///
/// `use_delta` picks the stepping path. The snapshot path rebuilds a
/// CSR [`crate::Snapshot`] per round and calls [`Protocol::transmit`].
/// The delta path steps through [`EvolvingGraph::step_delta`] into the
/// scratch's [`DynAdjacency`] and calls [`Protocol::transmit_delta`];
/// it materializes a snapshot only for observers that ask for one, so
/// a churn-proportional model and protocol stay churn-proportional end
/// to end. Both paths produce identical [`TrialRecord`]s for the
/// built-in protocols (pinned by the integration suite).
#[allow(clippy::too_many_arguments)] // internal
fn execute_trial<G, P, O>(
    g: &mut G,
    protocol: &mut P,
    observer: &mut O,
    trial: usize,
    seed: u64,
    sources: &[u32],
    max_rounds: u32,
    use_delta: bool,
    scratch: &mut TrialScratch,
) -> TrialRecord
where
    G: EvolvingGraph + ?Sized,
    P: Protocol + ?Sized,
    O: Observer + ?Sized,
{
    let n = g.node_count();
    scratch.prepare(n);
    let TrialScratch {
        informed,
        informed_at,
        informed_list,
        new_nodes,
        adj,
        delta,
        ..
    } = scratch;
    for &s in sources {
        assert!((s as usize) < n, "source {s} out of range");
        assert!(!informed[s as usize], "duplicate source {s}");
        informed[s as usize] = true;
        informed_at[s as usize] = 0;
        informed_list.push(s);
    }
    observer.on_trial_start(trial, n, sources);
    protocol.begin_trial(n, seed);
    let needs_snapshots = observer.needs_snapshots();
    if use_delta {
        adj.reset(n);
        // `clear` (not `begin_round`) also forgets the default-path
        // diffing baseline of a previous trial's model, so a reused
        // buffer starts every trial with a full emission.
        delta.clear();
        // The adjacency starts empty, so the delta stream must start
        // with a full emission (the model may have been warmed up or
        // pre-stepped).
        g.rebase_deltas();
    }

    let mut completed = (informed_list.len() == n).then_some(0u32);
    let mut messages_total = 0u64;
    let mut t = 0u32;
    let mut status = ProtocolStatus::Active;
    let obs = engine_obs();
    while completed.is_none() && t < max_rounds && status == ProtocolStatus::Active {
        // The round's snapshot: `Some` on the snapshot path only.
        let snap = {
            let _span = obs.model_step.start();
            if use_delta {
                g.step_delta(delta);
                None
            } else {
                Some(g.step())
            }
        };
        if use_delta {
            let _span = obs.delta_apply.start();
            adj.apply(delta);
        }
        new_nodes.clear();
        let round_messages = {
            let _span = obs.protocol.start();
            let view = SpreadView {
                round: t,
                node_count: n,
                informed_at,
                informed_list,
            };
            let mut out = Transmissions::new(informed, new_nodes);
            match snap {
                Some(snap) => protocol.transmit(snap, &view, &mut out),
                None => protocol.transmit_delta(adj, delta, &view, &mut out),
            }
            out.messages()
        };
        t += 1;
        for &v in new_nodes.iter() {
            informed_at[v as usize] = t;
        }
        informed_list.extend_from_slice(new_nodes);
        messages_total += round_messages;
        if informed_list.len() == n {
            completed = Some(t);
        }
        {
            let _span = obs.observer.start();
            observer.on_round(&RoundCtx {
                round: t,
                snapshot: match snap {
                    None if needs_snapshots => Some(adj.snapshot()),
                    snap => snap,
                },
                delta: use_delta.then_some(&*delta),
                newly_informed: new_nodes,
                informed_count: informed_list.len(),
                messages: round_messages,
            });
        }
        if completed.is_none() {
            let view = SpreadView {
                round: t,
                node_count: n,
                informed_at,
                informed_list,
            };
            status = protocol.end_round(&view);
        }
    }

    let record = TrialRecord {
        trial,
        seed,
        time: completed,
        informed: informed_list.len(),
        rounds: t,
        messages: messages_total,
    };
    observer.on_trial_end(&record);
    record
}

/// The lane-executor counterpart of [`execute_trial`] for flooding
/// semantics: the model's lanes advance on `threads` threads and each
/// round runs as a scan round or an adjacency round
/// ([`crate::shard::flood_sharded_core`]; `first` picks how the trial
/// starts). No protocol object is consulted — the executor *is* the
/// flooding protocol — which is why the caller gates on
/// [`Protocol::supports_sharded_flooding`]. Produces records
/// byte-identical to the serial paths, and observer callbacks identical
/// to the serial delta path's on adjacency rounds (pinned by the
/// sharded-engine and scan-identity suites).
#[allow(clippy::too_many_arguments)] // internal
fn execute_trial_sharded<G, O>(
    g: &mut G,
    observer: &mut O,
    trial: usize,
    seed: u64,
    sources: &[u32],
    max_rounds: u32,
    threads: usize,
    first: FirstRounds,
    scratch: &mut TrialScratch,
) -> TrialRecord
where
    G: EvolvingGraph + ?Sized,
    O: Observer + ?Sized,
{
    let n = g.node_count();
    observer.on_trial_start(trial, n, sources);
    let needs_snapshots = observer.needs_snapshots();
    // Same baseline contract as the serial delta path: the first
    // adjacency round's merged delta carries the full current edge set.
    g.rebase_deltas();
    let access = g
        .sharding()
        .expect("sharded dispatch requires a lane decomposition");
    let outcome = flood_sharded_core(
        n,
        access,
        sources,
        max_rounds,
        threads,
        first,
        &mut scratch.shard,
        |ev| {
            observer.on_round(&RoundCtx {
                round: ev.round,
                snapshot: match ev.adj {
                    Some(adj) if needs_snapshots => Some(adj.snapshot()),
                    _ => None,
                },
                delta: ev.delta,
                newly_informed: ev.newly_informed,
                informed_count: ev.informed_count,
                messages: ev.messages,
            });
        },
    );
    let record = TrialRecord {
        trial,
        seed,
        time: outcome.completed,
        informed: outcome.informed,
        rounds: outcome.rounds,
        messages: outcome.messages,
    };
    observer.on_trial_end(&record);
    record
}

/// Runs one flooding trial on `g` as given — no factory, no reset, no
/// warm-up — for the single-run primitives of [`crate::flooding`].
///
/// Without `lanes` it is [`execute_trial`] with [`Flooding`] on the
/// stepping path the model advertises (delta if
/// [`EvolvingGraph::has_native_deltas`], snapshot otherwise). With
/// `lanes` it is [`execute_trial_sharded`] on that many threads with
/// scan-first rounds, falling back to the serial loop when the model
/// has no lane decomposition. Returns the record and each node's
/// informed round ([`SpreadView::UNINFORMED`] if never).
///
/// # Panics
///
/// Panics if `sources` is empty, holds a duplicate or an out-of-range
/// node, or if `max_rounds` is `u32::MAX`.
///
/// [`Flooding`]: crate::engine::Flooding
pub(crate) fn flood_trial<G: EvolvingGraph + ?Sized>(
    g: &mut G,
    sources: &[u32],
    max_rounds: u32,
    lanes: Option<Shards>,
) -> (TrialRecord, Vec<u32>) {
    assert!(!sources.is_empty(), "need at least one source");
    check_max_rounds(max_rounds);
    let mut scratch = TrialScratch::new();
    if let Some(shards) = lanes.filter(|_| g.sharding().is_some()) {
        let record = execute_trial_sharded(
            g,
            &mut (),
            0,
            0,
            sources,
            max_rounds,
            shards.resolve(),
            FirstRounds::Scan,
            &mut scratch,
        );
        return (record, scratch.shard.informed_at);
    }
    let use_delta = g.has_native_deltas();
    let record = execute_trial(
        g,
        &mut crate::engine::Flooding::new(),
        &mut (),
        0,
        0,
        sources,
        max_rounds,
        use_delta,
        &mut scratch,
    );
    (record, scratch.informed_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Flooding, ParsimoniousFlooding, PushGossip};
    use crate::StaticEvolvingGraph;
    use dg_graph::generators;

    #[test]
    fn builder_defaults_flood_a_cycle() {
        let report = Simulation::builder()
            .model(|_| StaticEvolvingGraph::new(generators::cycle(9)))
            .trials(4)
            .max_rounds(100)
            .run();
        assert_eq!(report.trials(), 4);
        assert_eq!(report.incomplete(), 0);
        assert_eq!(report.mean(), 4.0);
        assert_eq!(report.node_count(), 9);
    }

    #[test]
    fn reports_are_reproducible() {
        let make = || {
            Simulation::builder()
                .model(|_| StaticEvolvingGraph::new(generators::grid(4, 4)))
                .protocol(PushGossip::new(1))
                .trials(6)
                .max_rounds(10_000)
                .base_seed(42)
        };
        assert_eq!(make().run(), make().run());
    }

    #[test]
    fn parallel_matches_serial() {
        let make = |threads| {
            Simulation::builder()
                .model(|_| StaticEvolvingGraph::new(generators::complete(16)))
                .protocol(PushGossip::new(1))
                .trials(9)
                .max_rounds(10_000)
                .threads(threads)
                .run()
        };
        assert_eq!(make(4), make(1));
    }

    #[test]
    fn multi_source_covers_faster() {
        let single = Simulation::builder()
            .model(|_| StaticEvolvingGraph::new(generators::cycle(12)))
            .trials(1)
            .run();
        let multi = Simulation::builder()
            .model(|_| StaticEvolvingGraph::new(generators::cycle(12)))
            .sources([0, 6])
            .trials(1)
            .run();
        assert!(multi.mean() < single.mean());
        assert_eq!(multi.mean(), 3.0);
    }

    #[test]
    fn quiescent_protocol_stops_early() {
        let report = Simulation::builder()
            .model(|_| StaticEvolvingGraph::new(dg_graph::GraphBuilder::new(4).build()))
            .protocol(ParsimoniousFlooding::new(2))
            .trials(1)
            .max_rounds(1_000)
            .run();
        let rec = &report.records()[0];
        assert_eq!(rec.time, None);
        assert_eq!(rec.informed, 1);
        assert!(rec.rounds <= 3, "stopped at round {}", rec.rounds);
    }

    #[test]
    fn flooding_messages_counted() {
        // K4 from one source: round 1 sends 3 messages, done.
        let report = Simulation::builder()
            .model(|_| StaticEvolvingGraph::new(generators::complete(4)))
            .protocol(Flooding::new())
            .trials(1)
            .run();
        assert_eq!(report.records()[0].messages, 3);
        assert_eq!(report.records()[0].time, Some(1));
    }

    #[test]
    fn stepping_paths_agree_on_dynamic_process() {
        // A periodic process churns edges every round; all three built-in
        // protocols must report byte-identical records on both paths,
        // message counts included.
        let make_model = |_seed: u64| {
            let graphs = [
                generators::path(10),
                generators::cycle(10),
                generators::star(10),
            ];
            crate::PeriodicEvolvingGraph::new(&graphs).unwrap()
        };
        let flooding = |stepping| {
            Simulation::builder()
                .model(make_model)
                .trials(3)
                .max_rounds(200)
                .stepping(stepping)
                .run()
        };
        assert_eq!(flooding(Stepping::Snapshot), flooding(Stepping::Delta));
        let push = |stepping| {
            Simulation::builder()
                .model(make_model)
                .protocol(PushGossip::new(1))
                .trials(3)
                .max_rounds(2_000)
                .stepping(stepping)
                .run()
        };
        assert_eq!(push(Stepping::Snapshot), push(Stepping::Delta));
        let pars = |stepping| {
            Simulation::builder()
                .model(make_model)
                .protocol(ParsimoniousFlooding::new(1))
                .trials(3)
                .max_rounds(2_000)
                .stepping(stepping)
                .run()
        };
        assert_eq!(pars(Stepping::Snapshot), pars(Stepping::Delta));
    }

    #[test]
    fn delta_path_works_for_non_native_models_and_protocols() {
        // Forced delta stepping must also work for a model without native
        // deltas (default diffing) under a custom protocol without a
        // native transmit_delta (default CSR materialization).
        #[derive(Clone)]
        struct EveryOther;
        impl Protocol for EveryOther {
            fn name(&self) -> &'static str {
                "every-other"
            }
            fn transmit(
                &mut self,
                snap: &crate::Snapshot,
                view: &SpreadView<'_>,
                out: &mut Transmissions<'_>,
            ) {
                for &u in view.informed_list {
                    for &v in snap.neighbors(u) {
                        if v % 2 == 0 {
                            out.send(v);
                        }
                    }
                }
            }
        }
        let inner = StaticEvolvingGraph::new(generators::complete(9));
        let make =
            move |seed: u64| crate::ThinnedEvolvingGraph::new(inner.clone(), 0.7, seed).unwrap();
        let run = |stepping| {
            Simulation::builder()
                .model(make.clone())
                .protocol(EveryOther)
                .trials(4)
                .max_rounds(50)
                .stepping(stepping)
                .run()
        };
        assert_eq!(run(Stepping::Snapshot), run(Stepping::Delta));
    }

    #[test]
    fn delta_path_materializes_snapshots_for_observers_that_ask() {
        #[derive(Default)]
        struct EdgeCounter {
            per_round: Vec<usize>,
        }
        impl Observer for EdgeCounter {
            fn needs_snapshots(&self) -> bool {
                true
            }
            fn on_round(&mut self, ctx: &RoundCtx<'_>) {
                self.per_round
                    .push(ctx.snapshot.expect("asked for snapshots").edge_count());
            }
        }
        let graphs = [generators::path(8), generators::complete(8)];
        let run = |stepping| {
            Simulation::builder()
                .model(|_| crate::PeriodicEvolvingGraph::new(&graphs).unwrap())
                .trials(1)
                .max_rounds(100)
                .stepping(stepping)
                .observers(|_| EdgeCounter::default())
                .run_observed()
        };
        let (rep_s, obs_s) = run(Stepping::Snapshot);
        let (rep_d, obs_d) = run(Stepping::Delta);
        assert_eq!(rep_s, rep_d);
        assert_eq!(obs_s[0].per_round, obs_d[0].per_round);
        assert_eq!(obs_d[0].per_round[0], 7); // E_0 is the path
    }

    #[test]
    fn warmed_up_delta_trials_match_snapshot_trials() {
        let graphs = [generators::path(9), generators::star(9)];
        let run = |stepping| {
            Simulation::builder()
                .model(|_| crate::PeriodicEvolvingGraph::new(&graphs).unwrap())
                .trials(2)
                .warm_up(3)
                .max_rounds(100)
                .stepping(stepping)
                .run()
        };
        assert_eq!(run(Stepping::Snapshot), run(Stepping::Delta));
    }

    #[test]
    fn run_trial_matches_batch_records() {
        // Externally scheduled trials (the sweep hook) must reproduce the
        // batch loop record for record, protocol randomness included.
        let builder = || {
            Simulation::builder()
                .model(|_| StaticEvolvingGraph::new(generators::complete(12)))
                .protocol(PushGossip::new(1))
                .max_rounds(10_000)
                .base_seed(0x5EE9)
        };
        let batch = builder().trials(5).run();
        for (i, record) in batch.records().iter().enumerate() {
            assert_eq!(&builder().run_trial(i), record, "trial {i}");
        }
        // Indices beyond any batch size still work (pure function of i).
        assert_eq!(builder().run_trial(7).seed, mix_seed(0x5EE9, 7));
    }

    /// A seeded, churning model whose realizations genuinely depend on
    /// per-trial randomness — the interesting case for model reuse.
    fn seeded_node_meg(
        seed: u64,
    ) -> crate::node_meg::NodeMeg<crate::node_meg::FiniteNodeChain, crate::node_meg::MatrixConnection>
    {
        let rows = vec![
            vec![0.5, 0.25, 0.25],
            vec![0.25, 0.5, 0.25],
            vec![0.25, 0.25, 0.5],
        ];
        let chain = crate::node_meg::FiniteNodeChain::uniform_start(
            dg_markov::DenseChain::from_rows(rows).unwrap(),
        );
        let conn = crate::node_meg::MatrixConnection::same_state(3);
        crate::node_meg::NodeMeg::new(chain, conn, 14, seed).unwrap()
    }

    #[test]
    fn model_reuse_matches_fresh_construction() {
        // Per-worker reset-based reuse must be byte-identical to
        // per-trial fresh construction (`run_trial`), on both stepping
        // paths, for a model with real per-seed randomness.
        for stepping in [Stepping::Snapshot, Stepping::Delta] {
            let b = Simulation::builder()
                .model(seeded_node_meg)
                .trials(7)
                .warm_up(2)
                .max_rounds(10_000)
                .stepping(stepping)
                .base_seed(0x2E5E);
            let fresh: Vec<_> = (0..7).map(|i| b.run_trial(i)).collect();
            assert_eq!(b.run().records(), fresh, "{stepping:?}");
        }
    }

    #[test]
    fn run_trial_with_matches_stateless_run_trial() {
        // The opt-in scratch handle: one cached model + one scratch
        // across many trials reproduces the stateless hook record for
        // record, and a scratch survives crossing configurations.
        let builder = |n: usize| {
            Simulation::builder()
                .model(seeded_node_meg)
                .protocol(PushGossip::new(2))
                .max_rounds(10_000)
                .base_seed(0x5C2A + n as u64)
        };
        let mut scratch = TrialScratch::new();
        for n in [0usize, 1] {
            let b = builder(n);
            let mut model = None;
            for trial in 0..5 {
                let reused = b.run_trial_with(trial, &mut model, &mut scratch);
                assert_eq!(reused, b.run_trial(trial), "config {n} trial {trial}");
            }
            assert!(model.is_some(), "slot holds the worker model");
        }
    }

    #[test]
    #[should_panic(expected = "UNINFORMED sentinel")]
    fn max_rounds_at_sentinel_rejected() {
        let _ = Simulation::builder().max_rounds(u32::MAX);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let _ = Simulation::builder()
            .model(|_| StaticEvolvingGraph::new(generators::path(3)))
            .source(3)
            .trials(1)
            .run();
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_panics() {
        let _ = Simulation::builder()
            .model(|_| StaticEvolvingGraph::new(generators::path(3)))
            .sources([])
            .trials(1)
            .run();
    }
}
