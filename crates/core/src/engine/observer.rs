//! The observer axis of the engine: streaming per-round metrics.
//!
//! Observers receive one callback per round and never need to buffer a
//! whole run: growth curves, phase structure, and delivery delays are all
//! accumulated incrementally. The engine creates one observer per trial
//! (via the factory given to
//! [`SimulationBuilder::observers`](crate::engine::SimulationBuilder::observers))
//! and returns them ordered by trial index, so parallel and serial runs
//! aggregate identically.

use dg_stats::{Quantiles, Summary};

use crate::engine::TrialRecord;
use crate::{EdgeDelta, Snapshot};

/// Everything an observer sees about one executed round.
#[derive(Debug)]
pub struct RoundCtx<'a> {
    /// The (1-based) round that just completed; newly informed nodes
    /// carry this as their informed round.
    pub round: u32,
    /// The edge set `E_{t-1}` the round was executed over — always
    /// `Some` on the snapshot path; on the delta path it is materialized
    /// (lazily, from the incremental adjacency) only when the observer
    /// declares [`Observer::needs_snapshots`], and `None` otherwise.
    pub snapshot: Option<&'a Snapshot>,
    /// The round's edge churn — `Some` on the delta path and on the
    /// lane executor's adjacency rounds (the engine produces it anyway,
    /// so reading it is free), `None` on the snapshot path and on the
    /// lane executor's scan rounds, which record no churn. Churn-metric
    /// observers (stationarity estimators, interval connectivity)
    /// consume this instead of forcing snapshot materialization via
    /// [`Observer::needs_snapshots`], and declare
    /// [`Observer::needs_deltas`] so flooding over lane models gives them
    /// a delta every round.
    ///
    /// Per the delta contract, the first round's delta of a trial is a
    /// full emission: it carries all of `E_0` as
    /// [`added`](EdgeDelta::added) relative to the empty graph.
    pub delta: Option<&'a EdgeDelta>,
    /// Nodes informed this round, in transmission order (the order is
    /// stepping-path-dependent; membership and counts are not).
    pub newly_informed: &'a [u32],
    /// `|I_t|` after this round.
    pub informed_count: usize,
    /// Messages transmitted this round.
    pub messages: u64,
}

/// A streaming consumer of per-round simulation events.
///
/// All methods default to no-ops, so observers implement only what they
/// need. Tuples of observers compose: `(PhaseObserver::new(), DelayObserver::new())`.
pub trait Observer: Send {
    /// `true` if this observer reads [`RoundCtx::snapshot`]. On the
    /// delta stepping path the engine materializes a CSR snapshot per
    /// round *only* for observers that ask for it; returning `false`
    /// (the default) keeps the per-round cost proportional to churn.
    fn needs_snapshots(&self) -> bool {
        false
    }

    /// `true` if this observer reads [`RoundCtx::delta`]. Flooding over a
    /// lane model starts with scan rounds, which record no churn and
    /// pass `delta: None`; an observer that asks for deltas makes the
    /// engine run adjacency rounds, with a delta every round, from the
    /// first round on. Returning `false` (the default) leaves the engine
    /// free to scan. Observers asking for snapshots get adjacency rounds
    /// too.
    fn needs_deltas(&self) -> bool {
        false
    }

    /// A trial is starting: `n` nodes, `sources` informed at round 0.
    fn on_trial_start(&mut self, trial: usize, n: usize, sources: &[u32]) {
        let _ = (trial, n, sources);
    }

    /// One round completed.
    fn on_round(&mut self, ctx: &RoundCtx<'_>) {
        let _ = ctx;
    }

    /// The trial finished (completed, capped, or quiescent).
    fn on_trial_end(&mut self, record: &TrialRecord) {
        let _ = record;
    }
}

impl Observer for () {}

impl<A: Observer, B: Observer> Observer for (A, B) {
    fn needs_snapshots(&self) -> bool {
        self.0.needs_snapshots() || self.1.needs_snapshots()
    }
    fn needs_deltas(&self) -> bool {
        self.0.needs_deltas() || self.1.needs_deltas()
    }
    fn on_trial_start(&mut self, trial: usize, n: usize, sources: &[u32]) {
        self.0.on_trial_start(trial, n, sources);
        self.1.on_trial_start(trial, n, sources);
    }
    fn on_round(&mut self, ctx: &RoundCtx<'_>) {
        self.0.on_round(ctx);
        self.1.on_round(ctx);
    }
    fn on_trial_end(&mut self, record: &TrialRecord) {
        self.0.on_trial_end(record);
        self.1.on_trial_end(record);
    }
}

impl<A: Observer, B: Observer, C: Observer> Observer for (A, B, C) {
    fn needs_snapshots(&self) -> bool {
        self.0.needs_snapshots() || self.1.needs_snapshots() || self.2.needs_snapshots()
    }
    fn needs_deltas(&self) -> bool {
        self.0.needs_deltas() || self.1.needs_deltas() || self.2.needs_deltas()
    }
    fn on_trial_start(&mut self, trial: usize, n: usize, sources: &[u32]) {
        self.0.on_trial_start(trial, n, sources);
        self.1.on_trial_start(trial, n, sources);
        self.2.on_trial_start(trial, n, sources);
    }
    fn on_round(&mut self, ctx: &RoundCtx<'_>) {
        self.0.on_round(ctx);
        self.1.on_round(ctx);
        self.2.on_round(ctx);
    }
    fn on_trial_end(&mut self, record: &TrialRecord) {
        self.0.on_trial_end(record);
        self.1.on_trial_end(record);
        self.2.on_trial_end(record);
    }
}

/// Streams the mean growth curve `E[|I_t|]` across trials without
/// buffering per-trial curves.
///
/// Trials that end early (completed or quiescent) are padded with their
/// final informed count — an informed set never shrinks.
#[derive(Debug, Clone, Default)]
pub struct MeanGrowthObserver {
    node_count: usize,
    sums: Vec<f64>,
    finished: Vec<(u32, usize)>,
    trials: usize,
}

impl MeanGrowthObserver {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&mut self, round: u32, size: usize) {
        let slot = round as usize;
        if self.sums.len() <= slot {
            self.sums.resize(slot + 1, 0.0);
        }
        self.sums[slot] += size as f64;
    }

    /// The mean informed-set size per round, averaged over all observed
    /// trials (empty if no trial ran).
    pub fn mean_sizes(&self) -> Vec<f64> {
        if self.trials == 0 {
            return Vec::new();
        }
        let mut finished = self.finished.clone();
        finished.sort_unstable();
        let mut padded = 0.0;
        let mut cursor = 0;
        let mut out = Vec::with_capacity(self.sums.len());
        for (t, &sum) in self.sums.iter().enumerate() {
            while cursor < finished.len() && (finished[cursor].0 as usize) < t {
                padded += finished[cursor].1 as f64;
                cursor += 1;
            }
            out.push((sum + padded) / self.trials as f64);
        }
        out
    }

    /// Number of nodes of the observed processes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }
}

impl Observer for MeanGrowthObserver {
    fn on_trial_start(&mut self, _trial: usize, n: usize, sources: &[u32]) {
        self.node_count = n;
        self.trials += 1;
        self.record(0, sources.len());
    }

    fn on_round(&mut self, ctx: &RoundCtx<'_>) {
        self.record(ctx.round, ctx.informed_count);
    }

    fn on_trial_end(&mut self, record: &TrialRecord) {
        self.finished.push((record.rounds, record.informed));
    }
}

/// Streams the Lemma 13/14 phase structure: per-trial spreading-phase
/// end (`|I_t| >= n/2`), saturation tail, doubling rounds and the
/// largest doubling gap — without buffering growth curves.
///
/// Mirrors [`crate::analysis::GrowthCurve`]'s definitions exactly; the
/// engine tests pin the two against each other.
#[derive(Debug, Clone, Default)]
pub struct PhaseObserver {
    node_count: usize,
    // Current-trial state.
    next_target: u64,
    doubling: Vec<u32>,
    spreading_end: Option<u32>,
    completion: Option<u32>,
    // Cross-trial accumulators.
    spreading: Summary,
    saturation: Summary,
    total: Summary,
    max_gap: Summary,
    example_doubling: Option<Vec<u32>>,
}

impl PhaseObserver {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn advance(&mut self, round: u32, size: usize) {
        while self.next_target <= self.node_count as u64 && size as u64 >= self.next_target {
            if self.next_target >= 2 {
                self.doubling.push(round);
            }
            self.next_target *= 2;
        }
        let half = (0.5 * self.node_count as f64).ceil() as usize;
        if self.spreading_end.is_none() && size >= half {
            self.spreading_end = Some(round);
        }
        if self.completion.is_none() && size == self.node_count {
            self.completion = Some(round);
        }
    }

    /// Summary of spreading-phase lengths over completed trials.
    pub fn spreading(&self) -> &Summary {
        &self.spreading
    }

    /// Summary of saturation-tail lengths over completed trials.
    pub fn saturation(&self) -> &Summary {
        &self.saturation
    }

    /// Summary of total completion times over completed trials.
    pub fn total(&self) -> &Summary {
        &self.total
    }

    /// Summary of per-trial maximum doubling gaps (Lemma 13 regime).
    pub fn max_doubling_gap(&self) -> &Summary {
        &self.max_gap
    }

    /// Doubling rounds of the first completed trial (for display).
    pub fn example_doubling_rounds(&self) -> Option<&[u32]> {
        self.example_doubling.as_deref()
    }
}

impl Observer for PhaseObserver {
    fn on_trial_start(&mut self, _trial: usize, n: usize, sources: &[u32]) {
        self.node_count = n;
        self.next_target = 1;
        self.doubling.clear();
        self.spreading_end = None;
        self.completion = None;
        self.advance(0, sources.len());
    }

    fn on_round(&mut self, ctx: &RoundCtx<'_>) {
        self.advance(ctx.round, ctx.informed_count);
    }

    fn on_trial_end(&mut self, _record: &TrialRecord) {
        if let (Some(se), Some(ct)) = (self.spreading_end, self.completion) {
            self.spreading.push(se as f64);
            self.saturation.push((ct - se) as f64);
            self.total.push(ct as f64);
            // Largest gap between consecutive doublings with targets
            // 2^k <= n/2 — the regime of Lemma 13 (matches
            // `GrowthCurve::max_doubling_gap`).
            let half = self.node_count as u64 / 2;
            if half >= 2 {
                let keep = half.ilog2() as usize;
                let rounds = &self.doubling[..self.doubling.len().min(keep)];
                if rounds.len() >= 2 {
                    if let Some(g) = rounds.windows(2).map(|w| w[1] - w[0]).max() {
                        self.max_gap.push(g as f64);
                    }
                }
            }
            if self.example_doubling.is_none() {
                self.example_doubling = Some(self.doubling.clone());
            }
        }
    }
}

/// Streams per-round edge churn from [`RoundCtx::delta`] — the
/// delta-native observer pattern: no snapshot is ever materialized
/// ([`Observer::needs_snapshots`] stays `false`), so observing churn on
/// the delta path costs `O(1)` per round.
///
/// The first observed round of each trial carries the full `E_0` as a
/// baseline emission (see the delta contract in [`crate::delta`]); it is
/// recorded separately as [`ChurnObserver::initial_edges`], so
/// [`ChurnObserver::churn`] summarizes genuine per-round churn only.
/// Rounds executed on the snapshot path (where no delta exists) are
/// counted in [`ChurnObserver::rounds_without_delta`].
///
/// # Examples
///
/// ```
/// use dynagraph::engine::{ChurnObserver, Simulation, Stepping};
/// use dynagraph::PeriodicEvolvingGraph;
/// use dg_graph::generators;
///
/// let graphs = [generators::path(8), generators::cycle(8)];
/// let (_, observers) = Simulation::builder()
///     .model(|_| PeriodicEvolvingGraph::new(&graphs).unwrap())
///     .trials(1)
///     .max_rounds(50)
///     .stepping(Stepping::Delta)
///     .observers(|_| ChurnObserver::new())
///     .run_observed();
/// let obs = &observers[0];
/// assert_eq!(obs.rounds_without_delta(), 0);
/// assert_eq!(obs.initial_edges().mean(), 7.0); // E_0 is the path
/// assert!(obs.churn().mean() > 0.0); // path <-> cycle churns every round
/// ```
#[derive(Debug, Clone)]
pub struct ChurnObserver {
    churn: Summary,
    added: u64,
    removed: u64,
    initial_edges: Summary,
    rounds_without_delta: u64,
    fresh_trial: bool,
}

impl Default for ChurnObserver {
    fn default() -> Self {
        ChurnObserver {
            churn: Summary::new(),
            added: 0,
            removed: 0,
            initial_edges: Summary::new(),
            rounds_without_delta: 0,
            // Start expecting a baseline emission even if the embedder
            // never forwards `on_trial_start` (composed observers).
            fresh_trial: true,
        }
    }
}

impl ChurnObserver {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Summary of per-round churn (`|added| + |removed|`) across all
    /// observed rounds, excluding each trial's baseline emission.
    pub fn churn(&self) -> &Summary {
        &self.churn
    }

    /// Total edges added across observed rounds (baselines excluded).
    pub fn added(&self) -> u64 {
        self.added
    }

    /// Total edges removed across observed rounds.
    pub fn removed(&self) -> u64 {
        self.removed
    }

    /// Summary of `|E_0|` per trial (the baseline full emissions).
    pub fn initial_edges(&self) -> &Summary {
        &self.initial_edges
    }

    /// Rounds that carried no delta (snapshot-path rounds).
    pub fn rounds_without_delta(&self) -> u64 {
        self.rounds_without_delta
    }
}

impl Observer for ChurnObserver {
    fn needs_deltas(&self) -> bool {
        true
    }

    fn on_trial_start(&mut self, _trial: usize, _n: usize, _sources: &[u32]) {
        self.fresh_trial = true;
    }

    fn on_round(&mut self, ctx: &RoundCtx<'_>) {
        let Some(delta) = ctx.delta else {
            self.rounds_without_delta += 1;
            return;
        };
        if self.fresh_trial {
            self.fresh_trial = false;
            self.initial_edges.push(delta.added().len() as f64);
            return;
        }
        self.churn.push(delta.churn() as f64);
        self.added += delta.added().len() as u64;
        self.removed += delta.removed().len() as u64;
    }
}

/// Streams per-node delivery delays (the round each node was informed)
/// across trials, for latency percentiles.
#[derive(Debug, Clone, Default)]
pub struct DelayObserver {
    node_count: usize,
    delays: Vec<f64>,
    uninformed: usize,
}

impl DelayObserver {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// All observed delivery delays (sources count as 0).
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// Nodes never informed across all trials.
    pub fn uninformed(&self) -> usize {
        self.uninformed
    }

    /// Order statistics of the delays; `None` if nothing was delivered.
    pub fn quantiles(&self) -> Option<Quantiles> {
        Quantiles::try_new(self.delays.clone())
    }
}

impl Observer for DelayObserver {
    fn on_trial_start(&mut self, _trial: usize, n: usize, sources: &[u32]) {
        self.node_count = n;
        self.delays.extend(sources.iter().map(|_| 0.0));
    }

    fn on_round(&mut self, ctx: &RoundCtx<'_>) {
        self.delays
            .extend(ctx.newly_informed.iter().map(|_| ctx.round as f64));
    }

    fn on_trial_end(&mut self, record: &TrialRecord) {
        self.uninformed += self.node_count.saturating_sub(record.informed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        round: u32,
        snapshot: &'a Snapshot,
        newly: &'a [u32],
        informed: usize,
    ) -> RoundCtx<'a> {
        RoundCtx {
            round,
            snapshot: Some(snapshot),
            delta: None,
            newly_informed: newly,
            informed_count: informed,
            messages: newly.len() as u64,
        }
    }

    #[test]
    fn churn_observer_separates_baseline_from_churn() {
        let mut obs = ChurnObserver::new();
        let mut d = EdgeDelta::new();
        obs.on_trial_start(0, 4, &[0]);
        d.record_full([(0, 1), (1, 2), (2, 3)]);
        obs.on_round(&RoundCtx {
            round: 1,
            snapshot: None,
            delta: Some(&d),
            newly_informed: &[1],
            informed_count: 2,
            messages: 1,
        });
        d.begin_round();
        d.push_removed((2, 3));
        d.push_added((0, 2));
        d.push_added((0, 3));
        obs.on_round(&RoundCtx {
            round: 2,
            snapshot: None,
            delta: Some(&d),
            newly_informed: &[2, 3],
            informed_count: 4,
            messages: 2,
        });
        assert_eq!(obs.initial_edges().mean(), 3.0);
        assert_eq!(obs.churn().mean(), 3.0);
        assert_eq!(obs.added(), 2);
        assert_eq!(obs.removed(), 1);
        assert_eq!(obs.rounds_without_delta(), 0);
        // Snapshot-path rounds carry no delta and are tallied apart.
        let snap = Snapshot::empty(4);
        obs.on_round(&ctx(3, &snap, &[], 4));
        assert_eq!(obs.rounds_without_delta(), 1);
    }

    #[test]
    fn mean_growth_pads_finished_trials() {
        let snap = Snapshot::empty(4);
        let mut obs = MeanGrowthObserver::new();
        // Trial 0: completes at round 1 with all 4 informed.
        obs.on_trial_start(0, 4, &[0]);
        obs.on_round(&ctx(1, &snap, &[1, 2, 3], 4));
        obs.on_trial_end(&TrialRecord {
            trial: 0,
            seed: 0,
            time: Some(1),
            informed: 4,
            rounds: 1,
            messages: 3,
        });
        // Trial 1: takes 2 rounds.
        obs.on_trial_start(1, 4, &[0]);
        obs.on_round(&ctx(1, &snap, &[1], 2));
        obs.on_round(&ctx(2, &snap, &[2, 3], 4));
        obs.on_trial_end(&TrialRecord {
            trial: 1,
            seed: 1,
            time: Some(2),
            informed: 4,
            rounds: 2,
            messages: 3,
        });
        // Round 2: trial 0 padded at 4 => mean (4 + 4)/2.
        assert_eq!(obs.mean_sizes(), vec![1.0, 3.0, 4.0]);
    }

    #[test]
    fn phase_observer_matches_growth_curve() {
        use crate::analysis::GrowthCurve;
        let sizes = [1u32, 2, 3, 4, 5, 6, 7, 8];
        let snap = Snapshot::empty(8);
        let mut obs = PhaseObserver::new();
        obs.on_trial_start(0, 8, &[0]);
        for (t, &s) in sizes.iter().enumerate().skip(1) {
            obs.on_round(&ctx(t as u32, &snap, &[], s as usize));
        }
        obs.on_trial_end(&TrialRecord {
            trial: 0,
            seed: 0,
            time: Some(7),
            informed: 8,
            rounds: 7,
            messages: 0,
        });
        let curve = GrowthCurve::new(sizes.to_vec(), 8);
        assert_eq!(obs.total().mean(), 7.0);
        assert_eq!(
            obs.spreading().mean(),
            curve.spreading_phase_end().unwrap() as f64
        );
        assert_eq!(
            obs.max_doubling_gap().mean(),
            curve.max_doubling_gap().unwrap() as f64
        );
        assert_eq!(
            obs.example_doubling_rounds().unwrap(),
            curve.doubling_rounds().as_slice()
        );
    }

    #[test]
    fn delay_observer_collects() {
        let snap = Snapshot::empty(3);
        let mut obs = DelayObserver::new();
        obs.on_trial_start(0, 3, &[0]);
        obs.on_round(&ctx(1, &snap, &[1], 2));
        obs.on_round(&ctx(2, &snap, &[2], 3));
        assert_eq!(obs.delays(), &[0.0, 1.0, 2.0]);
        let q = obs.quantiles().unwrap();
        assert_eq!(q.max(), 2.0);
    }
}
