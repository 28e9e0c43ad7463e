//! The adaptive `(cell × trial)` scheduler.
//!
//! One shared work pool flattens every cell's trials together: workers
//! steal whichever `(cell, trial)` item is runnable next, so small cells
//! never leave cores idle the way per-cell trial parallelism does. The
//! price of adaptivity under parallelism is paid by *bounded
//! speculation*: a cell may run a few trials past the point where the
//! stopping rule would have cut it off, and those extra samples are
//! simply discarded — the report only ever contains the deterministic
//! prefix, so scheduling order can never leak into results.

use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dg_stats::{mean_ci95_t, Summary};

use crate::axis::{Axis, Cell, Grid, Metric};
use crate::budget::{CiTarget, TrialBudget};
use crate::error::SweepError;
use crate::instrument::sweep_obs;
use crate::mix_seed;
use crate::report::{fingerprint, CellReport, SweepReport};

/// Minimum spacing between progress heartbeats (`DG_LOG=info`).
const HEARTBEAT_EVERY: Duration = Duration::from_secs(2);

/// Bounded attempts for checkpoint reads/writes that fail transiently
/// (`std::io::ErrorKind::Interrupted` and friends — the class
/// `dg_fault::io_check` injects), with deterministic backoff between
/// tries. Non-transient I/O errors still fail on the first attempt.
const IO_ATTEMPTS: u32 = 4;

/// What the scheduler does when the trial function panics.
///
/// The default, [`TrialPanic::Propagate`], preserves the historical
/// behavior: the panic unwinds out of [`Sweep::run`] (the pool drains
/// first, so it cannot deadlock). The other two policies make a sweep
/// survive faulty trials — the `dg-fault` site `sweep.trial.panic`
/// exists precisely to prove they work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialPanic {
    /// Unwind out of the sweep (default).
    Propagate,
    /// Re-run the panicked trial in place, up to `max` extra attempts
    /// per claimed trial, with its *original* seed — so a sweep that
    /// recovers from transient panics produces an artifact
    /// byte-identical to a fault-free run. Exhausting the attempts
    /// propagates the last panic.
    ///
    /// Retried trials re-enter the trial function with the same
    /// per-worker state; the state contract already requires observable
    /// behavior to be seed-determined (the engine re-randomizes cached
    /// models per trial), which is exactly what makes an in-place rerun
    /// sound.
    Retry {
        /// Extra attempts per claimed trial before giving up.
        max: u32,
    },
    /// Record the trial as fully censored (`None` in every metric slot)
    /// and keep going. Degrades gracefully at the cost of bytes: unlike
    /// [`TrialPanic::Retry`], the artifact differs from a fault-free
    /// run exactly where trials were lost.
    Censor,
}

/// Identity of one scheduled trial, handed to the trial function.
///
/// `seed == mix_seed(cell_seed, index)` and
/// `cell_seed == mix_seed(base_seed, cell.id())` — the same SplitMix64
/// derivation as `dynagraph::mix_seed`, so a trial function can hand
/// `cell_seed` to `SimulationBuilder::base_seed` and `index` to
/// `SimulationBuilder::run_trial` and the engine derives exactly `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Trial index within the cell (0-based, dense).
    pub index: usize,
    /// The cell's derived seed, `mix_seed(base_seed, cell.id())`.
    pub cell_seed: u64,
    /// This trial's derived seed, `mix_seed(cell_seed, index)`.
    pub seed: u64,
}

/// Builder-driven sweep runner: a [`Grid`] × a trial function, scheduled
/// adaptively. Construct with [`Sweep::over`].
#[derive(Debug, Clone)]
pub struct Sweep {
    grid: Grid,
    budget: TrialBudget,
    base_seed: u64,
    threads: Option<usize>,
    lookahead: usize,
    run_budget: Option<usize>,
    checkpoint: Option<PathBuf>,
    on_trial_panic: TrialPanic,
}

impl Sweep {
    /// Starts configuring a sweep over `grid`. Defaults: adaptive budget
    /// (8–64 trials per cell, 5% relative CI target), base seed
    /// `0xD15E_A5E1`, one worker per available core,
    /// speculation lookahead 2, no run budget, no checkpoint, panics
    /// propagate ([`TrialPanic::Propagate`]).
    pub fn over(grid: Grid) -> Sweep {
        Sweep {
            grid,
            budget: TrialBudget::adaptive(8, 64, crate::CiTarget::Relative(0.05)),
            base_seed: 0xD15E_A5E1,
            threads: None,
            lookahead: 2,
            run_budget: None,
            checkpoint: None,
            on_trial_panic: TrialPanic::Propagate,
        }
    }

    /// Sets the per-cell trial budget (see [`TrialBudget`]).
    pub fn budget(mut self, budget: TrialBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Base seed; cell `c` uses `mix_seed(base_seed, c)` and its trial
    /// `i` uses `mix_seed(mix_seed(base_seed, c), i)`.
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Sets the exact worker count (default: all available cores);
    /// `threads(1)` runs every trial on the calling thread. Results are
    /// byte-identical at every count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Caps how many trials a cell may run *past* the earliest point the
    /// stopping rule could cut it off (default 2). Larger values keep
    /// more workers busy near the end of a cell at the cost of more
    /// discarded speculative trials; zero serializes each cell's
    /// stopping decision exactly.
    pub fn lookahead(mut self, lookahead: usize) -> Self {
        self.lookahead = lookahead;
        self
    }

    /// Stops scheduling new trials after `trials` completions in *this
    /// run* and returns a partial report (cells keep their complete
    /// sample prefixes, `decided` only where the rule already fired).
    /// With a [`Sweep::checkpoint`], this time-boxes a long sweep: rerun
    /// with the same configuration to continue where it stopped.
    pub fn run_budget(mut self, trials: usize) -> Self {
        self.run_budget = Some(trials);
        self
    }

    /// Makes the sweep resumable: if `path` holds an artifact written by
    /// a sweep with this exact configuration (grid, seed, budget), its
    /// samples are reloaded and only missing trials run; the artifact is
    /// rewritten (atomically) as cells finish and once more on return.
    ///
    /// An artifact from a *different* configuration is an error, not a
    /// silent restart.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Sets the panic policy for the trial function (see
    /// [`TrialPanic`]; default [`TrialPanic::Propagate`]). The policy
    /// never changes *which* `(cell, trial)` seeds run, only what
    /// happens when one of them unwinds — under
    /// [`TrialPanic::Retry`] the recovered artifact is byte-identical
    /// to a fault-free run.
    pub fn on_trial_panic(mut self, policy: TrialPanic) -> Self {
        self.on_trial_panic = policy;
        self
    }

    /// Runs the sweep: every cell of the grid gets between
    /// `budget.min_trials` and `budget.max_trials` trials, stopping
    /// early per cell once the Student-t 95% CI half-width over its
    /// completed samples meets the budget's target.
    ///
    /// `trial_fn(cell, trial)` must be a pure function of `(cell,
    /// trial.seed)`; it returns `Some(sample)` (finite) or `None` for a
    /// censored trial (e.g. a round cap hit). The report is
    /// byte-identical however the sweep is scheduled — serial, parallel,
    /// or resumed.
    ///
    /// # Errors
    ///
    /// Only checkpoint IO/validation can fail; a sweep without
    /// [`Sweep::checkpoint`] always returns `Ok`.
    ///
    /// # Panics
    ///
    /// Panics if `trial_fn` panics or returns a non-finite sample
    /// (censor with `None` instead — `NaN`/`inf` would silently defeat
    /// the stopping rule and have no artifact representation), or if
    /// the grid declares [`crate::Grid::metrics`] (a multi-metric sweep
    /// must sample every declared metric: use [`Sweep::run_metrics`]).
    pub fn run<F>(self, trial_fn: F) -> Result<SweepReport, SweepError>
    where
        F: Fn(&Cell, Trial) -> Option<f64> + Sync,
    {
        self.run_with_state(|| (), |cell, trial, ()| trial_fn(cell, trial))
    }

    /// Runs a multi-metric sweep: `trial_fn(cell, trial)` returns one
    /// `Option<f64>` slot per metric the grid declares
    /// ([`crate::Grid::metrics`]), in declaration order — `None` marks
    /// that metric censored *in that trial* (a round cap can censor
    /// `rounds` while `messages` is still counted). A cell stops once
    /// every gating metric meets its CI target
    /// ([`TrialBudget::stop_at_metrics`]) or the trial cap hits, and the
    /// artifact is written in the `dg-sweep/2` format. The
    /// byte-determinism contract is identical to [`Sweep::run`].
    ///
    /// # Errors
    ///
    /// Same as [`Sweep::run`].
    ///
    /// # Panics
    ///
    /// Panics if `trial_fn` panics, returns a row whose length differs
    /// from the declared metric count, returns a non-finite slot, or if
    /// the grid declares no metrics (use [`Sweep::run`]).
    pub fn run_metrics<F>(self, trial_fn: F) -> Result<SweepReport, SweepError>
    where
        F: Fn(&Cell, Trial) -> Vec<Option<f64>> + Sync,
    {
        self.run_metrics_with_state(|| (), |cell, trial, ()| trial_fn(cell, trial))
    }

    /// [`Sweep::run_metrics`] with per-worker state — the multi-metric
    /// form of [`Sweep::run_with_state`], with the same reuse and
    /// determinism contracts.
    ///
    /// # Errors
    ///
    /// Same as [`Sweep::run`].
    ///
    /// # Panics
    ///
    /// Same as [`Sweep::run_metrics`].
    pub fn run_metrics_with_state<S, I, F>(
        self,
        worker_state: I,
        trial_fn: F,
    ) -> Result<SweepReport, SweepError>
    where
        I: Fn() -> S + Sync,
        F: Fn(&Cell, Trial, &mut S) -> Vec<Option<f64>> + Sync,
    {
        assert!(
            self.grid.metrics_table().is_some(),
            "run_metrics on a grid without declared metrics: attach Grid::metrics, or use Sweep::run"
        );
        self.run_rows(worker_state, trial_fn)
    }

    /// [`Sweep::run`] with per-worker state — the zero-rebuild hook.
    ///
    /// Each worker thread calls `worker_state()` once and hands the
    /// resulting value mutably to every trial it executes, so expensive
    /// per-trial setup (model construction, buffer allocation) can be
    /// paid once per worker and reused: hold a per-cell model cache plus
    /// an engine `TrialScratch` in `S` and drive trials through
    /// `SimulationBuilder::run_trial_with`. A cell's model is then
    /// constructed once per worker per cell and merely re-randomized
    /// (`reset`) for the cell's remaining trials.
    ///
    /// The determinism contract is unchanged: `trial_fn(cell, trial,
    /// state)` must return a pure function of `(cell, trial.seed)` —
    /// state may only carry *reusable* resources whose observable
    /// behavior is seed-determined (exactly what the engine's model
    /// reuse contract guarantees), never results. The report stays
    /// byte-identical however the `(cell × trial)` items are scheduled.
    ///
    /// # Errors
    ///
    /// Same as [`Sweep::run`].
    ///
    /// # Panics
    ///
    /// Same as [`Sweep::run`].
    pub fn run_with_state<S, I, F>(
        self,
        worker_state: I,
        trial_fn: F,
    ) -> Result<SweepReport, SweepError>
    where
        I: Fn() -> S + Sync,
        F: Fn(&Cell, Trial, &mut S) -> Option<f64> + Sync,
    {
        assert!(
            self.grid.metrics_table().is_none(),
            "this grid declares metrics; sample them with Sweep::run_metrics"
        );
        self.run_rows(worker_state, |cell, trial, state| {
            vec![trial_fn(cell, trial, state)]
        })
    }

    /// The one scheduler: every sample is a row (`width` slots, width 1
    /// for classic scalar sweeps), and the stopping rule is dispatched
    /// on whether the grid declares metrics. Both public entry points
    /// funnel here, so scalar and multi-metric sweeps share scheduling,
    /// checkpointing, and determinism behavior exactly.
    fn run_rows<S, I, F>(self, worker_state: I, trial_fn: F) -> Result<SweepReport, SweepError>
    where
        I: Fn() -> S + Sync,
        F: Fn(&Cell, Trial, &mut S) -> Vec<Option<f64>> + Sync,
    {
        let cells = self.grid.cells();
        let cell_seeds: Vec<u64> = cells
            .iter()
            .map(|c| mix_seed(self.base_seed, c.id() as u64))
            .collect();

        let metrics = self.grid.metrics_table();
        // The metrics the stopping rule reads: a metric-less sweep stops
        // on its one sample slot as one default metric.
        let sample = [Metric::new("sample")];
        let stopping = metrics.unwrap_or(&sample);
        let mut states: Vec<CellState> =
            cells.iter().map(|_| CellState::new(&self.budget)).collect();
        if let Some(path) = &self.checkpoint {
            if path.exists() {
                let text = dg_fault::retry(IO_ATTEMPTS, transient, || {
                    dg_fault::io_check("store.read.err")?;
                    Ok(std::fs::read_to_string(path)?)
                })?;
                let prior = SweepReport::from_json(&text)?;
                let ours = fingerprint(
                    self.grid.axes(),
                    self.grid.max_rounds_table(),
                    metrics,
                    self.base_seed,
                    &self.budget,
                );
                let theirs = prior.fingerprint();
                if ours != theirs {
                    return Err(SweepError::Mismatch(format!(
                        "checkpoint {} belongs to a different sweep (fingerprint {theirs} != {ours})",
                        path.display()
                    )));
                }
                for (state, cell) in states.iter_mut().zip(prior.cells) {
                    state.preload(cell.samples, &self.budget, stopping);
                }
            }
        }

        let obs = sweep_obs();
        obs.cells_total.set(cells.len() as i64);
        obs.cells_decided
            .set(states.iter().filter(|c| c.decided.is_some()).count() as i64);

        let shared = Shared {
            state: Mutex::new(State {
                cells: states,
                cursor: 0,
                spent: 0,
                stopped: false,
                aborted: false,
                io_error: None,
            }),
            cond: Condvar::new(),
            checkpoint_io: Mutex::new(()),
            heartbeat: Mutex::new(Instant::now()),
            cells: &cells,
            cell_seeds: &cell_seeds,
            budget: self.budget,
            lookahead: self.lookahead,
            run_budget: self.run_budget,
            checkpoint: self.checkpoint.as_deref(),
            on_trial_panic: self.on_trial_panic,
            axes: self.grid.axes(),
            max_rounds: self.grid.max_rounds_table(),
            metrics,
            stopping,
            base_seed: self.base_seed,
        };

        let workers = self.worker_count(cells.len());
        if workers <= 1 {
            worker(&shared, &worker_state, &trial_fn);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| worker(&shared, &worker_state, &trial_fn));
                }
            });
        }

        let state = shared.state.into_inner().expect("no worker held the lock");
        if let Some(e) = state.io_error {
            return Err(e);
        }
        let report = build_report(
            self.grid.axes(),
            self.grid.max_rounds_table(),
            metrics,
            self.base_seed,
            &self.budget,
            &cells,
            &state.cells,
        );
        if let Some(path) = &self.checkpoint {
            dg_fault::retry(IO_ATTEMPTS, transient, || report.write_json(path))?;
        }
        Ok(report)
    }

    fn worker_count(&self, cells: usize) -> usize {
        let available = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let upper = cells.saturating_mul(self.budget.max_trials).max(1);
        self.threads.unwrap_or(available).min(upper).max(1)
    }
}

/// One trial slot: claimed-but-running or a recorded sample row.
#[derive(Debug, Clone, PartialEq)]
enum Slot {
    Running,
    Done(Vec<Option<f64>>),
}

#[derive(Debug)]
struct CellState {
    /// Trials claimed so far (`slots.len() == issued`).
    issued: usize,
    slots: Vec<Slot>,
    /// The contiguous completed prefix of sample rows, in trial order.
    samples: Vec<Vec<Option<f64>>>,
    /// First prefix length the stopping rule has not yet ruled out.
    next_check: usize,
    /// Final trial count, once the rule fires.
    decided: Option<usize>,
}

impl CellState {
    fn new(budget: &TrialBudget) -> Self {
        CellState {
            issued: 0,
            slots: Vec::new(),
            samples: Vec::new(),
            next_check: budget.min_trials,
            decided: None,
        }
    }

    /// Adopts a checkpointed sample prefix, re-deriving the stopping
    /// decision (a pure function of the samples, so this matches what
    /// the interrupted run had concluded).
    fn preload(
        &mut self,
        samples: Vec<Vec<Option<f64>>>,
        budget: &TrialBudget,
        stopping: &[Metric],
    ) {
        self.slots = samples.iter().map(|s| Slot::Done(s.clone())).collect();
        self.issued = self.slots.len();
        self.samples = samples;
        self.advance(budget, stopping);
    }

    /// Advances the contiguous prefix and the stopping decision.
    fn advance(&mut self, budget: &TrialBudget, stopping: &[Metric]) -> bool {
        while self.samples.len() < self.issued {
            match &self.slots[self.samples.len()] {
                Slot::Done(s) => self.samples.push(s.clone()),
                Slot::Running => break,
            }
        }
        while self.decided.is_none() && self.next_check <= self.samples.len() {
            if budget.stop_at_metrics(stopping, &self.samples[..self.next_check]) {
                self.decided = Some(self.next_check);
                // Speculative trials past the decision point are
                // discarded: the report holds the deterministic prefix.
                self.samples.truncate(self.next_check);
                self.slots.truncate(self.next_check);
                self.issued = self.issued.min(self.next_check);
                return true;
            }
            self.next_check += 1;
        }
        false
    }

    fn claimable(&self, budget: &TrialBudget, lookahead: usize) -> bool {
        self.decided.is_none()
            && self.issued
                < budget
                    .max_trials
                    .min(self.next_check.saturating_add(lookahead))
    }
}

struct State {
    cells: Vec<CellState>,
    /// Rotating scan start, so workers spread across cells instead of
    /// piling onto cell 0.
    cursor: usize,
    /// Trials completed in this run (speculative ones included — they
    /// consumed work).
    spent: usize,
    /// Run budget exhausted: stop claiming, finish in-flight trials.
    stopped: bool,
    /// A worker panicked mid-trial: everyone drains out so the panic can
    /// propagate instead of deadlocking the pool.
    aborted: bool,
    io_error: Option<SweepError>,
}

impl State {
    fn all_decided(&self) -> bool {
        self.cells.iter().all(|c| c.decided.is_some())
    }
}

struct Shared<'a> {
    state: Mutex<State>,
    cond: Condvar,
    /// Serializes checkpoint writes: snapshotting the state and renaming
    /// the artifact happen under this lock, so concurrent cell decisions
    /// can neither interleave on the shared `.tmp` sibling nor rename an
    /// older snapshot over a newer one.
    checkpoint_io: Mutex<()>,
    /// Last progress heartbeat, rate-limiting the `DG_LOG=info` line.
    heartbeat: Mutex<Instant>,
    cells: &'a [Cell],
    cell_seeds: &'a [u64],
    budget: TrialBudget,
    lookahead: usize,
    run_budget: Option<usize>,
    checkpoint: Option<&'a Path>,
    on_trial_panic: TrialPanic,
    axes: &'a [Axis],
    max_rounds: Option<&'a [u32]>,
    metrics: Option<&'a [Metric]>,
    /// What the stopping rule reads: `metrics`, or one default metric
    /// over a metric-less sweep's one sample slot.
    stopping: &'a [Metric],
    base_seed: u64,
}

/// The transient-I/O class worth a bounded retry: exactly what
/// [`dg_fault::is_transient`] accepts, lifted over [`SweepError`].
fn transient(e: &SweepError) -> bool {
    matches!(e, SweepError::Io(io) if dg_fault::is_transient(io))
}

fn lock<'a>(shared: &'a Shared<'_>) -> MutexGuard<'a, State> {
    shared
        .state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Sets the abort flag if dropped while armed — i.e. if the trial
/// function unwinds — so waiting workers drain instead of deadlocking.
struct AbortOnPanic<'a, 'b> {
    shared: &'a Shared<'b>,
    armed: bool,
}

impl Drop for AbortOnPanic<'_, '_> {
    fn drop(&mut self) {
        if self.armed {
            lock(self.shared).aborted = true;
            self.shared.cond.notify_all();
        }
    }
}

fn worker<S, I, F>(shared: &Shared<'_>, worker_state: &I, trial_fn: &F)
where
    I: Fn() -> S + Sync,
    F: Fn(&Cell, Trial, &mut S) -> Vec<Option<f64>> + Sync,
{
    // One state per worker thread, for the whole drain: per-cell model
    // caches and scratch buffers live exactly as long as the worker.
    let mut state = worker_state();
    loop {
        // Claim the next runnable (cell, trial) item, or exit.
        let claimed = {
            let mut st = lock(shared);
            loop {
                if st.stopped || st.aborted || st.all_decided() {
                    break None;
                }
                let n = st.cells.len();
                let start = st.cursor;
                let mut found = None;
                for off in 0..n {
                    let ci = (start + off) % n;
                    if st.cells[ci].claimable(&shared.budget, shared.lookahead) {
                        found = Some(ci);
                        break;
                    }
                }
                match found {
                    Some(ci) => {
                        let cell = &mut st.cells[ci];
                        let ti = cell.issued;
                        cell.issued += 1;
                        cell.slots.push(Slot::Running);
                        st.cursor = (ci + 1) % n;
                        break Some((ci, ti));
                    }
                    None => {
                        // Everything runnable is in flight; wait for a
                        // completion to open new work or settle a cell.
                        st = shared
                            .cond
                            .wait(st)
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                    }
                }
            }
        };
        let Some((ci, ti)) = claimed else { return };
        sweep_obs().claims.inc();

        let cell_seed = shared.cell_seeds[ci];
        let trial = Trial {
            index: ti,
            cell_seed,
            seed: mix_seed(cell_seed, ti as u64),
        };
        let mut guard = AbortOnPanic {
            shared,
            armed: true,
        };
        let width = shared.metrics.map_or(1, <[Metric]>::len);
        // Run the trial under the panic policy. `AssertUnwindSafe` is
        // justified by the per-worker state contract: observable
        // behavior must be seed-determined, so a rerun (same `trial`,
        // same seed) after an unwind cannot depend on what the aborted
        // attempt left behind.
        let mut attempts = 0u32;
        let sample = loop {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dg_fault::fail_point("sweep.trial.panic");
                trial_fn(&shared.cells[ci], trial, &mut state)
            }));
            match result {
                Ok(row) => break row,
                Err(payload) => match shared.on_trial_panic {
                    TrialPanic::Retry { max } if attempts < max => {
                        attempts += 1;
                        sweep_obs().retries.inc();
                        dg_obs::dg_debug!(
                            "dg-sweep: trial {ti} of cell {} panicked; retry {attempts}/{max} with its original seed",
                            shared.cells[ci]
                        );
                    }
                    TrialPanic::Censor => {
                        dg_obs::dg_debug!(
                            "dg-sweep: trial {ti} of cell {} panicked; censored",
                            shared.cells[ci]
                        );
                        break vec![None; width];
                    }
                    // Propagate, or Retry out of attempts: unwind. The
                    // armed guard flips `aborted` so the pool drains.
                    _ => std::panic::resume_unwind(payload),
                },
            }
        };
        // Reject bad rows here, where the cell and trial are still
        // known — not rounds later inside artifact serialization.
        assert!(
            sample.len() == width,
            "trial function returned {} slots for {} declared metrics (cell {}, trial {ti})",
            sample.len(),
            width,
            shared.cells[ci]
        );
        for v in sample.iter().flatten() {
            assert!(
                v.is_finite(),
                "trial function returned non-finite sample {v} for cell {} trial {ti}",
                shared.cells[ci]
            );
        }
        guard.armed = false;

        let newly_decided = {
            let obs = sweep_obs();
            let mut st = lock(shared);
            st.spent += 1;
            obs.trials.inc();
            let cell = &mut st.cells[ci];
            let newly_decided = match cell.decided {
                // A speculative result past the decision point: discard.
                Some(d) if ti >= d => {
                    obs.discarded.inc();
                    false
                }
                _ => {
                    cell.slots[ti] = Slot::Done(sample);
                    cell.advance(&shared.budget, shared.stopping)
                }
            };
            if newly_decided {
                obs.cells_decided.add(1);
                if let Some(k) = st.cells[ci].decided {
                    obs.cell_trials.observe(k as f64);
                }
            }
            if shared.run_budget.is_some_and(|b| st.spent >= b) {
                st.stopped = true;
            }
            shared.cond.notify_all();
            newly_decided
        };

        // Durable progress: rewrite the artifact whenever a cell's
        // results become final (outside the lock; serialization is pure).
        if newly_decided && shared.checkpoint.is_some() {
            write_checkpoint(shared);
        }
        maybe_heartbeat(shared);
    }
}

/// Periodic human-readable progress (opt-in via `DG_LOG=info`): cells
/// decided, trials spent this run, and — for adaptive budgets — how far
/// the worst undecided cell is from each gating metric's CI target. The
/// CI math runs only here, rate-limited, never on the per-sample path,
/// and reads the same pure prefix statistics the stopping rule uses, so
/// it cannot perturb scheduling or results.
fn maybe_heartbeat(shared: &Shared<'_>) {
    if !dg_obs::log::enabled(dg_obs::log::Level::Info) {
        return;
    }
    {
        let mut last = shared
            .heartbeat
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if last.elapsed() < HEARTBEAT_EVERY {
            return;
        }
        *last = Instant::now();
    }
    let st = lock(shared);
    let decided = st.cells.iter().filter(|c| c.decided.is_some()).count();
    let spent = st.spent;
    let gaps = ci_gaps(shared, &st);
    drop(st);
    let mut line = format!(
        "dg-sweep: {decided}/{} cells decided, {spent} trials this run",
        shared.cells.len()
    );
    for (name, gap) in &gaps {
        crate::instrument::ci_gap_gauge(name).set((gap * 1000.0) as i64);
        line.push_str(&format!(", {name} CI at {:.0}% of target", gap * 100.0));
    }
    dg_obs::dg_info!("{line}");
}

/// Worst half-width-over-target ratio across undecided cells, per gating
/// metric (`("sample", …)` for scalar sweeps). Empty when nothing gates
/// (fixed budgets) or nothing is undecided.
fn ci_gaps<'a>(shared: &Shared<'a>, st: &State) -> Vec<(&'a str, f64)> {
    let gating = shared
        .stopping
        .iter()
        .enumerate()
        .filter_map(|(m, metric)| {
            metric
                .effective_target(shared.budget.ci_target)
                .map(|t| (m, metric.name(), t))
        });
    let mut gaps = Vec::new();
    for (m, name, target) in gating {
        let mut worst: Option<f64> = None;
        for cell in st.cells.iter().filter(|c| c.decided.is_none()) {
            let completed: Summary = cell.samples.iter().filter_map(|row| row[m]).collect();
            let Some(ci) = mean_ci95_t(&completed) else {
                continue;
            };
            let width = match target {
                CiTarget::Absolute(a) => a,
                CiTarget::Relative(r) => r * ci.mean.abs(),
            };
            if width > 0.0 {
                let gap = ci.half_width() / width;
                worst = Some(worst.map_or(gap, |w: f64| w.max(gap)));
            }
        }
        if let Some(w) = worst {
            gaps.push((name, w));
        }
    }
    gaps
}

fn write_checkpoint(shared: &Shared<'_>) {
    let io_guard = shared
        .checkpoint_io
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let report = {
        let st = lock(shared);
        build_report(
            shared.axes,
            shared.max_rounds,
            shared.metrics,
            shared.base_seed,
            &shared.budget,
            shared.cells,
            &st.cells,
        )
    };
    let path = shared.checkpoint.expect("caller checked");
    let result = dg_fault::retry(IO_ATTEMPTS, transient, || report.write_json(path));
    sweep_obs().checkpoints.inc();
    drop(io_guard);
    if let Err(e) = result {
        let mut st = lock(shared);
        if st.io_error.is_none() {
            st.io_error = Some(e);
        }
        st.stopped = true;
        shared.cond.notify_all();
    }
}

fn build_report(
    axes: &[Axis],
    max_rounds: Option<&[u32]>,
    metrics: Option<&[Metric]>,
    base_seed: u64,
    budget: &TrialBudget,
    cells: &[Cell],
    states: &[CellState],
) -> SweepReport {
    let cells = cells
        .iter()
        .zip(states)
        .map(|(cell, state)| CellReport {
            id: cell.id(),
            values: cell.values().to_vec(),
            samples: state.samples.clone(),
            decided: state.decided.is_some(),
        })
        .collect();
    SweepReport {
        axes: axes.to_vec(),
        base_seed,
        budget: *budget,
        max_rounds: max_rounds.map(|caps| caps.to_vec()),
        metrics: metrics.map(|m| m.to_vec()),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CiTarget, Grid};

    /// A deterministic noisy "measurement": variance grows with `noise`,
    /// so adaptive budgets stop low-noise cells earlier.
    fn synthetic(cell: &Cell, trial: Trial) -> Option<f64> {
        let noise = cell.get("noise");
        let jitter = (trial.seed % 1000) as f64 / 1000.0 - 0.5;
        Some(10.0 + noise * jitter)
    }

    fn grid() -> Grid {
        Grid::new().axis(Axis::explicit("noise", [0.0, 1.0, 8.0]))
    }

    #[test]
    fn fixed_budget_runs_exactly_max_trials() {
        let report = Sweep::over(grid())
            .budget(TrialBudget::fixed(7))
            .base_seed(11)
            .run(synthetic)
            .unwrap();
        assert!(report.is_complete());
        for cell in report.cells() {
            assert_eq!(cell.trials(), 7);
        }
    }

    #[test]
    fn adaptive_budget_spends_where_noise_is() {
        let report = Sweep::over(grid())
            .budget(TrialBudget::adaptive(4, 64, CiTarget::Absolute(0.2)))
            .base_seed(11)
            .run(synthetic)
            .unwrap();
        assert!(report.is_complete());
        let trials: Vec<usize> = report.cells().iter().map(|c| c.trials()).collect();
        // Zero noise stops at min_trials; the noisiest cell needs more.
        assert_eq!(trials[0], 4);
        assert!(trials[2] > trials[0], "trials = {trials:?}");
    }

    #[test]
    fn serial_parallel_and_lookahead_agree_byte_for_byte() {
        let run = |threads: usize, lookahead: usize| {
            Sweep::over(grid())
                .budget(TrialBudget::adaptive(3, 32, CiTarget::Absolute(0.5)))
                .base_seed(99)
                .threads(threads)
                .lookahead(lookahead)
                .run(synthetic)
                .unwrap()
                .to_json()
        };
        let serial = run(1, 0);
        assert_eq!(serial, run(4, 2));
        assert_eq!(serial, run(7, 5));
    }

    #[test]
    fn run_budget_stops_early_and_resume_completes() {
        let dir = std::env::temp_dir().join(format!("dg_sweep_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.json");
        let _ = std::fs::remove_file(&path);

        let config = |s: Sweep| {
            s.budget(TrialBudget::adaptive(4, 32, CiTarget::Absolute(0.3)))
                .base_seed(5)
        };
        let full = config(Sweep::over(grid())).run(synthetic).unwrap();

        let partial = config(Sweep::over(grid()))
            .checkpoint(&path)
            .run_budget(5)
            // One worker: with a pool, in-flight speculative trials could
            // outrun the budget and complete the sweep anyway.
            .threads(1)
            .run(synthetic)
            .unwrap();
        assert!(!partial.is_complete());
        assert!(partial.total_trials() < full.total_trials());

        let resumed = config(Sweep::over(grid()))
            .checkpoint(&path)
            .run(synthetic)
            .unwrap();
        assert!(resumed.is_complete());
        assert_eq!(resumed.to_json(), full.to_json());
        // The artifact on disk is the final report.
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, full.to_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_checkpoint_rejected() {
        let dir = std::env::temp_dir().join(format!("dg_sweep_test_mm_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("other.json");
        let first = Sweep::over(grid())
            .base_seed(1)
            .budget(TrialBudget::fixed(3))
            .checkpoint(&path)
            .run(synthetic)
            .unwrap();
        assert!(first.is_complete());
        let err = Sweep::over(grid())
            .base_seed(2) // different seed stream: resuming would lie
            .budget(TrialBudget::fixed(3))
            .checkpoint(&path)
            .run(synthetic)
            .unwrap_err();
        assert!(matches!(err, SweepError::Mismatch(_)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_with_state_is_byte_identical_to_stateless_run() {
        // Per-worker state (a counter standing in for a model cache)
        // must not leak into results; scheduling and worker counts vary,
        // the artifact doesn't.
        let stateless = Sweep::over(grid())
            .budget(TrialBudget::adaptive(3, 32, CiTarget::Absolute(0.5)))
            .base_seed(99)
            .threads(1)
            .run(synthetic)
            .unwrap()
            .to_json();
        for threads in [1usize, 4] {
            let stateful = Sweep::over(grid())
                .budget(TrialBudget::adaptive(3, 32, CiTarget::Absolute(0.5)))
                .base_seed(99)
                .threads(threads)
                .run_with_state(
                    || 0usize,
                    |cell, trial, reused| {
                        *reused += 1; // worker-local bookkeeping only
                        synthetic(cell, trial)
                    },
                )
                .unwrap()
                .to_json();
            assert_eq!(stateful, stateless, "threads {threads}");
        }
    }

    #[test]
    fn per_cell_round_caps_reach_trials_and_checkpoints() {
        let capped_grid = || {
            Grid::new()
                .axis(Axis::ints("n", [4, 8]))
                .max_rounds(|cell| 100 * cell.usize("n") as u32)
        };
        let flat = |_: &Cell, trial: Trial| Some(10.0 + (trial.seed % 7) as f64);
        let report = Sweep::over(capped_grid())
            .budget(TrialBudget::fixed(2))
            .run(|cell, trial| {
                assert_eq!(cell.max_rounds(), Some(100 * cell.usize("n") as u32));
                flat(cell, trial)
            })
            .unwrap();
        assert_eq!(report.max_rounds_table(), Some(&[400u32, 800][..]));
        // The artifact round-trips the caps...
        let json = report.to_json();
        assert_eq!(
            SweepReport::from_json(&json).unwrap().max_rounds_table(),
            Some(&[400u32, 800][..])
        );
        // ...and a checkpoint from a different policy is rejected.
        let dir = std::env::temp_dir().join(format!("dg_sweep_caps_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("caps.json");
        report.write_json(&path).unwrap();
        let err = Sweep::over(Grid::new().axis(Axis::ints("n", [4, 8])))
            .budget(TrialBudget::fixed(2))
            .checkpoint(&path)
            .run(flat)
            .unwrap_err();
        assert!(matches!(err, SweepError::Mismatch(_)));
        let resumed = Sweep::over(capped_grid())
            .budget(TrialBudget::fixed(2))
            .checkpoint(&path)
            .run(flat)
            .unwrap();
        assert_eq!(resumed.to_json(), json);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn censored_trials_reach_the_report() {
        let grid = Grid::new().axis(Axis::ints("n", [4]));
        let report = Sweep::over(grid)
            .budget(TrialBudget::fixed(6))
            .run(|_, trial| (trial.index % 2 == 0).then_some(3.0))
            .unwrap();
        assert_eq!(report.cell(0).trials(), 6);
        assert_eq!(report.cell(0).incomplete(), 3);
        assert_eq!(report.cell(0).mean(), Some(3.0));
    }

    fn metric_grid() -> Grid {
        Grid::new().axis(Axis::ints("n", [4])).metrics([
            Metric::new("rounds"),
            Metric::new("messages"),
            Metric::observe("coverage"),
        ])
    }

    #[test]
    fn per_metric_censoring_reaches_the_report() {
        // One trial censors `rounds` only (the round-cap shape): the
        // other metrics keep their slots, and per-metric statistics see
        // per-metric evidence — not a whole-trial blackout.
        let report = Sweep::over(metric_grid())
            .budget(TrialBudget::fixed(4))
            .run_metrics(|_, trial| {
                let capped = trial.index == 1;
                vec![
                    (!capped).then_some(10.0 + trial.index as f64),
                    Some(100.0),
                    Some(if capped { 0.5 } else { 1.0 }),
                ]
            })
            .unwrap();
        let cell = report.cell(0);
        assert_eq!(cell.trials(), 4);
        assert_eq!(cell.incomplete_of(0), 1);
        assert_eq!(cell.incomplete_of(1), 0);
        assert_eq!(cell.completed_of(0).len(), 3);
        assert_eq!(cell.mean_of(1), Some(100.0));
        // The censored trial's row survives storage slot-for-slot.
        assert_eq!(cell.samples[1], vec![None, Some(100.0), Some(0.5)]);
        let reloaded = SweepReport::from_json(&report.to_json()).unwrap();
        assert_eq!(reloaded, report);
    }

    #[test]
    fn per_metric_stopping_needs_every_gating_metric() {
        // `rounds` is constant (tight immediately); `messages` censors
        // until trial 5 and needs min_trials completions of its own, so
        // the cell runs past min_trials even though metric 0 was ready.
        let report = Sweep::over(
            Grid::new()
                .axis(Axis::ints("n", [4]))
                .metrics([Metric::new("rounds"), Metric::new("messages")]),
        )
        .budget(TrialBudget::adaptive(3, 32, CiTarget::Relative(0.05)))
        .run_metrics(|_, trial| vec![Some(7.0), (trial.index >= 5).then_some(40.0)])
        .unwrap();
        let cell = report.cell(0);
        // 5 censored trials + 3 completions for messages' evidence.
        assert_eq!(cell.trials(), 8);
        assert_eq!(cell.completed_of(1).len(), 3);
    }

    #[test]
    #[should_panic(expected = "declares metrics")]
    fn scalar_run_rejects_metric_grids() {
        let _ = Sweep::over(metric_grid())
            .budget(TrialBudget::fixed(2))
            .run(|_, _| Some(1.0));
    }

    #[test]
    #[should_panic(expected = "without declared metrics")]
    fn run_metrics_rejects_scalar_grids() {
        let _ = Sweep::over(grid())
            .budget(TrialBudget::fixed(2))
            .run_metrics(|_, _| vec![Some(1.0)]);
    }

    #[test]
    #[should_panic(expected = "1 slots for 3 declared metrics")]
    fn mismatched_row_width_panics() {
        let _ = Sweep::over(metric_grid())
            .budget(TrialBudget::fixed(2))
            .threads(1)
            .run_metrics(|_, _| vec![Some(1.0)]);
    }

    #[test]
    fn trial_seeds_follow_the_documented_derivation() {
        let grid = Grid::new().axis(Axis::ints("n", [4, 5]));
        let report = Sweep::over(grid)
            .budget(TrialBudget::fixed(2))
            .base_seed(77)
            .run(|cell, trial| {
                assert_eq!(trial.cell_seed, mix_seed(77, cell.id() as u64));
                assert_eq!(trial.seed, mix_seed(trial.cell_seed, trial.index as u64));
                Some(0.0)
            })
            .unwrap();
        assert_eq!(report.total_trials(), 4);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn trial_panic_propagates_without_deadlock() {
        let _ = Sweep::over(grid())
            .budget(TrialBudget::fixed(4))
            .threads(3)
            .run(|_, trial| {
                if trial.index == 1 {
                    panic!("boom");
                }
                Some(1.0)
            });
    }

    #[test]
    fn retry_policy_recovers_to_fault_free_bytes() {
        use std::sync::atomic::{AtomicU32, Ordering};

        let config = |s: Sweep| {
            s.budget(TrialBudget::adaptive(3, 32, CiTarget::Absolute(0.5)))
                .base_seed(99)
        };
        let fault_free = config(Sweep::over(grid())).run(synthetic).unwrap();
        // The first `faults` trial executions panic — whichever worker
        // picks them up — and each is retried in place with its
        // original seed, so the artifact comes out byte-identical.
        for (threads, faults) in [(1usize, 3u32), (4, 5)] {
            let remaining = AtomicU32::new(faults);
            let report = config(Sweep::over(grid()))
                .threads(threads)
                .on_trial_panic(TrialPanic::Retry { max: 8 })
                .run(|cell, trial| {
                    if remaining
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |f| f.checked_sub(1))
                        .is_ok()
                    {
                        panic!("injected test fault");
                    }
                    synthetic(cell, trial)
                })
                .unwrap();
            assert_eq!(remaining.load(Ordering::SeqCst), 0);
            assert_eq!(
                report.to_json(),
                fault_free.to_json(),
                "threads={threads} faults={faults}"
            );
        }
    }

    #[test]
    fn censor_policy_records_fully_censored_trials() {
        let report = Sweep::over(grid())
            .budget(TrialBudget::fixed(4))
            .threads(1)
            .on_trial_panic(TrialPanic::Censor)
            .run(|cell, trial| {
                if trial.index == 1 {
                    panic!("boom");
                }
                synthetic(cell, trial)
            })
            .unwrap();
        assert!(report.is_complete());
        for cell in report.cells() {
            assert_eq!(cell.trials(), 4);
            assert_eq!(cell.incomplete(), 1, "cell {}", cell.id);
            assert_eq!(cell.samples[1], vec![None]);
        }
        // The censored artifact round-trips like any other.
        let reloaded = SweepReport::from_json(&report.to_json()).unwrap();
        assert_eq!(reloaded, report);
    }

    #[test]
    #[should_panic(expected = "persistent boom")]
    fn retry_exhaustion_propagates_the_last_panic() {
        let _ = Sweep::over(grid())
            .budget(TrialBudget::fixed(2))
            .threads(1)
            .on_trial_panic(TrialPanic::Retry { max: 2 })
            .run(|_, _| -> Option<f64> { panic!("persistent boom") });
    }
}
