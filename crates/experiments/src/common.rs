//! Shared helpers for the experiment harness.
//!
//! Every experiment drives the unified `Simulation` builder; this module
//! wraps it with the harness' conventions (source 0, one base seed per
//! table) and a table-friendly summary type. Grid-driven experiments
//! additionally share one [`budget`] — the single place `--quick` trial
//! scaling lives — and the [`flood_trial`] glue between the sweep
//! scheduler and the engine.

use std::collections::HashMap;

use dynagraph::engine::{Simulation, SimulationReport, TrialScratch};
use dynagraph::sweep::{trial_metrics, Cell, CellReport, CiTarget, Metric, Trial, TrialBudget};
use dynagraph::EvolvingGraph;

/// Measured spreading statistics for one configuration.
///
/// `p95` is `None` when no trial completed within the round cap —
/// tables print it as `-` instead of smuggling `NaN` through the
/// formatting; `incomplete` says how many trials were censored.
pub struct Measured {
    pub mean: f64,
    pub p95: Option<f64>,
    pub incomplete: usize,
}

impl Measured {
    pub fn from(report: &SimulationReport) -> Self {
        Measured {
            mean: report.mean(),
            p95: report.p95(),
            incomplete: report.incomplete(),
        }
    }
}

/// Runs seeded flooding trials through the engine and summarizes.
pub fn measure<G, F>(
    make: F,
    trials: usize,
    max_rounds: u32,
    warm_up: usize,
    base_seed: u64,
) -> Measured
where
    G: EvolvingGraph,
    F: Fn(u64) -> G + Sync,
{
    let report = Simulation::builder()
        .model(make)
        .trials(trials)
        .max_rounds(max_rounds)
        .warm_up(warm_up)
        .base_seed(base_seed)
        .run();
    Measured::from(&report)
}

/// Scales a count down in `--quick` mode — the single quick-mode knob
/// (trial caps, sample counts, probe counts all route through here
/// instead of growing per-experiment `if quick` arms).
pub fn scaled(full: usize, quick: bool) -> usize {
    if quick {
        (full / 4).max(3)
    } else {
        full
    }
}

/// The harness-wide adaptive trial budget for Grid-driven experiments:
/// every cell runs at least `scaled(8)` trials, stops as soon as the
/// Student-t 95% CI half-width is within 5% of its mean, and caps at
/// `scaled(48)` — so `--quick` scales sweeps through the same helper as
/// everything else.
pub fn budget(quick: bool) -> TrialBudget {
    TrialBudget::adaptive(
        scaled(8, quick),
        scaled(48, quick),
        CiTarget::Relative(0.05),
    )
}

/// Per-worker reuse state for grid sweeps (hand to
/// [`dynagraph::sweep::Sweep::run_with_state`]): one cached model per
/// cell — constructed on the worker's first trial of that cell, then
/// merely `reset(seed)` for the rest — plus one engine
/// [`TrialScratch`] shared by every cell the worker touches. Together
/// they make a sweep trial *zero-rebuild*: after each (worker, cell)'s
/// first trial, setup allocates nothing.
///
/// The cache holds every cell a worker has visited until the sweep
/// ends (the scheduler interleaves cells, so evicting would thrash);
/// per-worker memory therefore scales with `cells × model size` —
/// fine for this harness' grids, worth bounding if a sweep ever pairs
/// huge models with hundreds of cells.
pub struct FloodWorker<G> {
    models: HashMap<usize, Option<G>>,
    scratch: TrialScratch,
}

impl<G> FloodWorker<G> {
    pub fn new() -> Self {
        FloodWorker {
            models: HashMap::new(),
            scratch: TrialScratch::new(),
        }
    }

    /// The cell's model slot plus the shared scratch — the two handles
    /// `SimulationBuilder::run_trial_with` wants — split-borrowed so
    /// custom builders (non-flooding protocols, observers) can reuse
    /// exactly like [`flood_trial`] does.
    pub fn parts(&mut self, cell_id: usize) -> (&mut Option<G>, &mut TrialScratch) {
        (self.models.entry(cell_id).or_default(), &mut self.scratch)
    }
}

impl<G> Default for FloodWorker<G> {
    fn default() -> Self {
        Self::new()
    }
}

/// One engine flooding trial on behalf of the sweep scheduler: hands the
/// sweep's per-cell seed to the builder and runs exactly the scheduled
/// trial index, so adaptive sweeps are byte-compatible with the engine's
/// own batch loop. The cell's [`Cell::max_rounds`] policy cap applies
/// when present (`max_rounds` is the grid-wide fallback), and the
/// worker's cached model + scratch are reused — byte-identical to
/// fresh construction under the engine's reuse contract. Returns the
/// flooding time (`None` = censored).
pub fn flood_trial<G, F>(
    worker: &mut FloodWorker<G>,
    make: F,
    cell: &Cell,
    max_rounds: u32,
    warm_up: usize,
    trial: Trial,
) -> Option<f64>
where
    G: EvolvingGraph,
    F: Fn(u64) -> G,
{
    let (slot, scratch) = worker.parts(cell.id());
    Simulation::builder()
        .model(make)
        .max_rounds(cell.max_rounds().unwrap_or(max_rounds))
        .warm_up(warm_up)
        .base_seed(trial.cell_seed)
        .run_trial_with(trial.index, slot, scratch)
        .time
        .map(f64::from)
}

/// The multi-metric form of [`flood_trial`]: the same zero-rebuild
/// engine trial, but the whole [`dynagraph::engine::TrialRecord`] is
/// kept and one row slot extracted per declared metric
/// ([`dynagraph::sweep::trial_metrics`]) — `rounds` censors when the
/// cap hits, `messages`/`coverage` always count. `n` is the cell's node
/// count (for the coverage fraction).
#[allow(clippy::too_many_arguments)]
pub fn flood_trial_metrics<G, F>(
    worker: &mut FloodWorker<G>,
    make: F,
    cell: &Cell,
    n: usize,
    max_rounds: u32,
    warm_up: usize,
    trial: Trial,
    metrics: &[Metric],
) -> Vec<Option<f64>>
where
    G: EvolvingGraph,
    F: Fn(u64) -> G,
{
    let (slot, scratch) = worker.parts(cell.id());
    let record = Simulation::builder()
        .model(make)
        .max_rounds(cell.max_rounds().unwrap_or(max_rounds))
        .warm_up(warm_up)
        .base_seed(trial.cell_seed)
        .run_trial_with(trial.index, slot, scratch);
    trial_metrics(&record, n, metrics)
}

/// Formats a sweep cell's 95% CI as `±h` for table cells (`-` when
/// fewer than two trials completed).
pub fn fmt_ci(cell: &CellReport) -> String {
    match cell.ci() {
        Some(ci) => format!("±{:.1}", ci.half_width()),
        None => "-".to_string(),
    }
}

/// [`fmt_ci`] for a specific metric of a multi-metric cell.
pub fn fmt_ci_of(cell: &CellReport, metric: usize) -> String {
    match cell.ci_of(metric) {
        Some(ci) => format!("±{:.1}", ci.half_width()),
        None => "-".to_string(),
    }
}
