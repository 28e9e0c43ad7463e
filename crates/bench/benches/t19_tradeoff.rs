//! t19 — multi-metric sweeps: what recording `(rounds, messages,
//! coverage)` per trial buys over running one sweep per observable.
//!
//! The workload is the t19 time-vs-messages trade-off at bench scale:
//! flooding on the stationary sparse edge-MEG (`p = 1.5/n`), with the
//! edge death rate `q` sweeping the stationary density. Three
//! measurements:
//!
//! * **one sweep vs two** — the multi-metric sweep stops each cell when
//!   *both* the `rounds` and `messages` CIs are tight; the baseline runs
//!   two scalar sweeps (one per observable) at the same targets and
//!   spends engine trials twice. Per cell the multi-metric sweep pays
//!   `max(needed_rounds, needed_messages)` where the pair of scalar
//!   sweeps pays the sum — the trial saving is the headline.
//! * **throughput** — trials/sec of the multi-metric sweep.
//! * **determinism** — the multi-metric sweep re-run single-threaded
//!   must produce a byte-identical `dg-sweep/2` artifact.
//!
//! Writes `BENCH_tradeoff.json` at the repository root (quick mode,
//! `DG_BENCH_QUICK=1`: shrunken sizes, `target/BENCH_tradeoff_quick.json`).

use std::time::Instant;

use dg_bench::{fixed, obj};
use dg_edge_meg::SparseTwoStateEdgeMeg;
use dynagraph::engine::{Simulation, TrialRecord};
use dynagraph::sweep::{
    trial_metrics, Axis, CiTarget, Grid, Metric, Sweep, SweepReport, Trial, TrialBudget,
};

const MAX_ROUNDS: u32 = 50_000;

fn grid(quick: bool) -> Grid {
    let qs: Vec<f64> = if quick {
        vec![0.1, 0.8]
    } else {
        vec![0.1, 0.4, 0.8]
    };
    Grid::new().axis(Axis::explicit("q", qs))
}

fn budget(quick: bool) -> TrialBudget {
    if quick {
        TrialBudget::adaptive(3, 12, CiTarget::Relative(0.1))
    } else {
        TrialBudget::adaptive(8, 64, CiTarget::Relative(0.1))
    }
}

fn flood_record(n: usize, q: f64, trial: Trial) -> TrialRecord {
    Simulation::builder()
        .model(move |seed| SparseTwoStateEdgeMeg::stationary(n, 1.5 / n as f64, q, seed).unwrap())
        .max_rounds(MAX_ROUNDS)
        .base_seed(trial.cell_seed)
        .run_trial(trial.index)
}

/// The multi-metric sweep: one artifact, both gating observables.
fn run_multi(n: usize, quick: bool, threads: Option<usize>) -> (SweepReport, f64) {
    let metrics = vec![
        Metric::new("rounds"),
        Metric::new("messages"),
        Metric::observe("coverage"),
    ];
    let mut sweep = Sweep::over(grid(quick).metrics(metrics.clone()))
        .budget(budget(quick))
        .base_seed(0x719B);
    if let Some(t) = threads {
        sweep = sweep.threads(t);
    }
    let start = Instant::now();
    let report = sweep
        .run_metrics(move |cell, trial| {
            trial_metrics(&flood_record(n, cell.get("q"), trial), n, &metrics)
        })
        .unwrap();
    (report, start.elapsed().as_secs_f64())
}

/// One scalar sweep per observable — the pre-`dg-sweep/2` workflow.
fn run_scalar(
    n: usize,
    quick: bool,
    extract: impl Fn(&TrialRecord) -> Option<f64> + Send + Sync + 'static,
) -> (SweepReport, f64) {
    let start = Instant::now();
    let report = Sweep::over(grid(quick))
        .budget(budget(quick))
        .base_seed(0x719B)
        .run(move |cell, trial| extract(&flood_record(n, cell.get("q"), trial)))
        .unwrap();
    (report, start.elapsed().as_secs_f64())
}

fn main() {
    let quick = dg_bench::quick_mode();
    let n = if quick { 100 } else { 300 };

    // 1. The multi-metric sweep (the thing being sold).
    let (multi, multi_secs) = run_multi(n, quick, None);
    assert!(multi.is_complete());
    let multi_trials = multi.total_trials();
    println!(
        "multi-metric  n={n:>3}  {} cells  {multi_trials:>4} trials  {:>7.2} ms  {:>7.1} trials/s",
        multi.cells().len(),
        multi_secs * 1e3,
        multi_trials as f64 / multi_secs,
    );

    // 2. The baseline: one scalar sweep per gating observable, same
    // grid, same seeds, same CI targets — engine work paid twice.
    let (rounds_only, rounds_secs) = run_scalar(n, quick, |r| r.time.map(f64::from));
    let (messages_only, messages_secs) = run_scalar(n, quick, |r| Some(r.messages as f64));
    let scalar_trials = rounds_only.total_trials() + messages_only.total_trials();
    let savings = 1.0 - multi_trials as f64 / scalar_trials as f64;
    println!(
        "two scalar    n={n:>3}  rounds {:>4} + messages {:>4} = {scalar_trials:>4} trials  {:>7.2} ms",
        rounds_only.total_trials(),
        messages_only.total_trials(),
        (rounds_secs + messages_secs) * 1e3,
    );
    println!(
        "one sweep saves {:.1}% of engine trials ({} of {}) at the same per-observable CI targets",
        savings * 100.0,
        scalar_trials - multi_trials,
        scalar_trials
    );
    if !quick {
        assert!(
            savings >= 0.05,
            "acceptance: multi-metric sweep must save >= 5% of trials, got {:.1}%",
            savings * 100.0
        );
    }

    // 3. Determinism: a single-threaded re-run must reproduce the
    // parallel artifact byte for byte (the dg-sweep/2 contract).
    let (serial, _) = run_multi(n, quick, Some(1));
    let byte_identical = serial.to_json() == multi.to_json();
    assert!(
        byte_identical,
        "serial re-run must be byte-identical to the parallel artifact"
    );
    println!("serial re-run artifact byte-identical: {byte_identical}");

    let (rounds, messages, coverage) = (0usize, 1usize, 2usize);
    dg_bench::Record::new(
        env!("CARGO_CRATE_NAME"),
        "tradeoff",
        "multi-metric (rounds, messages, coverage) sweep on the stationary edge-MEG density grid: engine-trial savings of one per-metric-stopped sweep vs one scalar sweep per observable, plus dg-sweep/2 byte-determinism",
    )
    .object("workload", obj! {
        "model": "sparse-two-state-edge-meg", "n": n, "p": fixed(1.5 / n as f64, 6),
        "ci_target_relative": 0.1,
    })
    .rows("cells", multi.cells().iter().map(|cell| obj! {
        "q": multi.axis_value(cell, "q"), "trials": cell.trials(),
        "mean_rounds": fixed(cell.mean_of(rounds).unwrap_or(f64::NAN), 2),
        "mean_messages": fixed(cell.mean_of(messages).unwrap_or(f64::NAN), 1),
        "mean_coverage": fixed(cell.mean_of(coverage).unwrap_or(f64::NAN), 4),
        "rounds_incomplete": cell.incomplete_of(rounds),
    }))
    .object("multi_metric", obj! {
        "total_trials": multi_trials, "seconds": fixed(multi_secs, 3),
        "trials_per_sec": fixed(multi_trials as f64 / multi_secs, 1),
    })
    .object("two_scalar_sweeps", obj! {
        "rounds_trials": rounds_only.total_trials(),
        "messages_trials": messages_only.total_trials(),
        "total_trials": scalar_trials, "seconds": fixed(rounds_secs + messages_secs, 3),
    })
    .object("headline", obj! {
        "trial_savings": fixed(savings, 3), "serial_byte_identical": byte_identical,
    })
    .write();
}
