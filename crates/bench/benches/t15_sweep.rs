//! t15 — sweep orchestration: what adaptive stopping and resumable
//! checkpoints buy on a real phase-diagram workload.
//!
//! The workload is the t05 density grid at bench scale (fixed waypoint
//! swarm, box side `L` sweeps the node density `n/L²`): dense cells
//! flood near-deterministically, the sparse tail is noisy — exactly the
//! heterogeneity the adaptive scheduler exploits. Three measurements:
//!
//! * **adaptive vs fixed trials** — the adaptive sweep stops each cell
//!   at the 5% relative CI target; the fixed-budget baseline must size
//!   every cell for the *worst* cell's trial count to reach the same
//!   half-width everywhere. The trial saving is the headline.
//! * **throughput** — cells/sec and trials/sec of the adaptive sweep.
//! * **kill + resume** — the adaptive sweep is interrupted mid-run via
//!   `run_budget`, checkpointed, resumed, and the final artifact is
//!   asserted byte-identical to the uninterrupted run's.
//!
//! Writes `BENCH_sweep.json` at the repository root. Quick mode
//! (`DG_BENCH_QUICK=1`) shrinks sizes for CI smoke and writes
//! `target/BENCH_sweep_quick.json`.

use std::time::Instant;

use dg_bench::{fixed, obj};
use dg_mobility::{GeometricMeg, RandomWaypoint};
use dynagraph::engine::Simulation;
use dynagraph::sweep::{Axis, CiTarget, Grid, Sweep, SweepReport, Trial, TrialBudget};

/// The t05 density grid at bench scale (see
/// `crates/experiments/src/t05_wp_density.rs::density_sweep` for the
/// full-scale twin).
fn grid(quick: bool) -> Grid {
    let sides: Vec<f64> = if quick {
        vec![4.0, 6.5]
    } else {
        vec![4.5, 6.0, 7.5, 9.0, 10.5]
    };
    Grid::new().axis(Axis::explicit("L", sides))
}

fn flood_cell(n: usize, l: f64, trial: Trial) -> Option<f64> {
    let warm = (8.0 * l) as usize;
    Simulation::builder()
        .model(move |seed| {
            GeometricMeg::new(RandomWaypoint::new(l, 1.0, 1.0).unwrap(), n, 1.0, seed).unwrap()
        })
        .max_rounds(100_000)
        .warm_up(warm)
        .base_seed(trial.cell_seed)
        .run_trial(trial.index)
        .time
        .map(f64::from)
}

fn run_sweep(n: usize, quick: bool, budget: TrialBudget) -> (SweepReport, f64) {
    let start = Instant::now();
    let report = Sweep::over(grid(quick))
        .budget(budget)
        .base_seed(0x715)
        .run(move |cell, trial| flood_cell(n, cell.get("L"), trial))
        .unwrap();
    (report, start.elapsed().as_secs_f64())
}

/// Worst relative CI half-width across cells (how tight the sweep got).
fn max_rel_half_width(report: &SweepReport) -> f64 {
    report
        .cells()
        .iter()
        .filter_map(|c| {
            let ci = c.ci()?;
            Some(ci.half_width() / ci.mean.abs())
        })
        .fold(0.0, f64::max)
}

fn main() {
    let quick = dg_bench::quick_mode();
    let n = if quick { 24 } else { 48 };
    // A 10% relative target is what the workload's noise can meet inside
    // the cap: the dense cells (flooding CV ~0.15) stop after ~10 trials,
    // the sparse tail (CV ~0.4+) runs to 60-plus — that spread is where
    // the savings come from. A 5% target would drive *every* cell to the
    // cap and the comparison would measure nothing.
    let budget = if quick {
        TrialBudget::adaptive(3, 12, CiTarget::Relative(0.1))
    } else {
        TrialBudget::adaptive(8, 96, CiTarget::Relative(0.1))
    };

    // 1. The adaptive sweep.
    let (adaptive, adaptive_secs) = run_sweep(n, quick, budget);
    assert!(adaptive.is_complete());
    let cells = adaptive.cells().len();
    let adaptive_trials = adaptive.total_trials();
    println!(
        "adaptive   n={n:>3}  {cells} cells  {adaptive_trials:>4} trials  {:>7.2} ms  {:>6.1} cells/s  {:>7.1} trials/s  (max rel CI {:.3})",
        adaptive_secs * 1e3,
        cells as f64 / adaptive_secs,
        adaptive_trials as f64 / adaptive_secs,
        max_rel_half_width(&adaptive),
    );

    // 2. The fixed-budget baseline at equal half-width: without per-cell
    // stopping, every cell must budget for the worst cell's trial count.
    let worst = adaptive
        .cells()
        .iter()
        .map(|c| c.trials())
        .max()
        .expect("non-empty grid");
    let (baseline, fixed_secs) = run_sweep(n, quick, TrialBudget::fixed(worst));
    let fixed_trials = baseline.total_trials();
    let savings = 1.0 - adaptive_trials as f64 / fixed_trials as f64;
    println!(
        "fixed({worst:>2})  n={n:>3}  {cells} cells  {fixed_trials:>4} trials  {:>7.2} ms  (max rel CI {:.3})",
        fixed_secs * 1e3,
        max_rel_half_width(&baseline),
    );
    println!(
        "adaptive stopping saves {:.1}% of trials ({} of {}) at the same worst-cell CI target",
        savings * 100.0,
        fixed_trials - adaptive_trials,
        fixed_trials
    );
    if !quick {
        assert!(
            savings >= 0.25,
            "acceptance: adaptive must save >= 25% of trials, got {:.1}%",
            savings * 100.0
        );
    }

    // 3. Kill + resume: interrupt mid-run, resume from the artifact, and
    // demand a byte-identical final report.
    let ckpt = std::env::temp_dir().join(format!("dg_t15_sweep_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let interrupted = Sweep::over(grid(quick))
        .budget(budget)
        .base_seed(0x715)
        .checkpoint(&ckpt)
        .run_budget(adaptive_trials / 2)
        // One worker: run_budget stops *claiming*, and in-flight trials
        // still record — with a pool, enough speculative claims could
        // finish the whole sweep before the budget bites, making the
        // incompleteness assert below racy on many-core machines.
        .threads(1)
        .run(move |cell, trial| flood_cell(n, cell.get("L"), trial))
        .unwrap();
    assert!(!interrupted.is_complete(), "run_budget should interrupt");
    let start = Instant::now();
    let resumed = Sweep::over(grid(quick))
        .budget(budget)
        .base_seed(0x715)
        .checkpoint(&ckpt)
        .run(move |cell, trial| flood_cell(n, cell.get("L"), trial))
        .unwrap();
    let resume_secs = start.elapsed().as_secs_f64();
    let resume_byte_identical = resumed.to_json() == adaptive.to_json();
    assert!(
        resume_byte_identical,
        "resumed sweep must be byte-identical to the uninterrupted run"
    );
    println!(
        "kill+resume: interrupted at {} trials, resumed in {:.2} ms, artifact byte-identical: {}",
        interrupted.total_trials(),
        resume_secs * 1e3,
        resume_byte_identical
    );
    let _ = std::fs::remove_file(&ckpt);

    let ci_target_relative = match budget.ci_target {
        Some(CiTarget::Relative(v)) => v,
        _ => unreachable!("bench budget is relative"),
    };
    dg_bench::Record::new(
        env!("CARGO_CRATE_NAME"),
        "sweep",
        "adaptive (cell x trial) sweep scheduling on the t05 density grid: trial savings of sequential stopping vs a fixed budget sized for the worst cell at the same CI target, plus sweep throughput and kill/resume byte-identity",
    )
    .object("workload", obj! {
        "model": "waypoint-manet", "n": n, "r": fixed(1.0, 1),
        "ci_target_relative": ci_target_relative,
        "min_trials": budget.min_trials, "max_trials": budget.max_trials,
    })
    .rows("cells", adaptive.cells().iter().map(|cell| {
        let l = adaptive.axis_value(cell, "L");
        obj! {
            "L": l, "density": fixed(n as f64 / (l * l), 4), "trials": cell.trials(),
            "mean_f": fixed(cell.mean().unwrap_or(f64::NAN), 2),
            "ci_half_width": fixed(cell.ci().map_or(f64::NAN, |c| c.half_width()), 3),
            "incomplete": cell.incomplete(),
        }
    }))
    .object("adaptive", obj! {
        "total_trials": adaptive_trials, "seconds": fixed(adaptive_secs, 3),
        "cells_per_sec": fixed(cells as f64 / adaptive_secs, 2),
        "trials_per_sec": fixed(adaptive_trials as f64 / adaptive_secs, 1),
        "max_rel_half_width": fixed(max_rel_half_width(&adaptive), 4),
    })
    .object("fixed_equal_ci", obj! {
        "per_cell_trials": worst, "total_trials": fixed_trials, "seconds": fixed(fixed_secs, 3),
        "max_rel_half_width": fixed(max_rel_half_width(&baseline), 4),
    })
    .object("headline", obj! {
        "trial_savings": fixed(savings, 3), "resume_byte_identical": resume_byte_identical,
    })
    .write();
}
