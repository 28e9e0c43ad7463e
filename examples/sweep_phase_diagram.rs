//! Sweep a phase curve: flooding time vs the churn rate `q`, as a CSV
//! artifact in a few lines of `Grid` code.
//!
//! The paper's Appendix-A regime: a stationary edge-MEG with `p = 1.5/n`
//! whose links die with probability `q` per round. Sweeping `q` over a
//! log axis traces how flooding slows as the stationary graph thins
//! (`alpha = p/(p+q)` falls) — the adaptive scheduler spends trials
//! where the curve is noisy and stops early where it is tight, and the
//! run is resumable: kill it and rerun, and it continues from
//! `sweep_phase_diagram.json`.
//!
//! Run with:
//! ```text
//! cargo run --release --example sweep_phase_diagram            # full
//! cargo run --release --example sweep_phase_diagram -- --quick # smoke
//! ```
//!
//! Writes `sweep_phase_diagram.csv` (one row per cell, ready to plot)
//! and `sweep_phase_diagram.json` (the resumable artifact) to the
//! current directory — `target/sweep_phase_diagram_quick.{csv,json}` in
//! quick mode (a scratch artifact belongs under `target/`, and the
//! quick grid is a different sweep anyway: resuming across the two
//! would correctly be rejected as a fingerprint mismatch).

use dynspread::dg_edge_meg::ShardedSparseEdgeMeg;
use dynspread::dynagraph::engine::Simulation;
use dynspread::dynagraph::sweep::{Axis, CiTarget, Grid, Sweep, TrialBudget};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 128 } else { 512 };
    let p = 1.5 / n as f64;
    let steps = if quick { 4 } else { 8 };

    let grid = Grid::new().axis(Axis::log("q", 0.02, 0.64, steps));
    let budget = if quick {
        TrialBudget::adaptive(3, 12, CiTarget::Relative(0.1))
    } else {
        TrialBudget::adaptive(8, 64, CiTarget::Relative(0.05))
    };
    let stem = if quick {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/target/sweep_phase_diagram_quick"
        )
    } else {
        "sweep_phase_diagram"
    };

    let report = Sweep::over(grid)
        .budget(budget)
        .base_seed(0x9A5E)
        .checkpoint(format!("{stem}.json"))
        .run(|cell, trial| {
            let q = cell.get("q");
            Simulation::builder()
                .model(move |seed| ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap())
                .max_rounds(200_000)
                .base_seed(trial.cell_seed)
                .run_trial(trial.index)
                .time
                .map(f64::from)
        })
        .expect("sweep artifact io");

    println!("flooding time vs churn on the edge-MEG (n = {n}, p = 1.5/n):");
    println!("      q   alpha  trials  mean F     95% CI");
    for cell in report.cells() {
        let q = report.axis_value(cell, "q");
        let ci = cell.ci().expect("at least two completed trials");
        println!(
            "{q:>7.3}  {:>6.3}  {:>6}  {:>6.1}  ±{:.2}",
            p / (p + q),
            cell.trials(),
            cell.mean().expect("trials completed"),
            ci.half_width()
        );
    }
    println!(
        "\nadaptive budget spent {} trials across {} cells (cap {})",
        report.total_trials(),
        report.cells().len(),
        report.cells().len() * report.spec().budget().max_trials
    );

    report
        .write_csv(format!("{stem}.csv"))
        .expect("sweep artifact io");
    println!("wrote {stem}.csv and {stem}.json");
}
