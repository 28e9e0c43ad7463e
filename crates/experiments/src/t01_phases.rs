//! T1 — Lemmas 13–14: the two-phase structure of flooding.
//!
//! Two views of the same regime (sparse stationary edge-MEG):
//!
//! 1. a `Grid` sweep of the flooding time `F` over `n` — the adaptive
//!    scheduler decides per cell how many trials a tight mean needs, so
//!    the table carries honest 95% CIs instead of a hard-coded count;
//! 2. the per-round growth curve `|I_t|` streamed through the engine's
//!    `PhaseObserver` at the headline `n`, extracting (i) the doubling
//!    rounds of the spreading phase — Lemma 13 predicts bounded gaps
//!    between consecutive doublings while `|I_t| <= n/2` — and (ii) the
//!    saturation tail — Lemma 14 predicts it is shorter than the whole
//!    spreading phase by a `log n` factor.

use dg_edge_meg::ShardedSparseEdgeMeg;
use dg_stats::Summary;
use dynagraph::engine::{PhaseObserver, Simulation};
use dynagraph::sweep::{Axis, Grid, Sweep};

use crate::common::{budget, flood_trial, fmt_ci, scaled, FloodWorker};
use crate::table::{fmt, fmt_opt, Table};

const Q: f64 = 0.2;

pub fn run(quick: bool) {
    let ns: Vec<usize> = if quick {
        vec![150, 300]
    } else {
        vec![250, 500, 1000]
    };
    let n_head = *ns.last().unwrap();
    println!("model: stationary edge-MEG, p=1.5/n, q={Q} (stationary density alpha = p/(p+q))");

    // View 1: flooding time vs n, one Grid instead of a hand loop.
    let grid = Grid::new().axis(Axis::ints("n", ns));
    let report = Sweep::over(grid)
        .budget(budget(quick))
        .base_seed(0x71)
        .run_with_state(FloodWorker::new, |cell, trial, worker| {
            let n = cell.usize("n");
            let p = 1.5 / n as f64;
            flood_trial(
                worker,
                move |seed| ShardedSparseEdgeMeg::stationary(n, p, Q, seed).unwrap(),
                cell,
                200_000,
                0,
                trial,
            )
        })
        .unwrap();
    let mut table = Table::new(vec![
        "n",
        "mean F",
        "95% CI",
        "p95 F",
        "trials",
        "incomplete",
    ]);
    for cell in report.cells() {
        table.row(vec![
            report.axis_usize(cell, "n").to_string(),
            fmt_opt(cell.mean()),
            fmt_ci(cell),
            fmt_opt(cell.p95()),
            cell.trials().to_string(),
            cell.incomplete().to_string(),
        ]);
    }
    table.print();
    println!(
        "(adaptive budget: {} of {} possible trials ran; cells stop at a 5% relative CI)",
        report.total_trials(),
        report.cells().len() * report.budget().max_trials
    );

    // View 2: phase structure at the headline n.
    let n = n_head;
    let p = 1.5 / n as f64;
    let trials = scaled(20, quick);
    let (report, observers) = Simulation::builder()
        .model(|seed| ShardedSparseEdgeMeg::stationary(n, p, Q, seed).unwrap())
        .trials(trials)
        .max_rounds(200_000)
        .base_seed(0x71)
        .observers(|_trial| PhaseObserver::new())
        .run_observed();
    // Fold the per-trial streaming observers in trial order.
    let mut spreading = Summary::new();
    let mut saturation = Summary::new();
    let mut max_gap = Summary::new();
    let mut total = Summary::new();
    let mut example_doubling: Option<Vec<u32>> = None;
    for obs in &observers {
        spreading.merge(obs.spreading());
        saturation.merge(obs.saturation());
        total.merge(obs.total());
        max_gap.merge(obs.max_doubling_gap());
        if example_doubling.is_none() {
            example_doubling = obs.example_doubling_rounds().map(<[u32]>::to_vec);
        }
    }
    if report.incomplete() > 0 {
        println!(
            "({} of {trials} trials hit the round cap)",
            report.incomplete()
        );
    }

    println!("\nphase structure at n={n}:");
    let mut table = Table::new(vec!["phase metric", "mean", "min", "max"]);
    table.row(vec![
        "flooding time F".to_string(),
        fmt(total.mean()),
        fmt(total.min()),
        fmt(total.max()),
    ]);
    table.row(vec![
        "spreading phase (|I| reaches n/2)".to_string(),
        fmt(spreading.mean()),
        fmt(spreading.min()),
        fmt(spreading.max()),
    ]);
    table.row(vec![
        "saturation tail".to_string(),
        fmt(saturation.mean()),
        fmt(saturation.min()),
        fmt(saturation.max()),
    ]);
    table.row(vec![
        "max doubling gap (Lemma 13)".to_string(),
        fmt(max_gap.mean()),
        fmt(max_gap.min()),
        fmt(max_gap.max()),
    ]);
    table.print();

    if let Some(rounds) = example_doubling {
        println!("\nexample growth curve (|I_t| at each doubling):");
        let mut t2 = Table::new(vec!["target |I|", "first round"]);
        let mut target = 2u64;
        for r in rounds {
            t2.row(vec![target.to_string(), r.to_string()]);
            target *= 2;
        }
        t2.print();
    }
    println!(
        "\nshape check: saturation tail ({:.1}) << spreading phase ({:.1}) as Lemmas 13-14 predict",
        saturation.mean(),
        spreading.mean()
    );
}
