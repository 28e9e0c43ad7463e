//! T19 — the time-vs-messages trade-off on the edge-MEG density grid.
//!
//! Flooding on the sparse stationary edge-MEG speeds up as the edge
//! death rate `q` falls: a lower `q` raises the stationary density
//! `alpha = p/(p+q)`, so each round's snapshot carries more live edges
//! and the information front moves faster. But flooding retransmits
//! over *every* live edge incident to an informed node, so the same
//! density that buys rounds costs messages — the classic time/cost
//! trade-off, measured here from one sweep instead of two.
//!
//! One multi-metric sweep (`dg-sweep/2`) records `(rounds, messages,
//! coverage)` per trial. Both `rounds` and `messages` gate the stopping
//! rule — a cell stops only when *both* means are tight (5% relative
//! CI for rounds from the harness budget, a per-metric 10% override
//! for messages) — while `coverage` is observe-only. The phase diagram
//! for either observable therefore comes from the same trials, same
//! seeds, same artifact.

use dg_edge_meg::ShardedSparseEdgeMeg;
use dynagraph::sweep::{Axis, CiTarget, Grid, Metric, Sweep};

use crate::common::{budget, flood_trial_metrics, fmt_ci_of, FloodWorker};
use crate::table::{fmt_opt, Table};

pub fn run(quick: bool) {
    let ns: Vec<usize> = if quick {
        vec![150, 300]
    } else {
        vec![250, 500, 1000]
    };
    let qs = [0.05, 0.2, 0.8];
    println!(
        "model: stationary edge-MEG, p=1.5/n, q in {qs:?} (stationary density alpha = p/(p+q))"
    );

    let metrics = vec![
        Metric::new("rounds"),
        Metric::target("messages", CiTarget::Relative(0.1)),
        Metric::observe("coverage"),
    ];
    let grid = Grid::new()
        .axis(Axis::ints("n", ns))
        .axis(Axis::explicit("q", qs))
        .metrics(metrics.clone());
    let report = Sweep::over(grid)
        .budget(budget(quick))
        .base_seed(0x719)
        .run_metrics_with_state(FloodWorker::new, |cell, trial, worker| {
            let n = cell.usize("n");
            let q = cell.get("q");
            let p = 1.5 / n as f64;
            flood_trial_metrics(
                worker,
                move |seed| ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap(),
                cell,
                n,
                200_000,
                0,
                trial,
                &metrics,
            )
        })
        .unwrap();

    let (rounds, messages, coverage) = (0usize, 1usize, 2usize);
    let mut table = Table::new(vec![
        "n",
        "q",
        "mean F",
        "CI(F)",
        "mean msgs",
        "CI(msgs)",
        "msgs/node",
        "coverage",
        "trials",
    ]);
    for cell in report.cells() {
        let n = report.axis_usize(cell, "n");
        table.row(vec![
            n.to_string(),
            format!("{}", cell.values[1]),
            fmt_opt(cell.mean_of(rounds)),
            fmt_ci_of(cell, rounds),
            fmt_opt(cell.mean_of(messages)),
            fmt_ci_of(cell, messages),
            fmt_opt(cell.mean_of(messages).map(|m| m / n as f64)),
            fmt_opt(cell.mean_of(coverage)),
            cell.trials().to_string(),
        ]);
    }
    table.print();
    println!(
        "(per-metric stopping: cells stop when rounds AND messages are tight; {} of {} possible trials ran)",
        report.total_trials(),
        report.cells().len() * report.spec().budget().max_trials
    );

    // The headline shape: at the largest n, sweeping q down trades
    // messages for rounds.
    let n_head = report.spec().axes()[0].values().last().copied().unwrap();
    let fast = report
        .cell_at(&[("n", n_head), ("q", qs[0])])
        .unwrap()
        .expect("grid value");
    let slow = report
        .cell_at(&[("n", n_head), ("q", *qs.last().unwrap())])
        .unwrap()
        .expect("grid value");
    if let (Some(tf), Some(ts), Some(mf), Some(ms)) = (
        fast.mean_of(rounds),
        slow.mean_of(rounds),
        fast.mean_of(messages),
        slow.mean_of(messages),
    ) {
        println!(
            "\ntrade-off at n={}: q={} floods {:.1}x faster than q={} but sends {:.1}x the messages",
            n_head as usize,
            qs[0],
            ts / tf,
            qs.last().unwrap(),
            mf / ms,
        );
    }
}
