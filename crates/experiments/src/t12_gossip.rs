//! T12 — §5: randomized transmission protocols as thinned flooding.
//!
//! The paper's conclusion reduces "transmit to a random subset of
//! neighbours" to flooding on a virtual dynamic graph with edges removed.
//! We compare plain flooding, γ-thinned flooding (each edge transmits
//! independently with probability γ), and the push-k protocol on the same
//! underlying processes — each protocol family is one `Grid` axis, and
//! the adaptive scheduler decides per cell how many trials a tight mean
//! needs (slow sparse protocols are noisy and get more).

use dg_edge_meg::ShardedSparseEdgeMeg;
use dg_mobility::{GeometricMeg, RandomWaypoint};
use dynagraph::engine::{PushGossip, Simulation};
use dynagraph::sweep::{Axis, Cell, Grid, Sweep, SweepReport, Trial};
use dynagraph::{EvolvingGraph, ThinnedEvolvingGraph};

use crate::common::{budget, flood_trial, fmt_ci, FloodWorker};
use crate::table::{fmt, fmt_opt, Table};

/// γ-thinned flooding over a substrate: one cell per γ.
fn thinned_sweep<G: EvolvingGraph, F: Fn(u64) -> G + Sync + Copy>(
    make: F,
    quick: bool,
    warm: usize,
    base: u64,
) -> SweepReport {
    Sweep::over(Grid::new().axis(Axis::explicit("gamma", [1.0, 0.5, 0.25])))
        .budget(budget(quick))
        .base_seed(base)
        .run_with_state(FloodWorker::new, |cell: &Cell, trial: Trial, worker| {
            let gamma = cell.get("gamma");
            flood_trial(
                worker,
                move |seed| ThinnedEvolvingGraph::new(make(seed), gamma, seed).unwrap(),
                cell,
                500_000,
                warm,
                trial,
            )
        })
        .unwrap()
}

/// Push-k gossip over a substrate: one cell per fanout.
fn push_sweep<G: EvolvingGraph, F: Fn(u64) -> G + Sync + Copy>(
    make: F,
    fanouts: Vec<usize>,
    quick: bool,
    warm: usize,
    base: u64,
) -> SweepReport {
    Sweep::over(Grid::new().axis(Axis::ints("fanout", fanouts)))
        .budget(budget(quick))
        .base_seed(base)
        .run_with_state(FloodWorker::new, |cell: &Cell, trial: Trial, worker| {
            let fanout = cell.usize("fanout");
            let (slot, scratch) = worker.parts(cell.id());
            Simulation::builder()
                .model(make)
                .protocol(PushGossip::new(fanout))
                .max_rounds(500_000)
                .warm_up(warm)
                .base_seed(trial.cell_seed)
                .run_trial_with(trial.index, slot, scratch)
                .time
                .map(f64::from)
        })
        .unwrap()
}

/// Prints both protocol families against the γ = 1 flooding baseline.
fn print_tables(thinned: &SweepReport, push: &SweepReport) {
    let flood_mean = thinned.cell(0).mean().unwrap_or(f64::NAN);
    let mut table = Table::new(vec![
        "protocol",
        "mean rounds",
        "95% CI",
        "trials",
        "vs flooding",
    ]);
    for cell in thinned.cells() {
        let gamma = thinned.axis_value(cell, "gamma");
        table.row(vec![
            format!("thinned gamma={gamma}"),
            fmt_opt(cell.mean()),
            fmt_ci(cell),
            cell.trials().to_string(),
            fmt(cell.mean().unwrap_or(f64::NAN) / flood_mean),
        ]);
    }
    for cell in push.cells() {
        let k = push.axis_usize(cell, "fanout");
        table.row(vec![
            format!("push-{k}"),
            fmt_opt(cell.mean()),
            fmt_ci(cell),
            cell.trials().to_string(),
            fmt(cell.mean().unwrap_or(f64::NAN) / flood_mean),
        ]);
    }
    table.print();
}

pub fn run(quick: bool) {
    // Substrate 1: moderately dense edge-MEG.
    let n = if quick { 64 } else { 128 };
    let (p, q) = (0.05, 0.2);
    println!("substrate 1: edge-MEG(n={n}, p={p}, q={q})");
    let make_meg = move |seed: u64| ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap();
    let thinned = thinned_sweep(make_meg, quick, 0, 0x96);
    let push = push_sweep(make_meg, vec![1, 2, 4], quick, 0, 0x97);
    print_tables(&thinned, &push);

    // Substrate 2: random waypoint MANET.
    let n2 = if quick { 36 } else { 64 };
    let side = (n2 as f64).sqrt() * 1.2;
    let r = 1.5;
    println!("\nsubstrate 2: waypoint MANET (n={n2}, L={side:.1}, r={r})");
    let make_wp = move |seed: u64| {
        GeometricMeg::new(RandomWaypoint::new(side, 1.0, 1.0).unwrap(), n2, r, seed).unwrap()
    };
    let warm = (8.0 * side) as usize;
    let thinned2 = thinned_sweep(make_wp, quick, warm, 0x98);
    let push2 = push_sweep(make_wp, vec![1, 2], quick, warm, 0x99);
    print_tables(&thinned2, &push2);
    println!(
        "shape check: gamma = 1 reproduces flooding exactly; smaller gamma / fanout slow the spread \
         by a bounded factor (the virtual graph is a MEG with alpha scaled by gamma, Thm 1 still applies)"
    );
}
