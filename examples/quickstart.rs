//! Quickstart: flood a sparse edge-MEG through the `Simulation` builder
//! and compare against both bounds from Appendix A of the paper.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use dynspread::dg_edge_meg::ShardedSparseEdgeMeg;
use dynspread::dynagraph::engine::Simulation;
use dynspread::dynagraph::theory;

fn main() {
    // A 256-node network whose links are born with probability p and die
    // with probability q, per round — the basic edge-MEG. With p = 1/n
    // the stationary graph is sparse and disconnected in every snapshot,
    // yet flooding completes fast.
    let n = 256;
    let p = 1.0 / n as f64;
    let q = 0.5;

    let trials = 30;
    let report = Simulation::builder()
        .model(|seed| {
            ShardedSparseEdgeMeg::stationary(n, p, q, seed).expect("valid edge-MEG parameters")
        })
        .trials(trials)
        .max_rounds(100_000)
        .run();

    println!("edge-MEG: n = {n}, p = {p:.4}, q = {q}");
    println!(
        "stationary edge density alpha = p/(p+q) = {:.5}",
        p / (p + q)
    );
    println!(
        "measured flooding time over {trials} trials: mean {:.1}, p95 {:.1}, max {:.0}",
        report.mean(),
        report.p95().expect("trials completed"),
        report.max().expect("trials completed"),
    );
    println!(
        "mean messages per broadcast: {:.0} (every transmission counted)",
        report.mean_messages()
    );
    println!(
        "CMMPS'10 bound O(log n / log(1+np))          = {:.1}",
        theory::edge_meg_cmmps_bound(n, p)
    );
    println!(
        "paper's general bound (Thm 1 with beta = 1)  = {:.1}",
        theory::edge_meg_general_bound(n, p, q)
    );
    println!("(q >= np here, the regime where the paper proves its bound almost tight)");
}
