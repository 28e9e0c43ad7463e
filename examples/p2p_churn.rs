//! File broadcast in a peer-to-peer overlay under churn.
//!
//! Appendix A motivates edge-MEGs as models of "link evolution in
//! peer-to-peer networks or faulty networks": connections appear and
//! disappear independently of node positions. We compare a memoryless
//! two-state link process against a bursty hidden-chain process with the
//! same stationary density — the generalized edge-MEG `EM(n, M, χ)` —
//! and watch the mixing time, not the density, control the spread. Only
//! the model axis of the `Simulation` builder changes between the two.
//!
//! Run with:
//! ```text
//! cargo run --release --example p2p_churn
//! ```

use dynspread::dg_edge_meg::{bursty_chain, HiddenChainEdgeMeg, ShardedSparseEdgeMeg};
use dynspread::dynagraph::engine::Simulation;

fn main() {
    let n = 128;
    let trials = 20;

    // Memoryless churn: a link is up with stationary probability ~2.4%.
    let (p, q) = (0.01, 0.4);
    let memoryless = Simulation::builder()
        .model(|seed| ShardedSparseEdgeMeg::stationary(n, p, q, seed).expect("valid parameters"))
        .trials(trials)
        .max_rounds(200_000)
        .run();
    println!("P2P overlay, n = {n} peers, file injected at one seed peer");
    println!(
        "memoryless churn   (p={p}, q={q}, alpha={:.4}): mean {:.1} rounds, p95 {:.1}",
        p / (p + q),
        memoryless.mean(),
        memoryless.p95().expect("trials completed")
    );

    // Bursty churn: same stationary density, but links live and die in
    // bursts (3-state hidden chain), slowing the effective mixing.
    for slow in [1.0, 4.0] {
        let (chain, chi) = bursty_chain(0.01 / slow, 0.4 / slow, 0.4 / slow);
        let probe =
            HiddenChainEdgeMeg::stationary(n, chain.clone(), chi.clone(), 0).expect("valid");
        let alpha = probe.alpha();
        let tmix = probe.mixing_time(0.25).expect("ergodic chain");
        let bursty = Simulation::builder()
            .model(|seed| {
                HiddenChainEdgeMeg::stationary(n, chain.clone(), chi.clone(), seed).expect("valid")
            })
            .trials(trials)
            .max_rounds(200_000)
            .run();
        println!(
            "bursty churn x{slow:<3} (alpha={alpha:.4}, Tmix={tmix:>3}):          mean {:.1} rounds, p95 {:.1}",
            bursty.mean(),
            bursty.p95().expect("trials completed")
        );
    }
    println!(
        "\ntakeaway: equal link density, very different spread — exactly the paper's point that\n\
         the flooding bound must charge the hidden chain's mixing time, not just the density"
    );
}
