//! t14 — churn-proportional trial *setup*: the lane model's sparse
//! stationary init vs the exact O(n²) pair scan, plus the delta-native
//! §5 wrappers.
//!
//! PR 2 made per-round stepping proportional to churn; this bench tracks
//! the two pieces that still paid O(n²) per *trial* in the paper's
//! sparse regime (`p = 1/n`):
//!
//! * `SparseTwoStateEdgeMeg::stationary` scans all `n(n-1)/2` pairs at
//!   construction/reset; the lane model `ShardedSparseEdgeMeg::stationary`
//!   skip-samples the `#on ≈ αn²/2` live edges directly. Headline: setup
//!   speedup at `n = 2^14`.
//! * `ThinnedEvolvingGraph` / `JammedEvolvingGraph` used to fall back to
//!   snapshot diffing; their native delta path never materializes a CSR.
//!
//! Writes `BENCH_sparse_init.json` at the repository root. Quick mode
//! (`DG_BENCH_QUICK=1`) shrinks sizes for CI smoke and writes
//! `target/BENCH_sparse_init_quick.json`.

use std::time::Instant;

use dg_bench::{fixed, obj};
use dg_edge_meg::{pair_count, ShardedSparseEdgeMeg, SparseTwoStateEdgeMeg};
use dynagraph::{DynAdjacency, EdgeDelta, EvolvingGraph, ThinnedEvolvingGraph};

struct SetupResult {
    n: usize,
    p: f64,
    q: f64,
    iters: u32,
    scan_ms: f64,
    lane_ms: f64,
    speedup: f64,
    scan_edges: usize,
    lane_edges: usize,
    headline: bool,
}

/// Times trial setup — construction of a stationary instance — on the
/// exact scan and on the lane model. Each iteration uses a fresh seed so the allocator and
/// branch predictor can't replay one fixed realization.
fn bench_setup(n: usize, q: f64, iters: u32, headline: bool) -> SetupResult {
    let p = 1.0 / n as f64;

    let mut scan_edges = 0usize;
    let start = Instant::now();
    for i in 0..iters {
        let g = SparseTwoStateEdgeMeg::stationary(n, p, q, 0x5E7 + i as u64).unwrap();
        scan_edges = g.alive_count();
    }
    let scan_ms = start.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let mut lane_edges = 0usize;
    let start = Instant::now();
    for i in 0..iters {
        let g = ShardedSparseEdgeMeg::stationary(n, p, q, 0x5E7 + i as u64).unwrap();
        lane_edges = g.alive_count();
    }
    let lane_ms = start.elapsed().as_secs_f64() * 1e3 / iters as f64;

    SetupResult {
        n,
        p,
        q,
        iters,
        scan_ms,
        lane_ms,
        speedup: scan_ms / lane_ms,
        scan_edges,
        lane_edges,
        headline,
    }
}

struct WrapperResult {
    n: usize,
    p: f64,
    q: f64,
    rounds: usize,
    snapshot_ns_per_round: f64,
    delta_ns_per_round: f64,
    speedup: f64,
    mean_churn: f64,
}

/// Times the §5 thinned wrapper over the lane edge-MEG on both
/// stepping paths (same seed ⇒ identical realizations, asserted). The
/// interesting regime is `|E_t| ≪ n` (the paper's very sparse MEGs),
/// where the snapshot path pays `O(n)` per round just for the CSR while
/// the delta path pays only the survival sweep plus the churn.
fn bench_thinned_stepping(n: usize, p: f64, q: f64, gamma: f64, rounds: usize) -> WrapperResult {
    let seed = 0x7417;
    let make = || {
        let inner = ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap();
        ThinnedEvolvingGraph::new(inner, gamma, seed).unwrap()
    };

    // Snapshot path: one CSR rebuild per round.
    let mut snap_model = make();
    for _ in 0..50 {
        snap_model.step();
    }
    let mut final_edges = 0usize;
    let start = Instant::now();
    for _ in 0..rounds {
        final_edges = snap_model.step().edge_count();
    }
    let snapshot_time = start.elapsed();

    // Delta path: churn applied to an incremental adjacency.
    let mut delta_model = make();
    let mut adj = DynAdjacency::new(n);
    let mut delta = EdgeDelta::new();
    for _ in 0..50 {
        delta_model.step_delta(&mut delta);
        adj.apply(&delta);
    }
    let mut churn_total = 0usize;
    let start = Instant::now();
    for _ in 0..rounds {
        delta_model.step_delta(&mut delta);
        adj.apply(&delta);
        churn_total += delta.churn();
    }
    let delta_time = start.elapsed();

    // Both wrappers drew the identical survival stream.
    assert_eq!(adj.edge_count(), final_edges, "paths diverged");

    let snapshot_ns = snapshot_time.as_nanos() as f64 / rounds as f64;
    let delta_ns = delta_time.as_nanos() as f64 / rounds as f64;
    WrapperResult {
        n,
        p,
        q,
        rounds,
        snapshot_ns_per_round: snapshot_ns,
        delta_ns_per_round: delta_ns,
        speedup: snapshot_ns / delta_ns,
        mean_churn: churn_total as f64 / rounds as f64,
    }
}

fn main() {
    let quick = dg_bench::quick_mode();
    // (n, q, iters, headline) — p is always 1/n. The 2^14 row is the
    // acceptance headline; the smaller rows sketch the scaling curve.
    let setup_cases: &[(usize, f64, u32, bool)] = if quick {
        &[(1 << 9, 0.005, 3, true)]
    } else {
        &[
            (1 << 11, 0.005, 10, false),
            (1 << 12, 0.005, 6, false),
            (1 << 13, 0.005, 4, false),
            (1 << 14, 0.005, 3, true),
        ]
    };
    let mut setups = Vec::new();
    for &(n, q, iters, headline) in setup_cases {
        let r = bench_setup(n, q, iters, headline);
        println!(
            "setup    n={:>6} p=1/n q={:<6} scan {:>10.2} ms   lane {:>8.3} ms   speedup {:>6.1}x   (on-edges ~{} vs ~{}, pairs {})",
            r.n, r.q, r.scan_ms, r.lane_ms, r.speedup, r.scan_edges, r.lane_edges, pair_count(r.n)
        );
        setups.push(r);
    }

    let thinned = if quick {
        let n = 1 << 9;
        bench_thinned_stepping(n, 1.0 / (16.0 * n as f64), 0.1, 0.5, 500)
    } else {
        let n = 1 << 12;
        bench_thinned_stepping(n, 1.0 / (64.0 * n as f64), 0.05, 0.5, 20_000)
    };
    println!(
        "thinned  n={:>6} gamma=0.5   snapshot {:>9.0} ns/round   delta {:>9.0} ns/round   speedup {:>5.1}x   (churn ~{:.0})",
        thinned.n, thinned.snapshot_ns_per_round, thinned.delta_ns_per_round, thinned.speedup, thinned.mean_churn
    );

    dg_bench::Record::new(
        env!("CARGO_CRATE_NAME"),
        "sparse_init",
        "trial setup cost of the exact-scan edge-MEG's O(n^2) stationary pair scan vs the lane edge-MEG's O(#on) geometric-skip initializer (p = 1/n), plus the delta-native section-5 thinned wrapper over the lane edge-MEG",
    )
    .rows("setup", setups.iter().map(|r| obj! {
        "scan_model": "sparse-two-state-edge-meg", "lane_model": "lane-edge-meg",
        "headline": r.headline,
        "n": r.n, "p": fixed(r.p, 10), "q": r.q, "iters": r.iters, "scan_ms": fixed(r.scan_ms, 3),
        "lane_ms": fixed(r.lane_ms, 3), "speedup": fixed(r.speedup, 1), "scan_edges": r.scan_edges,
        "lane_edges": r.lane_edges,
    }))
    .rows("thinned_stepping", [obj! {
        "model": "thinned(lane-edge-meg)", "n": thinned.n, "p": fixed(thinned.p, 10),
        "q": thinned.q,
        "gamma": 0.5, "rounds": thinned.rounds,
        "snapshot_ns_per_round": fixed(thinned.snapshot_ns_per_round, 1),
        "delta_ns_per_round": fixed(thinned.delta_ns_per_round, 1),
        "speedup": fixed(thinned.speedup, 2), "mean_churn": fixed(thinned.mean_churn, 1),
    }])
    .write();
}
