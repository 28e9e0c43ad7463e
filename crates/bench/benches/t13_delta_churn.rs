//! t13 — delta-native stepping vs full per-round rebuild.
//!
//! The tentpole claim of the delta refactor: in the paper's sparse,
//! slow-churn regimes (`p ≈ 1/n`, stationary) the per-round cost of the
//! simulator should be proportional to the *churn* (edges toggled this
//! round), not to `|E_t| + n`. This bench measures both stepping paths
//! of the event-driven `SparseTwoStateEdgeMeg` on identical realizations
//! (same seed ⇒ same RNG stream), plus an end-to-end engine flooding run
//! on both pipelines, and writes `BENCH_delta.json` at the repository
//! root (a [`dg_bench::Record`]) to track the perf trajectory. Every row
//! is the median of [`REPS`] repetitions per side, the sides alternating.
//!
//! Every timed loop starts after [`WARM_UP`] untimed rounds, past the
//! exact scan's first window: the step that closes it replays the
//! `O(n²)` pair scan once, which is trial setup, not stepping.
//!
//! Quick mode (`DG_BENCH_QUICK=1`) shrinks every case so CI can smoke
//! the bench in seconds, and writes `target/BENCH_delta_quick.json`.

use std::time::Instant;

use dg_bench::{fixed, obj};
use dg_edge_meg::SparseTwoStateEdgeMeg;
use dynagraph::{DynAdjacency, EdgeDelta, EvolvingGraph};

/// Untimed rounds before every timed loop: the exact scan's first window
/// ([`SparseTwoStateEdgeMeg::FIRST_WINDOW`]), which also faults in
/// buffers and caches.
const WARM_UP: u64 = SparseTwoStateEdgeMeg::FIRST_WINDOW;

struct SteppingResult {
    n: usize,
    p: f64,
    q: f64,
    rounds: usize,
    rebuild_ns_per_round: f64,
    delta_ns_per_round: f64,
    speedup: f64,
    mean_edges: f64,
    mean_churn: f64,
    headline: bool,
}

/// Times `rounds` rounds of the same stationary realization on both
/// stepping paths, as the median of [`REPS`] alternating repetitions per
/// side, each on a freshly built and warmed model.
fn bench_stepping(n: usize, q: f64, rounds: usize, headline: bool) -> SteppingResult {
    let p = 1.0 / n as f64;
    let seed = 0xBE7C_D317;

    // Full-rebuild path: every round materializes the CSR snapshot.
    let (mut edges_total, mut final_edges) = (0usize, 0usize);
    let rebuild = || {
        let mut g = SparseTwoStateEdgeMeg::stationary(n, p, q, seed).unwrap();
        for _ in 0..WARM_UP {
            g.step();
        }
        let start = Instant::now();
        edges_total = (0..rounds).map(|_| g.step().edge_count()).sum();
        let ns = start.elapsed().as_nanos() as f64 / rounds as f64;
        final_edges = g.alive_count();
        ns
    };

    // Delta path: the popped toggle events are applied to an incremental
    // adjacency; no snapshot is ever built.
    let (mut churn_total, mut adj_edges) = (0usize, 0usize);
    let native = || {
        let mut g = SparseTwoStateEdgeMeg::stationary(n, p, q, seed).unwrap();
        let mut adj = DynAdjacency::new(n);
        let mut delta = EdgeDelta::new();
        for _ in 0..WARM_UP {
            g.step_delta(&mut delta);
            adj.apply(&delta);
        }
        churn_total = 0;
        let start = Instant::now();
        for _ in 0..rounds {
            g.step_delta(&mut delta);
            adj.apply(&delta);
            churn_total += delta.churn();
        }
        let ns = start.elapsed().as_nanos() as f64 / rounds as f64;
        adj_edges = adj.edge_count();
        ns
    };

    let (rebuild_ns, delta_ns) = alternating_medians(rebuild, native);
    // Same seed, same draws: both paths must land on the same edge set.
    assert_eq!(adj_edges, final_edges, "paths diverged");
    SteppingResult {
        n,
        p,
        q,
        rounds,
        rebuild_ns_per_round: rebuild_ns,
        delta_ns_per_round: delta_ns,
        speedup: rebuild_ns / delta_ns,
        mean_edges: edges_total as f64 / rounds as f64,
        mean_churn: churn_total as f64 / rounds as f64,
        headline,
    }
}

struct FloodingResult {
    n: usize,
    p: f64,
    q: f64,
    snapshot_ms: f64,
    delta_ms: f64,
    speedup: f64,
    flooding_time: Option<u32>,
}

/// Hides a model's native deltas so `flood` takes the classic snapshot
/// sweep — the full-rebuild baseline for the consumer-side comparison.
struct HideDeltas<G>(G);

impl<G: EvolvingGraph> EvolvingGraph for HideDeltas<G> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn step(&mut self) -> &dynagraph::Snapshot {
        self.0.step()
    }
    fn reset(&mut self, seed: u64) {
        self.0.reset(seed)
    }
}

/// Timed repetitions per side of every row.
const REPS: usize = 7;

/// The medians of [`REPS`] timings of each side, taken alternately (the
/// side that runs first swaps every repetition), so a drift of the host
/// over the row shifts both sides alike. Each call of a side times one
/// repetition on a freshly built model and returns its cost.
fn alternating_medians(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (f64, f64) {
    let (mut xs, mut ys) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for rep in 0..REPS {
        if rep % 2 == 0 {
            xs.push(a());
            ys.push(b());
        } else {
            ys.push(b());
            xs.push(a());
        }
    }
    (median(xs), median(ys))
}

/// Times one long flooding realization end to end on both sweeps
/// (frontier/delta vs snapshot rebuild + informed scan), as the median
/// of [`REPS`] alternating repetitions per side. Model construction and
/// the first [`WARM_UP`] rounds with their scan replay — identical RNG
/// work on both paths — are excluded so the row measures the stepping
/// pipeline; flooding starts at round [`WARM_UP`] of the stationary
/// process. The two runs are asserted equal before any timing, and
/// every timed run equals them.
fn bench_flooding(n: usize, p: f64, q: f64, max_rounds: u32) -> FloodingResult {
    let seed = 0xF100D;
    let warmed = || {
        let mut g = SparseTwoStateEdgeMeg::stationary(n, p, q, seed).unwrap();
        for _ in 0..WARM_UP {
            g.step();
        }
        g
    };
    let delta_run = dynagraph::flooding::flood(&mut warmed(), 0, max_rounds);
    let snapshot_run = dynagraph::flooding::flood(&mut HideDeltas(warmed()), 0, max_rounds);
    assert_eq!(delta_run, snapshot_run, "sweeps must agree");

    let (snapshot_ms, delta_ms) = alternating_medians(
        || {
            let mut hidden = HideDeltas(warmed());
            let start = Instant::now();
            let run = dynagraph::flooding::flood(&mut hidden, 0, max_rounds);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(run, snapshot_run);
            ms
        },
        || {
            let mut native = warmed();
            let start = Instant::now();
            let run = dynagraph::flooding::flood(&mut native, 0, max_rounds);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(run, delta_run);
            ms
        },
    );
    FloodingResult {
        n,
        p,
        q,
        snapshot_ms,
        delta_ms,
        speedup: snapshot_ms / delta_ms,
        flooding_time: delta_run.flooding_time(),
    }
}

/// The median of an odd number of samples.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let quick = dg_bench::quick_mode();
    let stepping_cases: &[(usize, f64, usize, bool)] = if quick {
        &[(256, 0.05, 300, true)]
    } else {
        &[
            // (n, q, rounds, headline) — p is always 1/n (sparse regime).
            // Speedup grows as churn slows: the rebuild pays O(m + n)
            // while the delta path pays O(churn), and m ≈ (p/(p+q))·n²/2.
            // `rounds` is per repetition; REPS of them per side.
            (1024, 0.05, 600, false),
            (4096, 0.005, 200, true),
            (4096, 0.01, 300, false),
            (4096, 0.02, 300, false),
            (4096, 0.2, 300, false),
        ]
    };
    let mut stepping = Vec::new();
    for &(n, q, rounds, headline) in stepping_cases {
        let r = bench_stepping(n, q, rounds, headline);
        println!(
            "stepping n={:>5} p=1/n q={:<4} {:>7} rounds   rebuild {:>9.0} ns/round   delta {:>8.0} ns/round   speedup {:>5.1}x   (edges ~{:.0}, churn ~{:.1})",
            r.n, r.q, r.rounds, r.rebuild_ns_per_round, r.delta_ns_per_round, r.speedup, r.mean_edges, r.mean_churn
        );
        stepping.push(r);
    }

    // The paper's very sparse regime (expected degree well below 1 per
    // round): flooding threads through hundreds of ephemeral edges, so
    // the run is long and the sweep cost dominates.
    let flooding = if quick {
        bench_flooding(256, 1.0 / (16.0 * 256.0), 0.1, 20_000)
    } else {
        bench_flooding(4096, 1.0 / (64.0 * 4096.0), 0.05, 100_000)
    };
    println!(
        "flooding n={}   snapshot {:>8.1} ms   delta {:>8.1} ms   speedup {:.1}x   (F(G,s) = {:?} rounds)",
        flooding.n, flooding.snapshot_ms, flooding.delta_ms, flooding.speedup, flooding.flooding_time
    );

    dg_bench::Record::new(
        env!("CARGO_CRATE_NAME"),
        "delta",
        "per-round cost of full CSR rebuild vs delta-native stepping on the stationary sparse edge-MEG (p = 1/n)",
    )
    .rows("stepping", stepping.iter().map(|r| obj! {
        "model": "sparse-two-state-edge-meg", "headline": r.headline, "n": r.n, "p": fixed(r.p, 8),
        "q": r.q, "rounds": r.rounds, "rebuild_ns_per_round": fixed(r.rebuild_ns_per_round, 1),
        "delta_ns_per_round": fixed(r.delta_ns_per_round, 1), "speedup": fixed(r.speedup, 2),
        "mean_edges": fixed(r.mean_edges, 1), "mean_churn": fixed(r.mean_churn, 2), "reps": REPS,
    }))
    .rows("flooding_end_to_end", [obj! {
        "model": "sparse-two-state-edge-meg", "protocol": "flooding", "n": flooding.n,
        "p": fixed(flooding.p, 10), "q": flooding.q, "snapshot_ms": fixed(flooding.snapshot_ms, 2),
        "delta_ms": fixed(flooding.delta_ms, 2), "speedup": fixed(flooding.speedup, 2),
        "flooding_time": flooding.flooding_time, "reps": REPS,
    }])
    .write();
}
