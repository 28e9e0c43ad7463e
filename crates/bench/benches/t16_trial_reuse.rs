//! t16 — zero-rebuild trials: what per-worker model reuse, scratch
//! reuse, the full-emission bulk load, and the lazy sparse-MEG dynamics
//! buy on setup-dominated Monte-Carlo workloads.
//!
//! Three workloads, each run on both trial paths and asserted
//! byte-identical:
//!
//! * **phase-cell sweep** (headline) — flooding time of large
//!   slow-churn lane edge-MEGs (`ShardedSparseEdgeMeg`, `n = 2^14`,
//!   `p = 1/n`, small `q`, one shard): the stationary on-set is ~1.6–4M edges while flooding
//!   completes in ~3 rounds of tiny churn, so per-trial *setup*
//!   (stationary init + structure building) is nearly the whole trial.
//!   Compared paths: the pre-PR-shaped stateless path
//!   (`Sweep::run` + `run_trial`, fresh model + buffers every trial)
//!   vs the zero-rebuild path (`run_with_state` + per-worker model
//!   cache + `TrialScratch`).
//! * **t05 density grid** — the waypoint-MANET density sweep at bench
//!   scale (the `benches/t15_sweep` workload). Honest contrast: its
//!   trials are *round*-dominated (mobility stepping), so zero-rebuild
//!   is within noise of fresh construction here — recorded to show
//!   where the optimization does and does not pay.
//! * **engine batch, exact-scan MEG** — a batch `run` (one model per
//!   worker, reset between trials) vs a `run_trial` loop (a fresh model
//!   every trial) on the `O(n²)`-allocation exact-scan construction
//!   (32 MB occupancy plus the first 64 rounds' events per trial when
//!   fresh; the rest of the scan is replayed only by trials that run
//!   past round 64).
//!
//! Writes `BENCH_trial_reuse.json` at the repository root (quick mode:
//! `target/BENCH_trial_reuse_quick.json`).

use std::collections::HashMap;
use std::time::Instant;

use dg_bench::{fixed, obj};
use dg_edge_meg::{ShardedSparseEdgeMeg, SparseTwoStateEdgeMeg};
use dg_mobility::{GeometricMeg, RandomWaypoint};
use dynagraph::engine::{Simulation, TrialScratch};
use dynagraph::sweep::{Axis, Cell, Grid, Sweep, SweepReport, Trial, TrialBudget};
use dynagraph::EvolvingGraph;

/// Per-worker reuse state (the `dg-experiments` `FloodWorker` pattern):
/// one cached model per cell plus one scratch shared across cells.
struct Worker<G> {
    models: HashMap<usize, Option<G>>,
    scratch: TrialScratch,
}

impl<G> Worker<G> {
    fn new() -> Self {
        Worker {
            models: HashMap::new(),
            scratch: TrialScratch::new(),
        }
    }
}

/// One flooding trial through the stateless engine hook — the pre-PR
/// shape: a fresh model and fresh buffers every trial.
fn flood_trial_fresh<G: EvolvingGraph, F: Fn(u64) -> G>(
    make: F,
    warm: usize,
    trial: Trial,
) -> Option<f64> {
    Simulation::builder()
        .model(make)
        .max_rounds(100_000)
        .warm_up(warm)
        .base_seed(trial.cell_seed)
        .run_trial(trial.index)
        .time
        .map(f64::from)
}

/// Times `sweep()` and returns (report, seconds).
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

struct Measurement {
    fresh_ms_per_trial: f64,
    reuse_ms_per_trial: f64,
    trials: usize,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.fresh_ms_per_trial / self.reuse_ms_per_trial
    }
}

/// Runs a grid workload on both paths, asserts byte-identity, returns
/// per-trial times (best of `reps` to damp scheduler noise).
fn measure_sweep<G, F>(
    grid: fn() -> Grid,
    make: F,
    warm: fn(&Cell) -> usize,
    budget: usize,
    reps: usize,
) -> Measurement
where
    G: EvolvingGraph,
    F: Fn(&Cell, u64) -> G + Sync + Copy,
{
    let run_fresh = |seed: u64| {
        Sweep::over(grid())
            .budget(TrialBudget::fixed(budget))
            .base_seed(seed)
            .threads(1)
            .run(|cell, trial| flood_trial_fresh(|s| make(cell, s), warm(cell), trial))
            .unwrap()
    };
    let run_reused = |seed: u64| {
        Sweep::over(grid())
            .budget(TrialBudget::fixed(budget))
            .base_seed(seed)
            .threads(1)
            .run_with_state(Worker::new, |cell, trial, worker| {
                let warm = warm(cell);
                let builder = Simulation::builder()
                    .model(|s| make(cell, s))
                    .max_rounds(100_000)
                    .warm_up(warm)
                    .base_seed(trial.cell_seed);
                let slot = worker.models.entry(cell.id()).or_default();
                builder
                    .run_trial_with(trial.index, slot, &mut worker.scratch)
                    .time
                    .map(f64::from)
            })
            .unwrap()
    };
    let mut fresh_best = f64::INFINITY;
    let mut reuse_best = f64::INFINITY;
    let mut trials = 0;
    for rep in 0..reps {
        let seed = 0x7160 + rep as u64;
        let (fresh, t_fresh): (SweepReport, f64) = timed(|| run_fresh(seed));
        let (reused, t_reuse) = timed(|| run_reused(seed));
        assert_eq!(
            fresh.to_json(),
            reused.to_json(),
            "zero-rebuild must be byte-identical to the fresh path"
        );
        trials = fresh.total_trials();
        fresh_best = fresh_best.min(t_fresh * 1e3 / trials as f64);
        reuse_best = reuse_best.min(t_reuse * 1e3 / trials as f64);
    }
    Measurement {
        fresh_ms_per_trial: fresh_best,
        reuse_ms_per_trial: reuse_best,
        trials,
    }
}

/// Commit-time baselines: the same three workloads, same machine, run
/// against the parent commit (stateless `run_trial` path; before the
/// full-emission bulk load, the lazy sparse-MEG dynamics and the
/// occupancy `PairMap`, which speed up *both* of today's paths). Kept
/// as constants so the committed `BENCH_trial_reuse.json` can state the
/// end-to-end effect of the PR; on other machines they are indicative
/// only. The phase-cell baseline ran on the single-stream lazy model the
/// lane model has since replaced.
const PRE_PR_PHASE_CELL_MS: f64 = 859.7;
const PRE_PR_T05_MS: f64 = 0.5817;
const PRE_PR_EXACT_SCAN_MS: f64 = 337.9;

fn main() {
    let quick = dg_bench::quick_mode();
    let reps = if quick { 1 } else { 3 };

    // 1. Headline: slow-churn phase cells — setup is the trial.
    let n1 = if quick { 1024 } else { 16384 };
    let w1_qs = if quick {
        vec![0.02, 0.01]
    } else {
        vec![0.005, 0.002]
    };
    let w1_grid = if quick {
        || Grid::new().axis(Axis::explicit("q", vec![0.02, 0.01]))
    } else {
        || Grid::new().axis(Axis::explicit("q", vec![0.005, 0.002]))
    };
    let w1 = measure_sweep(
        w1_grid,
        move |cell: &Cell, seed| {
            ShardedSparseEdgeMeg::stationary(n1, 1.0 / n1 as f64, cell.get("q"), seed).unwrap()
        },
        |_| 0,
        if quick { 3 } else { 6 },
        reps,
    );
    println!(
        "phase-cell sweep  n={n1:>5}: fresh {:>8.1} ms/trial   zero-rebuild {:>8.1} ms/trial   {:.2}x ({} trials)",
        w1.fresh_ms_per_trial, w1.reuse_ms_per_trial, w1.speedup(), w1.trials
    );

    // 2. The t05 density grid (round-dominated; honesty check).
    let n2 = if quick { 24 } else { 48 };
    let w2_grid = if quick {
        || Grid::new().axis(Axis::explicit("L", vec![4.0, 6.5]))
    } else {
        || Grid::new().axis(Axis::explicit("L", vec![4.5, 6.0, 7.5, 9.0, 10.5]))
    };
    let w2 = measure_sweep(
        w2_grid,
        move |cell: &Cell, seed| {
            GeometricMeg::new(
                RandomWaypoint::new(cell.get("L"), 1.0, 1.0).unwrap(),
                n2,
                1.0,
                seed,
            )
            .unwrap()
        },
        |cell| (8.0 * cell.get("L")) as usize,
        if quick { 4 } else { 24 },
        reps,
    );
    println!(
        "t05 density grid  n={n2:>5}: fresh {:>8.3} ms/trial   zero-rebuild {:>8.3} ms/trial   {:.2}x ({} trials)",
        w2.fresh_ms_per_trial, w2.reuse_ms_per_trial, w2.speedup(), w2.trials
    );

    // 3. Engine batch over the exact-scan construction (32 MB of
    // occupancy plus the first window's events per fresh trial at full
    // scale).
    let n3 = if quick { 512 } else { 4096 };
    let (w3_fresh, w3_reuse, w3_trials) = {
        let trials = if quick { 4 } else { 10 };
        let build = move |rep: u64| {
            Simulation::builder()
                .model(move |seed| {
                    SparseTwoStateEdgeMeg::stationary(n3, 1.0 / n3 as f64, 0.2, seed).unwrap()
                })
                .trials(trials)
                .max_rounds(200_000)
                .threads(1)
                .base_seed(0x7170 + rep)
        };
        let mut fresh_best = f64::INFINITY;
        let mut reuse_best = f64::INFINITY;
        for rep in 0..reps as u64 {
            let b = build(rep);
            let (fresh, t_fresh) =
                timed(|| (0..trials).map(|i| b.run_trial(i)).collect::<Vec<_>>());
            let (reused, t_reuse) = timed(|| build(rep).run());
            assert_eq!(
                reused.records(),
                fresh,
                "model reuse must be byte-identical"
            );
            fresh_best = fresh_best.min(t_fresh * 1e3 / trials as f64);
            reuse_best = reuse_best.min(t_reuse * 1e3 / trials as f64);
        }
        (fresh_best, reuse_best, trials)
    };
    println!(
        "exact-scan batch  n={n3:>5}: fresh {:>8.1} ms/trial   zero-rebuild {:>8.1} ms/trial   {:.2}x ({} trials)",
        w3_fresh, w3_reuse, w3_fresh / w3_reuse, w3_trials
    );

    // The zero-rebuild path must never lose to fresh construction on
    // the setup-dominated workloads (tolerance for timer noise).
    if !quick {
        assert!(
            w1.speedup() > 1.02,
            "headline workload shows no reuse gain: {:.3}x",
            w1.speedup()
        );
    }

    dg_bench::Record::new(
        env!("CARGO_CRATE_NAME"),
        "trial_reuse",
        "zero-rebuild trials: per-worker model reuse (reset instead of reconstruction) + reusable TrialScratch across the engine and sweep layers, plus the full-emission bulk load and the lazy sparse-MEG dynamics added to the shared trial path. fresh = stateless path (new model + new buffers every trial); zero_rebuild = cached model reset in place + retained buffers. Reports are asserted byte-identical on every workload.",
    )
    .entries("workloads", [
        ("phase_cell_sweep", obj! {
            "model": "lane edge-MEG", "n": n1, "p": "1/n", "q": w1_qs, "trials": w1.trials,
            "fresh_ms_per_trial": fixed(w1.fresh_ms_per_trial, 2),
            "zero_rebuild_ms_per_trial": fixed(w1.reuse_ms_per_trial, 2),
            "speedup": fixed(w1.speedup(), 3),
        }),
        ("t05_density_grid", obj! {
            "model": "waypoint-manet", "n": n2, "trials": w2.trials,
            "fresh_ms_per_trial": fixed(w2.fresh_ms_per_trial, 4),
            "zero_rebuild_ms_per_trial": fixed(w2.reuse_ms_per_trial, 4),
            "speedup": fixed(w2.speedup(), 3),
            "note": "round-dominated: mobility stepping, not setup, is the cost here; recorded as the honest negative control",
        }),
        ("exact_scan_batch", obj! {
            "model": "exact-scan sparse edge-MEG", "n": n3, "trials": w3_trials,
            "fresh_ms_per_trial": fixed(w3_fresh, 2),
            "zero_rebuild_ms_per_trial": fixed(w3_reuse, 2),
            "speedup": fixed(w3_fresh / w3_reuse, 3),
        }),
    ])
    .object("pre_pr_baseline", obj! {
        "phase_cell_sweep_ms_per_trial": PRE_PR_PHASE_CELL_MS,
        "t05_density_grid_ms_per_trial": PRE_PR_T05_MS,
        "exact_scan_batch_ms_per_trial": PRE_PR_EXACT_SCAN_MS,
        "note": "same workloads, same machine, measured at commit time on the parent commit (before the bulk load, the lazy sparse-MEG dynamics and the occupancy PairMap, which speed up both of today's paths); the end-to-end headline below compares against it",
    })
    .object("headline", obj! {
        "phase_cell_end_to_end_vs_pre_pr": fixed(PRE_PR_PHASE_CELL_MS / w1.reuse_ms_per_trial, 2),
        "t05_end_to_end_vs_pre_pr": fixed(PRE_PR_T05_MS / w2.reuse_ms_per_trial, 2),
        "exact_scan_end_to_end_vs_pre_pr": fixed(PRE_PR_EXACT_SCAN_MS / w3_reuse, 2),
        "reuse_only_byte_identical": true,
    })
    .write();
}
