//! The no-perturbation pin for `dg-obs`: metrics-on ≡ metrics-off.
//!
//! Instrumentation reads timings and tallies; it must never touch an RNG
//! stream, a trial record, a sweep artifact byte, or a fingerprint.
//! Every test here runs the same computation twice — recording disabled,
//! then enabled via [`dg_obs::set_enabled`] — and asserts byte identity
//! of the results, across:
//!
//! * the engine's serial, parallel, snapshot and delta executors, and
//!   the lane executor's scan and adjacency rounds;
//! * sweep artifacts (`dg-sweep/1` and the multi-metric `dg-sweep/2`
//!   format) and their fingerprints;
//! * the checkpoint/resume path (a "killed" sweep finished by a second
//!   run must match an uninterrupted unobserved one).
//!
//! The runtime gate is the only off-switch: the workspace declares no
//! cargo features, so every build compiles the same instrumentation.
//! The `t20_obs` bench guards what the disabled gate costs.

use std::sync::Mutex;

use dynspread::dg_edge_meg::{ShardedSparseEdgeMeg, SparseTwoStateEdgeMeg};
use dynspread::dynagraph::engine::{PushGossip, Simulation, Stepping};
use dynspread::dynagraph::sweep::{
    trial_metrics, Axis, Cell, CiTarget, Grid, Metric, Sweep, SweepReport, Trial, TrialBudget,
};

const BASE_SEED: u64 = 0x0B5;
const MAX_ROUNDS: u32 = 200_000;

fn sparse_meg(seed: u64) -> SparseTwoStateEdgeMeg {
    let n = 96;
    SparseTwoStateEdgeMeg::stationary(n, 1.5 / n as f64, 0.4, seed).unwrap()
}

/// Runs `f` with metric recording off, then again with it on, and
/// returns both results. Serialised on a static lock: the dg-obs switch
/// is process-global, and these tests share one test binary.
fn off_then_on<T>(f: impl Fn() -> T) -> (T, T) {
    static FLAG: Mutex<()> = Mutex::new(());
    let _guard = FLAG.lock().unwrap_or_else(|p| p.into_inner());
    dg_obs::set_enabled(false);
    let off = f();
    dg_obs::set_enabled(true);
    let on = f();
    dg_obs::set_enabled(false);
    (off, on)
}

/// Observations so far of each named round-phase span.
fn phase_counts(phases: &[&str]) -> Vec<u64> {
    phases
        .iter()
        .map(|phase| {
            dg_obs::Registry::global()
                .histogram_snapshot(&format!(
                    "dg_engine_round_phase_seconds{{phase=\"{phase}\"}}"
                ))
                .map_or(0, |h| h.count)
        })
        .collect()
}

#[test]
fn engine_records_are_identical_with_metrics_on() {
    // Delta-path flooding: span timers around step/apply/protocol.
    let (off, on) = off_then_on(|| {
        Simulation::builder()
            .model(sparse_meg)
            .trials(8)
            .max_rounds(MAX_ROUNDS)
            .warm_up(8)
            .base_seed(BASE_SEED)
            .stepping(Stepping::Delta)
            .run()
    });
    assert_eq!(off, on);
    assert_eq!(format!("{off:?}"), format!("{on:?}"));

    // Snapshot-path push gossip: the protocol RNG stream must not move.
    let (off, on) = off_then_on(|| {
        Simulation::builder()
            .model(sparse_meg)
            .protocol(PushGossip::new(2))
            .trials(8)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
            .stepping(Stepping::Snapshot)
            .run()
    });
    assert_eq!(off, on);

    // Parallel trials: per-worker scratch reuse counters fire off-thread.
    let (off, on) = off_then_on(|| {
        Simulation::builder()
            .model(sparse_meg)
            .trials(8)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
            .run()
    });
    assert_eq!(off, on);

    // The serial round loop's span accounting at one shard: one
    // model_step, protocol and observer span per executed round on both
    // stepping paths, and one delta_apply span per round on Delta only.
    // Every engine run in this binary holds the lock, so counts are
    // exact.
    const PHASES: [&str; 4] = ["model_step", "delta_apply", "protocol", "observer"];
    for stepping in [Stepping::Snapshot, Stepping::Delta] {
        let (off, on) = off_then_on(|| {
            let before = phase_counts(&PHASES);
            let report = Simulation::builder()
                .model(sparse_meg)
                .trials(6)
                .max_rounds(MAX_ROUNDS)
                .base_seed(BASE_SEED)
                .stepping(stepping)
                .run();
            if dg_obs::enabled() {
                let rounds: u64 = report.records().iter().map(|r| u64::from(r.rounds)).sum();
                let applies = if stepping == Stepping::Delta {
                    rounds
                } else {
                    0
                };
                let spans: Vec<u64> = phase_counts(&PHASES)
                    .iter()
                    .zip(&before)
                    .map(|(a, b)| a - b)
                    .collect();
                assert_eq!(spans, [rounds, applies, rounds, rounds], "{stepping:?}");
            }
            report
        });
        assert_eq!(off, on, "{stepping:?}");
    }
}

#[test]
fn sharded_flooding_is_identical_with_metrics_on() {
    // The lane executor's hooks: round-phase spans and per-lane churn
    // counters. Its three round mixes: scan rounds only (Auto, a fast
    // flood), scan rounds that switch to adjacency rounds mid-trial
    // (Auto, slow churn), and adjacency rounds throughout (Delta at 4
    // shards).
    let fast = |seed: u64| {
        let n = 512;
        ShardedSparseEdgeMeg::stationary(n, 1.5 / n as f64, 0.4, seed).unwrap()
    };
    let slow = |seed: u64| ShardedSparseEdgeMeg::stationary(256, 1e-5, 1e-3, seed).unwrap();
    for (model, cap) in [
        (&fast as &(dyn Fn(u64) -> _ + Sync), MAX_ROUNDS),
        (&slow, 400),
    ] {
        for (stepping, shards) in [
            (Stepping::Auto, 1),
            (Stepping::Auto, 4),
            (Stepping::Delta, 4),
        ] {
            let (off, on) = off_then_on(|| {
                let phases = || phase_counts(&["model_step", "protocol", "observer"]);
                let before = phases();
                let report = Simulation::builder()
                    .model(model)
                    .trials(3)
                    .max_rounds(cap)
                    .base_seed(BASE_SEED)
                    .stepping(stepping)
                    .shards(shards)
                    .run();
                if dg_obs::enabled() {
                    // Every executed round records each phase span.
                    let rounds: u64 = report.records().iter().map(|r| u64::from(r.rounds)).sum();
                    for (b, a) in before.iter().zip(phases()) {
                        assert!(a - b >= rounds, "{stepping:?}, {shards} shards");
                    }
                }
                report
            });
            assert_eq!(off, on, "{stepping:?}, {shards} shards");
            assert_eq!(format!("{off:?}"), format!("{on:?}"));
        }
    }
}

fn flood_grid() -> Grid {
    Grid::new()
        .axis(Axis::ints("n", [48, 96]))
        .axis(Axis::log("q", 0.2, 0.6, 2))
}

fn flood_trial(cell: &Cell, trial: Trial) -> Option<f64> {
    let n = cell.usize("n");
    let q = cell.get("q");
    let rec = Simulation::builder()
        .model(move |seed| SparseTwoStateEdgeMeg::stationary(n, 1.5 / n as f64, q, seed).unwrap())
        .max_rounds(MAX_ROUNDS)
        .base_seed(trial.cell_seed)
        .run_trial(trial.index);
    rec.time.map(f64::from)
}

#[test]
fn sweep_artifacts_and_fingerprints_are_identical_with_metrics_on() {
    // dg-sweep/1: scheduler counters, cell gauges, decision histogram.
    let (off, on) = off_then_on(|| {
        Sweep::over(flood_grid())
            .budget(TrialBudget::adaptive(3, 12, CiTarget::Relative(0.4)))
            .base_seed(BASE_SEED)
            .run(flood_trial)
            .unwrap()
    });
    assert_eq!(off.fingerprint(), on.fingerprint());
    assert_eq!(off.to_json(), on.to_json());
    assert_eq!(off.to_csv(), on.to_csv());

    // dg-sweep/2: multi-metric stopping walks the same instrumented path.
    let metrics = vec![Metric::new("rounds"), Metric::observe("coverage")];
    let (off, on) = off_then_on(|| {
        let metrics = metrics.clone();
        Sweep::over(flood_grid().metrics(metrics.clone()))
            .budget(TrialBudget::adaptive(3, 12, CiTarget::Relative(0.4)))
            .base_seed(BASE_SEED)
            .run_metrics(move |cell, trial| {
                let n = cell.usize("n");
                let q = cell.get("q");
                let rec = Simulation::builder()
                    .model(move |seed| {
                        SparseTwoStateEdgeMeg::stationary(n, 1.5 / n as f64, q, seed).unwrap()
                    })
                    .max_rounds(MAX_ROUNDS)
                    .base_seed(trial.cell_seed)
                    .run_trial(trial.index);
                trial_metrics(&rec, n, &metrics)
            })
            .unwrap()
    });
    assert_eq!(off.fingerprint(), on.fingerprint());
    assert_eq!(off.to_json(), on.to_json());
}

#[test]
fn resumed_sweep_with_metrics_matches_uninterrupted_unobserved_run() {
    // Simulate a kill: an instrumented sweep checkpoints a genuine
    // partial artifact, and a second instrumented run resumes it. The
    // final bytes must equal an uninterrupted, *unobserved* run — the
    // cross product of the resume invariant and the no-perturbation one.
    let dir = std::env::temp_dir().join(format!("dg_obs_identity_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.json");

    let sweep = || {
        Sweep::over(flood_grid())
            .budget(TrialBudget::adaptive(3, 12, CiTarget::Relative(0.4)))
            .base_seed(BASE_SEED ^ 0x5EED)
    };
    let (uninterrupted, resumed) = off_then_on(|| {
        if !dg_obs::enabled() {
            return sweep().run(flood_trial).unwrap();
        }
        let _ = std::fs::remove_file(&path);
        let partial = sweep()
            .run_budget(2)
            .checkpoint(&path)
            .run(flood_trial)
            .unwrap();
        assert!(!partial.is_complete());
        sweep().checkpoint(&path).run(flood_trial).unwrap()
    });
    assert!(resumed.is_complete());
    assert_eq!(uninterrupted.fingerprint(), resumed.fingerprint());
    assert_eq!(uninterrupted.to_json(), resumed.to_json());
    // The checkpoint file's final bytes agree too.
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert_eq!(on_disk, uninterrupted.to_json());
    let reloaded = SweepReport::from_json(&on_disk).unwrap();
    assert_eq!(reloaded, uninterrupted);
    let _ = std::fs::remove_dir_all(&dir);
}
