//! Determinism property pins for multi-metric sweeps.
//!
//! The crate's design invariant — artifacts are a pure function of
//! (grid, budget, seed, trial function), independent of scheduling —
//! is unit-tested per component; these tests pin it end-to-end for the
//! `dg-sweep/2` row-based path (serial vs. parallel vs. kill+resume),
//! plus a frozen historical fingerprint so the identity hash can never
//! silently drift.

use dg_sweep::{Axis, Cell, CiTarget, Grid, Metric, Sweep, SweepSpec, Trial, TrialBudget};

/// A multi-metric trial with per-metric censoring and enough noise to
/// exercise the per-metric stopping rule: `rounds` censors on every
/// fifth seed, `messages` always completes, `coverage` is observe-only.
fn metric_trial(cell: &Cell, trial: Trial) -> Vec<Option<f64>> {
    let n = cell.usize("n") as f64;
    let rounds =
        (!trial.seed.is_multiple_of(5)).then(|| cell.get("q") * n + (trial.seed % 16) as f64);
    vec![
        rounds,
        Some(n * (4.0 + (trial.seed % 8) as f64)),
        Some(if rounds.is_some() { 1.0 } else { 0.5 }),
    ]
}

fn metric_grid() -> Grid {
    Grid::new()
        .axis(Axis::ints("n", [16, 32]))
        .axis(Axis::log("q", 0.1, 0.4, 2))
        .metrics([
            Metric::new("rounds"),
            Metric::target("messages", CiTarget::Relative(0.2)),
            Metric::observe("coverage"),
        ])
}

fn configured(s: Sweep) -> Sweep {
    s.budget(TrialBudget::adaptive(3, 24, CiTarget::Relative(0.1)))
        .base_seed(0xBEEF)
}

#[test]
fn multi_metric_artifacts_identical_across_schedules() {
    let run = |threads: usize, lookahead: usize| {
        configured(Sweep::over(metric_grid()))
            .threads(threads)
            .lookahead(lookahead)
            .run_metrics(metric_trial)
            .unwrap()
            .to_json()
    };
    let serial = run(1, 0);
    assert_eq!(serial, run(4, 2));
    assert_eq!(serial, run(7, 5));
}

#[test]
fn multi_metric_kill_resume_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("dg_sweep_props_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume_v2.json");
    let _ = std::fs::remove_file(&path);

    let full = configured(Sweep::over(metric_grid()))
        .run_metrics(metric_trial)
        .unwrap();

    let partial = configured(Sweep::over(metric_grid()))
        .checkpoint(&path)
        .run_budget(5)
        // One worker: a pool's in-flight speculative trials could outrun
        // the budget and complete the sweep anyway.
        .threads(1)
        .run_metrics(metric_trial)
        .unwrap();
    assert!(!partial.is_complete());

    let resumed = configured(Sweep::over(metric_grid()))
        .checkpoint(&path)
        .run_metrics(metric_trial)
        .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.to_json(), full.to_json());
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert_eq!(on_disk, full.to_json());
    let _ = std::fs::remove_file(&path);
}

/// The historical `dg-sweep/1` fingerprint of the PR-4-era golden
/// configuration, frozen: axes `n = [16, 32]`, `q = log(0.1..0.4, 2)`,
/// seed `0xD15E_A5E1`, adaptive 3–9 trials at 5% relative CI. The same
/// value is stored inside `tests/golden/v1_pr4_capless.json`; this pin
/// fails even if the golden corpus is regenerated, so the hash function
/// itself cannot drift.
#[test]
fn historical_v1_fingerprint_is_frozen() {
    let spec = SweepSpec::new(
        vec![Axis::ints("n", [16, 32]), Axis::log("q", 0.1, 0.4, 2)],
        0xD15E_A5E1,
        TrialBudget::adaptive(3, 9, CiTarget::Relative(0.05)),
    );
    assert_eq!(spec.fingerprint(), 1000020295819098674);
    // And the v2 variant of the same spec hashes differently (the
    // format tag enters the hash), with its own frozen value.
    let v2 = spec.with_metrics(vec![
        Metric::new("rounds"),
        Metric::target("messages", CiTarget::Relative(0.2)),
        Metric::observe("coverage"),
    ]);
    assert_eq!(v2.fingerprint(), 901243192380759427);
}

/// The stopping rule spends trials per metric: a sweep whose `messages`
/// metric is noisy runs longer than the same sweep observing it, and
/// both shapes stay deterministic.
#[test]
fn gating_metrics_spend_trials_where_their_noise_is() {
    let noisy_messages = |cell: &Cell, trial: Trial| {
        vec![
            Some(10.0),
            Some(cell.get("q") * ((trial.seed % 1024) as f64)),
        ]
    };
    let run = |metrics: [Metric; 2]| {
        Sweep::over(
            Grid::new()
                .axis(Axis::ints("n", [16]))
                .axis(Axis::explicit("q", [1.0]))
                .metrics(metrics),
        )
        .budget(TrialBudget::adaptive(3, 64, CiTarget::Relative(0.05)))
        .base_seed(11)
        .run_metrics(noisy_messages)
        .unwrap()
    };
    let gated = run([Metric::new("rounds"), Metric::new("messages")]);
    let observed = run([Metric::new("rounds"), Metric::observe("messages")]);
    assert!(
        gated.total_trials() > observed.total_trials(),
        "gating on the noisy metric must cost trials: {} vs {}",
        gated.total_trials(),
        observed.total_trials()
    );
}
