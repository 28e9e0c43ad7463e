//! Golden flooding artifacts: the exact bytes both flooding workloads
//! produce for stored specs, checked in and pinned byte for byte.
//!
//! **`flooding/1`** ([`Workload::flooding_v1`]). Every cell with `n` at
//! or below the sharding threshold runs on the exact-scan edge-MEG,
//! whose realizations are part of the store's contract: an artifact a
//! daemon stored must regenerate to the same bytes under every later
//! build. The in-crate fingerprint pins stop at `n = 128`; these files
//! cover the served benchmark cell (`n = 4096`, `q = 0.01`) and small
//! grids whose slow cells flood in tens to hundreds of rounds, with
//! birth or death rates equal to one (the no-draw branch) and small
//! ones.
//!
//! **`flooding/2`** ([`Workload::flooding`], the default). Every cell
//! runs on the lane model. Its files (`flooding2_*.json`) pin the served
//! cell, a slow-churn grid, the small grid above and the birth-rate-one
//! grid, so a stream drift in the lane model shows up as a diff in
//! served bytes, not only in the model's own pins. The served cell
//! floods in exactly 3 rounds and every birth-rate-one cell in 2 on
//! every trial of either workload, and so do the small grid's dense
//! `p = 0.05, q = 0.02` cells, so `flooding/2` also records those specs
//! with the message count, which does depend on the realization.

use dg_serve::Workload;
use dg_sweep::{Axis, Metric, SweepSpec, TrialBudget};

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The served miss cell: `n = 4096`, `q = 0.01`, the paper's sparse
/// default `p = 1.5/n`, two trials.
fn miss_cell_spec() -> SweepSpec {
    SweepSpec::new(
        vec![Axis::ints("n", [4096]), Axis::explicit("q", [0.01])],
        0x00F1_00D5_EED5,
        TrialBudget::fixed(2),
    )
}

/// A small grid with an explicit `p` axis: fast dense cells, `q = 1`
/// cells, and sparse slow-churn cells whose floods take tens to hundreds
/// of rounds.
fn small_grid_spec() -> SweepSpec {
    SweepSpec::new(
        vec![
            Axis::ints("n", [48, 200, 512]),
            Axis::explicit("q", [0.02, 1.0]),
            Axis::explicit("p", [0.0005, 0.05]),
        ],
        0x5A11_C0DE,
        TrialBudget::fixed(3),
    )
}

/// `p = 1`: every off edge turns on the next round, so the birth side
/// never draws. (`p = q = 1` is periodic, not a valid chain.)
fn birth_rate_one_spec() -> SweepSpec {
    SweepSpec::new(
        vec![
            Axis::ints("n", [48, 512]),
            Axis::explicit("q", [0.3, 0.9]),
            Axis::explicit("p", [1.0]),
        ],
        0xB1_27E1,
        TrialBudget::fixed(2),
    )
}

/// The served miss cell with a message-count metric beside the
/// flooding time.
fn miss_cell_metrics_spec() -> SweepSpec {
    miss_cell_spec().with_metrics(vec![Metric::new("rounds"), Metric::observe("messages")])
}

/// The small grid with a message-count metric beside the flooding time:
/// its dense cells flood in 2 rounds on either model, so only the count
/// pins their realizations.
fn small_grid_metrics_spec() -> SweepSpec {
    small_grid_spec().with_metrics(vec![Metric::new("rounds"), Metric::observe("messages")])
}

/// The birth-rate-one grid with a message-count metric beside the
/// flooding time.
fn birth_rate_one_metrics_spec() -> SweepSpec {
    birth_rate_one_spec().with_metrics(vec![Metric::new("rounds"), Metric::observe("messages")])
}

/// A slow-churn grid for `flooding/2`: sparse stationary graphs whose
/// edges live tens of rounds, so floods wait on births.
fn slow_churn_spec() -> SweepSpec {
    SweepSpec::new(
        vec![
            Axis::ints("n", [64, 512]),
            Axis::explicit("q", [0.02, 0.1]),
            Axis::explicit("p", [0.0005, 0.002]),
        ],
        0x5_10C4_0C4E,
        TrialBudget::fixed(3),
    )
}

fn run(workload: &Workload, spec: &SweepSpec) -> String {
    let sweep = spec.sweep();
    let report = match spec.metrics() {
        Some(metrics) => sweep.run_metrics(workload.metric_trial_fn(metrics.to_vec())),
        None => sweep.run(workload.trial_fn()),
    }
    .expect("flooding sweep runs");
    assert!(report.is_complete());
    report.to_json()
}

fn assert_golden(workload: &Workload, name: &str, spec: &SweepSpec) {
    let path = golden_dir().join(name);
    let stored =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        run(workload, spec) == stored,
        "{name}: the {} workload no longer reproduces its stored artifact bytes",
        workload.name()
    );
}

#[test]
fn miss_cell_artifact_is_byte_identical() {
    assert_golden(
        &Workload::flooding_v1(),
        "flooding_n4096_q0.01.json",
        &miss_cell_spec(),
    );
}

#[test]
fn small_grid_artifact_is_byte_identical() {
    assert_golden(
        &Workload::flooding_v1(),
        "flooding_small_grid.json",
        &small_grid_spec(),
    );
}

#[test]
fn birth_rate_one_artifact_is_byte_identical() {
    assert_golden(
        &Workload::flooding_v1(),
        "flooding_p1.json",
        &birth_rate_one_spec(),
    );
}

#[test]
fn v2_miss_cell_artifact_is_byte_identical() {
    assert_golden(
        &Workload::flooding(),
        "flooding2_n4096_q0.01.json",
        &miss_cell_metrics_spec(),
    );
}

#[test]
fn v2_slow_churn_artifact_is_byte_identical() {
    assert_golden(
        &Workload::flooding(),
        "flooding2_slow_churn.json",
        &slow_churn_spec(),
    );
}

#[test]
fn v2_small_grid_artifact_is_byte_identical() {
    assert_golden(
        &Workload::flooding(),
        "flooding2_small_grid.json",
        &small_grid_metrics_spec(),
    );
}

#[test]
fn v2_birth_rate_one_artifact_is_byte_identical() {
    assert_golden(
        &Workload::flooding(),
        "flooding2_p1.json",
        &birth_rate_one_metrics_spec(),
    );
}

/// Regenerates the stored artifacts. They must never change, so running
/// this is only ever a no-op diff; it documents how each file was
/// produced.
#[test]
#[ignore = "writes tests/golden/; run manually to (re)produce the artifacts"]
fn regenerate_golden_flooding() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let (v1, v2) = (Workload::flooding_v1(), Workload::flooding());
    let files = [
        (&v1, "flooding_n4096_q0.01.json", miss_cell_spec()),
        (&v1, "flooding_small_grid.json", small_grid_spec()),
        (&v1, "flooding_p1.json", birth_rate_one_spec()),
        (&v2, "flooding2_n4096_q0.01.json", miss_cell_metrics_spec()),
        (&v2, "flooding2_slow_churn.json", slow_churn_spec()),
        (&v2, "flooding2_small_grid.json", small_grid_metrics_spec()),
        (&v2, "flooding2_p1.json", birth_rate_one_metrics_spec()),
    ];
    for (workload, name, spec) in files {
        std::fs::write(dir.join(name), run(workload, &spec)).unwrap();
    }
}
