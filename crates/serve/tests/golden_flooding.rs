//! Golden `flooding/1` artifacts: the exact bytes the flooding workload
//! produced for stored specs, checked in and pinned byte for byte.
//!
//! Every cell with `n` at or below the sharding threshold runs on the
//! exact-scan edge-MEG, whose realizations are part of the store's
//! contract: an artifact a daemon stored must regenerate to the same
//! bytes under every later build. The in-crate fingerprint pins stop at
//! `n = 128`; these files cover the served benchmark cell (`n = 4096`,
//! `q = 0.01`) and small grids whose slow cells flood in tens to hundreds
//! of rounds, with birth or death rates equal to one (the no-draw
//! branch) and small ones.

use dg_serve::Workload;
use dg_sweep::{Axis, SweepSpec, TrialBudget};

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

fn run(spec: &SweepSpec) -> String {
    let report = spec
        .sweep()
        .run(Workload::flooding().trial_fn())
        .expect("flooding sweep runs");
    assert!(report.is_complete());
    report.to_json()
}

fn assert_golden(name: &str, spec: &SweepSpec) {
    let path = golden_dir().join(name);
    let stored =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        run(spec) == stored,
        "{name}: the flooding workload no longer reproduces its stored artifact bytes"
    );
}

#[test]
fn miss_cell_artifact_is_byte_identical() {
    assert_golden("flooding_n4096_q0.01.json", &miss_cell_spec());
}

#[test]
fn small_grid_artifact_is_byte_identical() {
    assert_golden("flooding_small_grid.json", &small_grid_spec());
}

#[test]
fn birth_rate_one_artifact_is_byte_identical() {
    assert_golden("flooding_p1.json", &birth_rate_one_spec());
}

/// Regenerates the stored artifacts. They must never change, so running
/// this is only ever a no-op diff; it documents how each file was
/// produced.
#[test]
#[ignore = "writes tests/golden/; run manually to (re)produce the artifacts"]
fn regenerate_golden_flooding() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("flooding_n4096_q0.01.json"),
        run(&miss_cell_spec()),
    )
    .unwrap();
    std::fs::write(
        dir.join("flooding_small_grid.json"),
        run(&small_grid_spec()),
    )
    .unwrap();
    std::fs::write(dir.join("flooding_p1.json"), run(&birth_rate_one_spec())).unwrap();
}
