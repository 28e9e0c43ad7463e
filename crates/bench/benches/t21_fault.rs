//! t21 — the price of fault-injection hooks.
//!
//! `dg-fault` follows the `dg-obs` bargain: compiled in everywhere,
//! free when disarmed. This bench pins both halves with numbers:
//!
//! * **disarmed overhead** — the t13 delta-churn hot loop raw vs the
//!   same loop with a disarmed [`dg_fault::should_fail`] probe on every
//!   round ([`dg_bench::guard_overhead`]). The guard *asserts* the
//!   min-time ratio stays within noise — in quick mode too, so CI
//!   catches a regression that makes the off-switch expensive — and
//!   that zero faults were injected.
//! * **recovery identity** — a sweep run clean vs the same sweep under
//!   an armed plan (trial panics retried, checkpoint write faults), the
//!   artifacts asserted byte-identical and both timed. Fault *recovery*
//!   costs time; it must never cost correctness.
//!
//! Writes `BENCH_fault.json` at the repository root (quick mode:
//! `target/BENCH_fault_quick.json`).

use std::time::Instant;

use dg_bench::{fixed, obj, GUARD_RATIO_MAX};
use dg_fault::FaultPlan;
use dg_sweep::{Axis, Grid, Sweep, TrialBudget, TrialPanic};

struct RecoveryOverhead {
    cells: usize,
    trials_per_cell: usize,
    injected: u64,
    clean_ms: f64,
    faulted_ms: f64,
    ratio: f64,
}

/// Times a sweep clean vs the same sweep recovering from injected trial
/// panics and checkpoint write faults, asserting byte identity — the
/// chaos pin riding along in the perf record.
fn bench_recovery(cells_per_axis: usize, trials: usize) -> RecoveryOverhead {
    let grid = || {
        Grid::new()
            .axis(Axis::ints("n", 1..=cells_per_axis))
            .axis(Axis::linear("q", 0.1, 0.4, 3))
    };
    let sweep = || {
        Sweep::over(grid())
            .budget(TrialBudget::fixed(trials))
            .base_seed(0xB52F)
    };
    let measure = |cell: &dg_sweep::Cell, seed: u64| -> Option<f64> {
        // A deterministic stand-in trial heavy enough to dwarf scheduler
        // cost: a short splitmix-style scramble of the cell coordinates.
        let mut z = seed ^ (cell.get("n") as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for _ in 0..512 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        Some(cell.get("q") + (z % 101) as f64)
    };
    let path = std::env::temp_dir().join(format!("dg_t21_fault_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let start = Instant::now();
    let clean = sweep()
        .checkpoint(&path)
        .run(|c, t| measure(c, t.seed))
        .unwrap();
    let clean_ms = start.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&path);

    let before = dg_fault::injected_total();
    // The injected panics are caught by the retry loop; keep the default
    // hook from spraying backtraces into the bench output while they fly.
    std::panic::set_hook(Box::new(|_| {}));
    let start = Instant::now();
    let faulted = {
        let _plan = dg_fault::scoped(
            FaultPlan::new(0xB52F)
                .always("sweep.trial.panic", 8)
                .always("store.write.err", 2),
        );
        sweep()
            .checkpoint(&path)
            .on_trial_panic(TrialPanic::Retry { max: 8 })
            .run(|c, t| measure(c, t.seed))
            .unwrap()
    };
    let faulted_ms = start.elapsed().as_secs_f64() * 1e3;
    let _ = std::panic::take_hook();
    let injected = dg_fault::injected_total() - before;
    assert!(injected >= 10, "the plan must actually have fired");
    assert_eq!(
        faulted.to_json(),
        clean.to_json(),
        "fault recovery perturbed the artifact"
    );
    let _ = std::fs::remove_file(&path);

    RecoveryOverhead {
        cells: clean.cells().len(),
        trials_per_cell: trials,
        injected,
        clean_ms,
        faulted_ms,
        ratio: faulted_ms / clean_ms,
    }
}

fn main() {
    let quick = dg_bench::quick_mode();
    dg_fault::set_plan(None);

    // The disarmed guard: one `should_fail` probe (a relaxed load) per
    // round, which must inject nothing.
    assert!(!dg_fault::enabled(), "guard must run with no plan armed");
    let before = dg_fault::injected_total();
    let overhead = dg_bench::guard_overhead(0xB521, |_| {
        assert!(!dg_fault::should_fail("bench.hot.loop"));
    });
    println!("disarmed guard {}", overhead.row());
    assert_eq!(
        dg_fault::injected_total(),
        before,
        "disarmed probes must inject nothing"
    );
    assert!(
        overhead.ratio <= GUARD_RATIO_MAX,
        "disarmed fault-hook overhead {:.3} exceeds {GUARD_RATIO_MAX}",
        overhead.ratio
    );

    let recovery = if quick {
        bench_recovery(8, 8)
    } else {
        bench_recovery(48, 24)
    };
    println!(
        "recovery sweep {:>4} cells x{:>3} trials   clean {:>8.1} ms   faulted {:>8.1} ms ({} injected)   ratio {:.3}   (byte-identical)",
        recovery.cells, recovery.trials_per_cell, recovery.clean_ms, recovery.faulted_ms,
        recovery.injected, recovery.ratio
    );

    dg_bench::Record::new(
        env!("CARGO_CRATE_NAME"),
        "fault",
        "cost of dg-fault hooks: disarmed-probe guard on the delta-churn hot loop, and a sweep recovering from injected trial panics + checkpoint write faults vs the same sweep clean (asserted byte-identical)",
    )
    .object("disarmed_guard", overhead.row())
    .object("recovery", obj! {
        "cells": recovery.cells, "trials_per_cell": recovery.trials_per_cell,
        "injected_faults": recovery.injected, "clean_ms": fixed(recovery.clean_ms, 2),
        "faulted_ms": fixed(recovery.faulted_ms, 2), "ratio": fixed(recovery.ratio, 4),
        "byte_identical": true,
    })
    .object("headline", obj! {
        "disarmed_guard_ratio": fixed(overhead.ratio, 4),
        "recovery_ratio": fixed(recovery.ratio, 4),
    })
    .write();
}
