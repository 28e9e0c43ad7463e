//! t20 — the price of observability.
//!
//! `dg-obs` promises zero perturbation *and* near-zero cost when idle.
//! This bench pins both halves with numbers:
//!
//! * **disabled overhead** — the t13 delta-churn hot loop (event-driven
//!   stepping + incremental adjacency apply) raw vs the same loop with
//!   a disabled-registry span timer and counter on every round
//!   ([`dg_bench::guard_overhead`]). The guard *asserts* the min-time
//!   ratio stays within noise — in quick mode too, so CI catches a
//!   regression that makes the off-switch expensive.
//! * **enabled overhead** — end-to-end engine flooding batches with
//!   recording off vs on (span timers around every round phase, trial
//!   counters, the works), asserted byte-identical and timed.
//!
//! Writes `BENCH_obs.json` at the repository root (quick mode:
//! `target/BENCH_obs_quick.json`).

use std::time::Instant;

use dg_bench::{fixed, obj, GUARD_RATIO_MAX};
use dg_edge_meg::SparseTwoStateEdgeMeg;
use dynagraph::engine::Simulation;

struct EngineOverhead {
    n: usize,
    q: f64,
    trials: usize,
    off_ms: f64,
    on_ms: f64,
    ratio: f64,
}

/// Times an engine flooding batch with recording off, then on, and
/// asserts the reports byte-identical — the perturbation pin riding
/// along in the perf record.
fn bench_engine(n: usize, q: f64, trials: usize, max_rounds: u32) -> EngineOverhead {
    let run = || {
        Simulation::builder()
            .model(move |seed| {
                SparseTwoStateEdgeMeg::stationary(n, 1.5 / n as f64, q, seed).unwrap()
            })
            .trials(trials)
            .max_rounds(max_rounds)
            .base_seed(0xB520)
            .run()
    };
    dg_obs::set_enabled(false);
    let start = Instant::now();
    let off = run();
    let off_ms = start.elapsed().as_secs_f64() * 1e3;

    dg_obs::set_enabled(true);
    let start = Instant::now();
    let on = run();
    let on_ms = start.elapsed().as_secs_f64() * 1e3;
    dg_obs::set_enabled(false);

    assert_eq!(off, on, "instrumentation perturbed the records");
    EngineOverhead {
        n,
        q,
        trials,
        off_ms,
        on_ms,
        ratio: on_ms / off_ms,
    }
}

fn main() {
    let quick = dg_bench::quick_mode();
    dg_obs::set_enabled(false);

    // The disabled guard: one `Histogram::start` (a relaxed load, no
    // `Instant`) and one `Counter::add` (another relaxed load) per round.
    assert!(!dg_obs::enabled(), "guard must run with recording off");
    let span_hist = dg_obs::Registry::global().histogram(
        "t20_guard_seconds",
        &dg_obs::exponential_bounds(1e-9, 10.0, 10),
    );
    let churn_counter = dg_obs::Registry::global().counter("t20_guard_churn_total");
    let overhead = dg_bench::guard_overhead(0xB513, |churn| {
        let _span = span_hist.start();
        churn_counter.add(churn as u64);
    });
    println!("disabled guard {}", overhead.row());
    // Recording was off: nothing may have landed in the registry.
    assert_eq!(
        dg_obs::Registry::global().counter_value("t20_guard_churn_total"),
        Some(0),
        "disabled counter recorded"
    );
    assert!(
        overhead.ratio <= GUARD_RATIO_MAX,
        "disabled-instrumentation overhead {:.3} exceeds {GUARD_RATIO_MAX}",
        overhead.ratio
    );

    let engine_cases: &[(usize, f64, usize, u32)] = if quick {
        &[(256, 0.2, 8, 20_000)]
    } else {
        &[(1024, 0.2, 24, 100_000), (4096, 0.05, 8, 100_000)]
    };
    let mut engine = Vec::new();
    for &(n, q, trials, max_rounds) in engine_cases {
        let r = bench_engine(n, q, trials, max_rounds);
        println!(
            "engine flooding n={:>5} q={:<5} {:>3} trials   off {:>8.1} ms   on {:>8.1} ms   ratio {:.3}   (byte-identical)",
            r.n, r.q, r.trials, r.off_ms, r.on_ms, r.ratio
        );
        engine.push(r);
    }
    // The instrumented runs really recorded: every round landed one
    // sample in the model-step phase histogram.
    let spans = dg_obs::Registry::global()
        .histogram_snapshot("dg_engine_round_phase_seconds{phase=\"model_step\"}")
        .map_or(0, |s| s.count);
    assert!(spans > 0, "instrumented runs recorded no spans");
    println!("recorded model-step spans: {spans}");

    dg_bench::Record::new(
        env!("CARGO_CRATE_NAME"),
        "obs",
        "cost of dg-obs instrumentation: disabled-registry guard on the delta-churn hot loop, and instrumented vs uninstrumented engine flooding batches (asserted byte-identical)",
    )
    .object("disabled_guard", overhead.row())
    .rows("engine", engine.iter().map(|r| obj! {
        "model": "sparse-two-state-edge-meg", "protocol": "flooding", "n": r.n, "q": r.q,
        "trials": r.trials, "off_ms": fixed(r.off_ms, 2), "on_ms": fixed(r.on_ms, 2),
        "ratio": fixed(r.ratio, 4),
    }))
    .object("headline", obj! {
        "byte_identical_on_vs_off": true, "disabled_guard_ratio": fixed(overhead.ratio, 4),
        "recorded_model_step_spans": spans,
    })
    .write();
}
