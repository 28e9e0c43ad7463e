//! t18 — intra-trial sharding: what the lane-sharded executor buys on a
//! single large flood trial, and proof it buys it without changing a
//! byte.
//!
//! One workload at two scales: a stationary-sparse edge-MEG
//! (`p = 1.5/n`, `q = 0.5`) flooded from node 0 through the engine, run
//! on the serial delta path (`Stepping::Delta`, one shard — the
//! oracle), on the lane executor on one thread (`.shards(1)`, scan
//! rounds) and on `k` threads (`.shards(k)` for several `k`). Every
//! report is asserted equal to the serial delta one — records including
//! message counts — *before* any timing is trusted.
//!
//! The speedup assertion is gated on the machine actually having cores:
//! on a single-core box the sharded path degenerates to threads = 1
//! scheduling overhead and the honest result is ~1.0x. The committed
//! `BENCH_shard.json` records the core count alongside every number so
//! the artifact says what hardware produced it.
//!
//! Writes `BENCH_shard.json` at the repository root (quick mode:
//! `target/BENCH_shard_quick.json`).

use std::time::Instant;

use dg_bench::{fixed, obj};
use dg_edge_meg::ShardedSparseEdgeMeg;
use dynagraph::engine::{Simulation, SimulationReport, Stepping};

/// Shard counts measured against the serial baseline.
const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

/// Best-of-`reps` wall time for one engine batch at `shards`.
fn measure(
    n: usize,
    trials: usize,
    reps: usize,
    shards: usize,
    stepping: Stepping,
) -> (SimulationReport, f64) {
    let build = || {
        Simulation::builder()
            .model(move |seed| {
                ShardedSparseEdgeMeg::stationary(n, 1.5 / n as f64, 0.5, seed).unwrap()
            })
            .trials(trials)
            .max_rounds(200_000)
            .threads(1)
            .base_seed(0x7180)
            .stepping(stepping)
            .shards(shards)
    };
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = build().run();
        best = best.min(t0.elapsed().as_secs_f64());
        report = Some(r);
    }
    (report.unwrap(), best * 1e3 / trials as f64)
}

fn main() {
    let quick = dg_bench::quick_mode();
    let reps = if quick { 1 } else { 3 };
    let cores = dg_bench::cores();
    let scales: &[(usize, usize)] = if quick {
        &[(1 << 14, 2)] // (n, trials)
    } else {
        &[(1 << 17, 3), (1 << 20, 2)]
    };

    let mut rows = Vec::new();
    for &(n, trials) in scales {
        let (delta_report, delta_ms) = measure(n, trials, reps, 1, Stepping::Delta);
        let (serial_report, serial_ms) = measure(n, trials, reps, 1, Stepping::Auto);
        assert_eq!(
            delta_report, serial_report,
            "lane executor must be byte-identical to the serial delta path at n={n}"
        );
        println!(
            "n=2^{:<2} trials={trials}: serial delta {delta_ms:>9.1} ms/trial   lane, 1 shard {serial_ms:>9.1} ms/trial   {:.2}x",
            n.trailing_zeros(),
            delta_ms / serial_ms
        );
        let mut sharded_ms = Vec::new();
        for &k in &SHARD_COUNTS {
            let (report, ms) = measure(n, trials, reps, k, Stepping::Auto);
            assert_eq!(
                serial_report, report,
                "sharded run (k={k}) must be byte-identical to serial at n={n}"
            );
            println!(
                "n=2^{:<2} trials={trials}: serial {serial_ms:>9.1} ms/trial   {k} shards {ms:>9.1} ms/trial   {:.2}x",
                n.trailing_zeros(),
                serial_ms / ms
            );
            sharded_ms.push((k, ms));
        }
        rows.push((n, trials, delta_ms, serial_ms, sharded_ms));
    }

    // The honest claim: ≥3x at 8 shards is only a promise on hardware
    // with at least 8 cores. Elsewhere (notably 1-core CI runners) the
    // identity assertions above are the whole point of the smoke.
    if !quick && cores >= 8 {
        for (n, _, _, serial_ms, sharded) in &rows {
            let &(_, ms8) = sharded.iter().find(|(k, _)| *k == 8).unwrap();
            assert!(
                serial_ms / ms8 >= 3.0,
                "expected >=3x at 8 shards on {cores} cores, got {:.2}x at n={n}",
                serial_ms / ms8
            );
        }
    }

    dg_bench::Record::new(
        env!("CARGO_CRATE_NAME"),
        "shard",
        "intra-trial sharding: one flood trial on a stationary-sparse edge-MEG (p = 1.5/n, q = 0.5) on the lane executor — 64 fixed lanes of the u64 pair space advanced in parallel, each scanning its own on-edges against the informed set (scan rounds; at q = 0.5 churn outgrows the graph, so no trial switches to adjacency rounds), candidates committed over disjoint node ranges. delta = the serial delta path (Stepping::Delta, one shard), serial = the lane executor on one thread (.shards(1)), scan_speedup = delta / serial; every report is asserted equal to the delta one (records including message counts) before timing. On machines with fewer cores than shards the sharded numbers show scheduling overhead, not speedup; the cores field above says which reading applies.",
    )
    .rows("workloads", rows.iter().map(|(n, trials, delta_ms, serial_ms, sharded)| {
        let sharded: Vec<_> = sharded.iter().map(|(k, ms)| obj! {
            "shards": k, "ms_per_trial": fixed(*ms, 1), "speedup": fixed(serial_ms / ms, 3),
        }).collect();
        obj! {
            "model": "lane-sharded sparse edge-MEG", "n": n, "p": "1.5/n", "q": 0.5,
            "trials": trials,
            "delta_ms_per_trial": fixed(*delta_ms, 1), "serial_ms_per_trial": fixed(*serial_ms, 1),
            "scan_speedup": fixed(delta_ms / serial_ms, 3), "sharded": sharded,
        }
    }))
    .object("headline", obj! {
        "byte_identical_all_shard_counts": true, "speedup_assertion_active": !quick && cores >= 8,
    })
    .write();
}
