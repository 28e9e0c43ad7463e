//! Scan ≡ adjacency: the lane executor's scan rounds against its
//! adjacency rounds and the serial oracles.
//!
//! Flooding over a lane model under `Stepping::Auto` starts with scan
//! rounds (each lane scans its own on-set; no delta, no adjacency) and
//! may switch once to adjacency rounds. Neither the round kind, the
//! switch, nor the shard count may change a record: the serial
//! `Stepping::Delta` and `Stepping::Snapshot` loops at one shard stay
//! the oracles, and `flood_sharded` must equal `flood`. Observers that
//! read snapshots or deltas get adjacency rounds from round 1 and must
//! see exactly what the serial delta path shows them.

use proptest::prelude::*;

use dg_edge_meg::ShardedSparseEdgeMeg;
use dynagraph::engine::{ChurnObserver, Observer, RoundCtx, Simulation, Stepping};
use dynagraph::flooding::{flood, flood_sharded};
use dynagraph::shard::ADJ_EDGE_COST;
use dynagraph::{EvolvingGraph, Shards};

/// A birth or death rate, by kind: slow (`~1e-5`), the sparse regime
/// (`Θ(1/n)`), moderate, fast (up to `0.9`).
fn rate(kind: u32, x: f64, n: usize) -> f64 {
    match kind {
        0 => 1e-5 + x * 1e-4,
        1 => (0.5 + 2.5 * x) / n as f64,
        2 => 0.01 + 0.2 * x,
        _ => 0.3 + 0.6 * x,
    }
}

fn builder(
    n: usize,
    p: f64,
    q: f64,
    cap: u32,
) -> dynagraph::engine::SimulationBuilder<
    impl Fn(u64) -> ShardedSparseEdgeMeg + Clone + Sync,
    dynagraph::engine::Flooding,
    fn(usize),
> {
    Simulation::builder()
        .model(move |seed| ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap())
        .trials(2)
        .max_rounds(cap)
        .base_seed(0x5CA7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn records_agree_across_stepping_and_shards(
        n in 2usize..600,
        kinds in (0u32..4, 0u32..4),
        xs in (0.0f64..1.0, 0.0f64..1.0),
        seed in any::<u64>(),
        shards_pick in 0usize..4,
    ) {
        let (p, q) = (rate(kinds.0, xs.0, n), rate(kinds.1, xs.1, n));
        let shards = [1usize, 2, 3, 8][shards_pick];
        let cap = 400;
        let build = || builder(n, p, q, cap).base_seed(seed);
        let snapshot = build().stepping(Stepping::Snapshot).run();
        let delta = build().stepping(Stepping::Delta).run();
        prop_assert_eq!(&snapshot, &delta);
        for stepping in [Stepping::Auto, Stepping::Delta] {
            let lane = build().stepping(stepping).shards(shards).run();
            prop_assert_eq!(&lane, &delta, "{:?} at {} shards", stepping, shards);
        }
        // Model reuse across trials must not leak round kinds.
        let b = build().shards(shards);
        let fresh: Vec<_> = (0..2).map(|i| b.run_trial(i)).collect();
        prop_assert_eq!(fresh.as_slice(), delta.records());
    }

    #[test]
    fn flood_sharded_equals_flood(
        n in 2usize..600,
        kinds in (0u32..4, 0u32..4),
        xs in (0.0f64..1.0, 0.0f64..1.0),
        seed in any::<u64>(),
        shards_pick in 0usize..4,
    ) {
        let (p, q) = (rate(kinds.0, xs.0, n), rate(kinds.1, xs.1, n));
        let shards = [1usize, 2, 3, 8][shards_pick];
        let source = (seed % n as u64) as u32;
        let mut g = ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap();
        let serial = flood(&mut g, source, 400);
        g.reset(seed);
        let lane = flood_sharded(&mut g, source, 400, Shards::Fixed(shards));
        prop_assert_eq!(serial, lane);
    }
}

#[test]
fn rate_one_records_agree_across_stepping_and_shards() {
    // The no-draw branches (birth or death rate 1), which the rate kinds
    // above never reach.
    for (n, p, q) in [
        (48, 1.0, 0.3),
        (200, 1.0, 0.9),
        (48, 0.05, 1.0),
        (200, 0.02, 1.0),
    ] {
        let build = || builder(n, p, q, 400).base_seed(0x0A7E);
        let delta = build().stepping(Stepping::Delta).run();
        assert_eq!(build().stepping(Stepping::Snapshot).run(), delta);
        for shards in [1usize, 3] {
            for stepping in [Stepping::Auto, Stepping::Delta] {
                let lane = build().stepping(stepping).shards(shards).run();
                assert_eq!(
                    lane, delta,
                    "n = {n}, p = {p}, q = {q}: {stepping:?} at {shards}"
                );
            }
        }
        let mut g = ShardedSparseEdgeMeg::stationary(n, p, q, 7).unwrap();
        let serial = flood(&mut g, 3, 400);
        g.reset(7);
        assert_eq!(flood_sharded(&mut g, 3, 400, Shards::Fixed(3)), serial);
    }
}

/// One observed round: round, newly informed (sorted: the order is
/// path-dependent by contract), informed count, messages, delta
/// added/removed lengths, snapshot edge count.
type RoundSeen = (
    u32,
    Vec<u32>,
    usize,
    u64,
    Option<(usize, usize)>,
    Option<usize>,
);

fn seen(ctx: &RoundCtx<'_>) -> RoundSeen {
    let mut newly = ctx.newly_informed.to_vec();
    newly.sort_unstable();
    (
        ctx.round,
        newly,
        ctx.informed_count,
        ctx.messages,
        ctx.delta.map(|d| (d.added().len(), d.removed().len())),
        ctx.snapshot.map(|s| s.edge_count()),
    )
}

/// Records every round; asks for snapshots, deltas, or neither.
#[derive(Default)]
struct Trace {
    snapshots: bool,
    deltas: bool,
    rounds: Vec<RoundSeen>,
}

impl Observer for Trace {
    fn needs_snapshots(&self) -> bool {
        self.snapshots
    }
    fn needs_deltas(&self) -> bool {
        self.deltas
    }
    fn on_round(&mut self, ctx: &RoundCtx<'_>) {
        self.rounds.push(seen(ctx));
    }
}

#[test]
fn observers_needing_snapshots_or_deltas_see_identical_rounds() {
    for (n, p, q) in [(384, 1.5 / 384.0, 0.3), (200, 1e-4, 2e-3), (96, 0.05, 0.6)] {
        for (snapshots, deltas) in [(true, false), (false, true), (true, true)] {
            let run = |stepping: Stepping, shards: usize| {
                builder(n, p, q, 800)
                    .stepping(stepping)
                    .shards(shards)
                    .observers(move |_| Trace {
                        snapshots,
                        deltas,
                        ..Trace::default()
                    })
                    .run_observed()
            };
            let (oracle, oracle_obs) = run(Stepping::Delta, 1);
            for shards in [1usize, 2, 3, 8] {
                let (report, obs) = run(Stepping::Auto, shards);
                assert_eq!(report, oracle, "n {n}, {shards} shards");
                for (a, b) in oracle_obs.iter().zip(&obs) {
                    assert_eq!(a.rounds, b.rounds, "n {n}, {shards} shards");
                }
            }
        }
    }
}

#[test]
fn churn_observer_gets_a_delta_every_round() {
    let (_, observers) = builder(300, 2e-4, 2e-3, 300)
        .shards(2)
        .observers(|_| ChurnObserver::new())
        .run_observed();
    for obs in &observers {
        assert_eq!(obs.rounds_without_delta(), 0);
        assert_eq!(obs.initial_edges().len(), 1);
    }
}

#[test]
fn slow_churn_switches_to_adjacency_rounds_mid_trial() {
    // n = 600, p = 1e-5, q = 1e-3: ~18 edges' churn per 1 800-edge round
    // and a sparse graph, so floods run far past W + 1 rounds. A
    // non-declaring observer sees `delta: None` on scan rounds, then a
    // full emission and churn deltas once the executor switches.
    let (n, p, q) = (600, 1e-5, 1e-3);
    let cap = 400;
    let mut switched_trials = 0;
    for shards in [1usize, 2, 3, 8] {
        let run = |stepping: Stepping| {
            builder(n, p, q, cap)
                .stepping(stepping)
                .shards(shards)
                .observers(|_| Trace::default())
                .run_observed()
        };
        let (oracle, _) = run(Stepping::Delta);
        let (report, obs) = run(Stepping::Auto);
        assert_eq!(report, oracle, "{shards} shards");
        for (record, trace) in report.records().iter().zip(&obs) {
            let kinds: Vec<bool> = trace.rounds.iter().map(|r| r.4.is_some()).collect();
            let switch = kinds.iter().position(|&d| d);
            if record.rounds > ADJ_EDGE_COST as u32 + 1 {
                let at = switch.expect("a long slow-churn trial switches");
                assert!(at >= 1, "trial starts with a scan round");
                assert!(
                    at <= ADJ_EDGE_COST as usize + 1,
                    "switched after {at} rounds"
                );
                assert!(kinds[at..].iter().all(|&d| d), "at most one switch");
                // The first adjacency round is a full emission.
                assert_eq!(trace.rounds[at].4.map(|d| d.1), Some(0));
                switched_trials += 1;
            }
        }
    }
    assert!(switched_trials >= 8, "only {switched_trials} long trials");
}
