//! Integration: the unified engine's contracts.
//!
//! * determinism — same configuration ⇒ identical reports across runs,
//!   and parallel execution is byte-identical to serial;
//! * protocol equivalence — the engine's `Flooding`, `PushGossip` and
//!   `ParsimoniousFlooding` reproduce the test oracles
//!   (`support::flood_oracle`, `support::push_spread`,
//!   `support::parsimonious_flood`) trial for trial on both a static
//!   process and a genuinely dynamic edge-MEG;
//! * one flooding semantics — every flooding executor (`flooding::flood`,
//!   `flood_multi`, `flood_sharded`, and the engine's snapshot, delta and
//!   lane paths) matches `support::flood_oracle` node for node;
//! * observers stream what the run records say.

use dynspread::dg_edge_meg::{ShardedSparseEdgeMeg, SparseTwoStateEdgeMeg};
use dynspread::dg_graph::generators;
use dynspread::dynagraph::engine::{
    DelayObserver, MeanGrowthObserver, Observer, ParsimoniousFlooding, PushGossip, RoundCtx,
    Simulation, Stepping,
};
use dynspread::dynagraph::flooding::{flood, flood_multi, flood_sharded, FloodRun};
use dynspread::dynagraph::shard::ADJ_EDGE_COST;
use dynspread::dynagraph::{
    mix_seed, EvolvingGraph, PeriodicEvolvingGraph, Shards, StaticEvolvingGraph,
};

mod support;
use support::{flood_oracle, parsimonious_flood, push_spread, OracleRun};

const BASE_SEED: u64 = 0xE16;
const TRIALS: usize = 12;
const MAX_ROUNDS: u32 = 200_000;

fn sparse_meg(seed: u64) -> SparseTwoStateEdgeMeg {
    let n = 96;
    SparseTwoStateEdgeMeg::stationary(n, 1.5 / n as f64, 0.4, seed).unwrap()
}

fn static_grid(_seed: u64) -> StaticEvolvingGraph {
    StaticEvolvingGraph::new(generators::grid(6, 6))
}

#[test]
fn parallel_and_serial_reports_are_byte_identical() {
    let run = |threads: usize| {
        Simulation::builder()
            .model(sparse_meg)
            .protocol(PushGossip::new(2))
            .trials(TRIALS)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
            .threads(threads)
            .run()
    };
    let par = run(4);
    let ser = run(1);
    assert_eq!(par, ser);
    // Byte-identical summaries, not just semantically equal ones.
    assert_eq!(format!("{par:?}"), format!("{ser:?}"));
}

#[test]
fn same_configuration_is_reproducible_across_runs() {
    let run = || {
        Simulation::builder()
            .model(sparse_meg)
            .trials(TRIALS)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert_eq!(a.incomplete(), 0);
    // A different base seed must actually change the outcome.
    let c = Simulation::builder()
        .model(sparse_meg)
        .trials(TRIALS)
        .max_rounds(MAX_ROUNDS)
        .base_seed(BASE_SEED + 1)
        .run();
    assert_ne!(a.times(), c.times());
}

#[test]
fn engine_flooding_matches_legacy_flood_on_static_graph() {
    let report = Simulation::builder()
        .model(static_grid)
        .trials(4)
        .max_rounds(100)
        .base_seed(BASE_SEED)
        .run();
    for rec in report.records() {
        let mut g = static_grid(rec.seed);
        let run = flood_oracle(&mut g, &[0], 100);
        assert_eq!(rec.time, run.flooding_time());
        assert_eq!(rec.informed, run.informed_count());
    }
}

#[test]
fn engine_flooding_matches_legacy_flood_on_edge_meg() {
    let warm = 16;
    let report = Simulation::builder()
        .model(sparse_meg)
        .trials(TRIALS)
        .max_rounds(MAX_ROUNDS)
        .warm_up(warm)
        .base_seed(BASE_SEED)
        .run();
    for (trial, rec) in report.records().iter().enumerate() {
        assert_eq!(rec.seed, mix_seed(BASE_SEED, trial as u64));
        let mut g = sparse_meg(rec.seed);
        g.warm_up(warm);
        let run = flood_oracle(&mut g, &[0], MAX_ROUNDS);
        assert_eq!(rec.time, run.flooding_time(), "trial {trial}");
        assert_eq!(rec.informed, run.informed_count(), "trial {trial}");
    }
}

#[test]
fn engine_push_gossip_matches_legacy_push_spread() {
    for fanout in [1usize, 3] {
        let report = Simulation::builder()
            .model(sparse_meg)
            .protocol(PushGossip::new(fanout))
            .trials(TRIALS)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
            .run();
        for rec in report.records() {
            let mut g = sparse_meg(rec.seed);
            let run = push_spread(&mut g, 0, fanout, MAX_ROUNDS, rec.seed);
            assert_eq!(rec.time, run.flooding_time(), "fanout {fanout}");
            assert_eq!(rec.informed, run.informed_count(), "fanout {fanout}");
        }
    }
}

#[test]
fn push_gossip_reservoir_is_byte_equivalent_on_high_degree_models() {
    // The fanout-aware virtual shuffle replaces an O(degree) buffer
    // copy; its RNG stream must be byte-identical, which shows as
    // identical records (messages included) across the legacy primitive
    // and both stepping paths. Degrees far above the fanout — dense
    // edge-MEG and a complete static graph — exercise the sampling
    // branch every round.
    let dense_meg = |seed: u64| ShardedSparseEdgeMeg::stationary(48, 0.6, 0.1, seed).unwrap();
    for fanout in [1usize, 2, 5] {
        let run = |stepping| {
            Simulation::builder()
                .model(dense_meg)
                .protocol(PushGossip::new(fanout))
                .trials(8)
                .max_rounds(MAX_ROUNDS)
                .base_seed(BASE_SEED ^ 0x9055)
                .stepping(stepping)
                .run()
        };
        let snapshot = run(Stepping::Snapshot);
        assert_eq!(snapshot, run(Stepping::Delta), "fanout {fanout}");
        for rec in snapshot.records() {
            let mut g = dense_meg(rec.seed);
            let legacy = push_spread(&mut g, 0, fanout, MAX_ROUNDS, rec.seed);
            assert_eq!(rec.time, legacy.flooding_time(), "fanout {fanout}");
        }
    }
    let complete = |_seed: u64| StaticEvolvingGraph::new(generators::complete(64));
    let report = Simulation::builder()
        .model(complete)
        .protocol(PushGossip::new(2))
        .trials(6)
        .max_rounds(10_000)
        .base_seed(BASE_SEED)
        .run();
    assert_eq!(report.incomplete(), 0);
    for rec in report.records() {
        let mut g = complete(rec.seed);
        let legacy = push_spread(&mut g, 0, 2, 10_000, rec.seed);
        assert_eq!(rec.time, legacy.flooding_time());
    }
}

#[test]
fn run_trial_hook_reproduces_batch_trials_on_both_paths() {
    // The sweep scheduler drives trials one at a time through
    // `run_trial`; each must equal the corresponding record of a batch
    // run, on the delta path (native model) and the snapshot path alike.
    for stepping in [Stepping::Snapshot, Stepping::Delta] {
        let builder = move || {
            Simulation::builder()
                .model(sparse_meg)
                .protocol(PushGossip::new(2))
                .max_rounds(MAX_ROUNDS)
                .base_seed(BASE_SEED ^ 0x7A1)
                .stepping(stepping)
        };
        let batch = builder().trials(5).run();
        for (i, rec) in batch.records().iter().enumerate() {
            assert_eq!(&builder().run_trial(i), rec, "{stepping:?} trial {i}");
        }
    }
}

#[test]
fn model_reuse_and_scratch_are_byte_identical_to_fresh_construction() {
    // The zero-rebuild pipeline: per-worker model reuse (reset between
    // trials) + reusable TrialScratch must reproduce the fresh-
    // allocation path record for record, on both stepping paths, for a
    // model with lazily grown internal state (the lane model's per-lane
    // occupancy maps) and under warm-up.
    let lazy_meg = |seed: u64| {
        let n = 96;
        ShardedSparseEdgeMeg::stationary(n, 1.5 / n as f64, 0.4, seed).unwrap()
    };
    for stepping in [Stepping::Snapshot, Stepping::Delta] {
        let builder = move || {
            Simulation::builder()
                .model(lazy_meg)
                .trials(8)
                .warm_up(12)
                .max_rounds(MAX_ROUNDS)
                .base_seed(BASE_SEED ^ 0x2E5)
                .stepping(stepping)
        };
        let b = builder();
        let fresh: Vec<_> = (0..8).map(|i| b.run_trial(i)).collect();
        assert_eq!(builder().run().records(), fresh, "{stepping:?}");

        // The opt-in handle external schedulers use: one model slot +
        // one scratch across all trials equals the stateless hook.
        let mut model = None;
        let mut scratch = dynspread::dynagraph::engine::TrialScratch::new();
        for (i, rec) in fresh.iter().enumerate() {
            assert_eq!(
                &b.run_trial_with(i, &mut model, &mut scratch),
                rec,
                "{stepping:?} trial {i}"
            );
        }
    }
}

#[test]
fn engine_parsimonious_matches_legacy_parsimonious_flood() {
    for ttl in [1u32, 3] {
        let report = Simulation::builder()
            .model(sparse_meg)
            .protocol(ParsimoniousFlooding::new(ttl))
            .trials(TRIALS)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
            .run();
        for rec in report.records() {
            let mut g = sparse_meg(rec.seed);
            let run = parsimonious_flood(&mut g, 0, ttl, MAX_ROUNDS);
            assert_eq!(rec.time, run.flooding_time(), "ttl {ttl}");
            assert_eq!(rec.informed, run.informed_count(), "ttl {ttl}");
            // The engine stops as soon as the relays expire, like the
            // legacy loop: executed rounds track the recorded curve.
            assert_eq!(rec.rounds as usize + 1, run.sizes().len(), "ttl {ttl}");
        }
    }
}

#[test]
fn engine_multi_source_matches_legacy_flood_multi() {
    let sources = [0u32, 17, 42];
    let report = Simulation::builder()
        .model(sparse_meg)
        .sources(sources)
        .trials(6)
        .max_rounds(MAX_ROUNDS)
        .base_seed(BASE_SEED)
        .run();
    for rec in report.records() {
        let mut g = sparse_meg(rec.seed);
        let run = flood_oracle(&mut g, &sources, MAX_ROUNDS);
        assert_eq!(rec.time, run.flooding_time());
    }
}

/// What one engine flooding trial showed its observer: the informed
/// rounds and `|I_t|` rebuilt from the round callbacks, and the kind of
/// each round (`true` once a round carries a delta).
#[derive(Default)]
struct FloodTrace {
    informed_at: Vec<u32>,
    sizes: Vec<u32>,
    delta_rounds: Vec<bool>,
}

impl Observer for FloodTrace {
    fn on_trial_start(&mut self, _trial: usize, n: usize, sources: &[u32]) {
        self.informed_at = vec![FloodRun::UNINFORMED; n];
        for &s in sources {
            self.informed_at[s as usize] = 0;
        }
        self.sizes = vec![sources.len() as u32];
    }

    fn on_round(&mut self, ctx: &RoundCtx<'_>) {
        for &v in ctx.newly_informed {
            self.informed_at[v as usize] = ctx.round;
        }
        self.sizes.push(ctx.informed_count as u32);
        self.delta_rounds.push(ctx.delta.is_some());
    }
}

/// Pins every flooding executor on `make`'s first three trial seeds to
/// `flood_oracle`: `flood` and `flood_sharded` at 1 and 3 shards (single
/// source only), `flood_multi`, and the engine under `Snapshot`, `Delta`
/// and `Auto` at one shard plus `Auto` at three. Returns how many `Auto`
/// trials started with scan rounds and switched to adjacency rounds.
fn check_flood_executors<G, M>(name: &str, make: M, sources: &[u32], cap: u32) -> usize
where
    G: EvolvingGraph,
    M: Fn(u64) -> G + Sync,
{
    let trials = 3;
    let oracle = |seed: u64| flood_oracle(&mut make(seed), sources, cap);
    let same = |run: &FloodRun, want: &OracleRun, what: &str| {
        assert_eq!(run.informed_at(), want.informed_at(), "{name}: {what}");
        assert_eq!(run.sizes(), want.sizes(), "{name}: {what}");
        assert_eq!(run.flooding_time(), want.flooding_time(), "{name}: {what}");
    };
    for trial in 0..trials {
        let seed = mix_seed(BASE_SEED, trial);
        let want = oracle(seed);
        if let [source] = *sources {
            same(&flood(&mut make(seed), source, cap), &want, "flood");
            for shards in [1usize, 3] {
                let run = flood_sharded(&mut make(seed), source, cap, Shards::Fixed(shards));
                same(&run, &want, &format!("flood_sharded at {shards}"));
            }
        }
        same(
            &flood_multi(&mut make(seed), sources, cap),
            &want,
            "flood_multi",
        );
    }
    let mut switched = 0;
    for (stepping, shards) in [
        (Stepping::Snapshot, 1usize),
        (Stepping::Delta, 1),
        (Stepping::Auto, 1),
        (Stepping::Auto, 3),
    ] {
        let (report, traces) = Simulation::builder()
            .model(&make)
            .sources(sources.iter().copied())
            .trials(trials as usize)
            .max_rounds(cap)
            .base_seed(BASE_SEED)
            .stepping(stepping)
            .shards(shards)
            .observers(|_| FloodTrace::default())
            .run_observed();
        for (rec, trace) in report.records().iter().zip(&traces) {
            let what = format!("{stepping:?} at {shards}, trial {}", rec.trial);
            let want = oracle(rec.seed);
            assert_eq!(rec.time, want.flooding_time(), "{name}: {what}");
            assert_eq!(rec.informed, want.informed_count(), "{name}: {what}");
            assert_eq!(trace.informed_at, want.informed_at(), "{name}: {what}");
            assert_eq!(trace.sizes, want.sizes(), "{name}: {what}");
            let kinds = &trace.delta_rounds;
            if stepping == Stepping::Auto && kinds.first() == Some(&false) && kinds.contains(&true)
            {
                switched += 1;
            }
        }
    }
    switched
}

#[test]
fn every_flooding_executor_matches_flood_oracle() {
    // Two matchings of a 12-node path alternate: the frontier must
    // thread through both, and edges appear and vanish every round.
    let periodic = |_seed: u64| {
        let mut even = dynspread::dg_graph::GraphBuilder::new(12);
        even.add_edges((0..12).step_by(2).map(|u| (u, u + 1)))
            .unwrap();
        let mut odd = dynspread::dg_graph::GraphBuilder::new(12);
        odd.add_edges((1..11).step_by(2).map(|u| (u, u + 1)))
            .unwrap();
        PeriodicEvolvingGraph::new(&[even.build(), odd.build(), generators::star(12)]).unwrap()
    };
    let lane = |seed| ShardedSparseEdgeMeg::stationary(96, 1.5 / 96.0, 0.4, seed).unwrap();
    // Slow churn on a sparse graph: floods run far past the W + 1 scan
    // rounds after which the lane executor switches to adjacency rounds.
    let slow_lane = |seed| ShardedSparseEdgeMeg::stationary(600, 1e-5, 1e-3, seed).unwrap();

    check_flood_executors("static grid", static_grid, &[0], 100);
    check_flood_executors("static grid", static_grid, &[0, 35], 100);
    check_flood_executors("periodic", periodic, &[0], 100);
    check_flood_executors("periodic", periodic, &[0, 7], 100);
    check_flood_executors("exact scan", sparse_meg, &[0], MAX_ROUNDS);
    check_flood_executors("exact scan", sparse_meg, &[0, 17, 42], MAX_ROUNDS);
    check_flood_executors("lane", lane, &[0], MAX_ROUNDS);
    check_flood_executors("lane", lane, &[0, 17, 42], MAX_ROUNDS);
    let switched = check_flood_executors("slow lane", slow_lane, &[0], 400);
    assert!(
        switched > 0,
        "no slow-lane trial switched from scan to adjacency rounds (W = {ADJ_EDGE_COST})"
    );
}

#[test]
fn delta_path_matches_snapshot_path_for_flooding() {
    // The sparse edge-MEG is delta-native, so Stepping::Auto takes the
    // delta path; Stepping::Snapshot is the classic full-rebuild
    // pipeline. Records — times, informed counts, executed rounds, and
    // message tallies — must be byte-identical, serial and parallel.
    for threads in [1usize, 4] {
        let run = |stepping: Stepping| {
            Simulation::builder()
                .model(sparse_meg)
                .trials(TRIALS)
                .max_rounds(MAX_ROUNDS)
                .warm_up(8)
                .base_seed(BASE_SEED)
                .threads(threads)
                .stepping(stepping)
                .run()
        };
        let snapshot = run(Stepping::Snapshot);
        let delta = run(Stepping::Delta);
        let auto = run(Stepping::Auto);
        assert_eq!(snapshot, delta, "threads = {threads}");
        assert_eq!(snapshot, auto, "threads = {threads}");
        assert_eq!(snapshot.incomplete(), 0);
    }
}

#[test]
fn delta_path_matches_snapshot_path_for_push_gossip() {
    for threads in [1usize, 4] {
        let run = |stepping: Stepping| {
            Simulation::builder()
                .model(sparse_meg)
                .protocol(PushGossip::new(2))
                .trials(TRIALS)
                .max_rounds(MAX_ROUNDS)
                .base_seed(BASE_SEED)
                .threads(threads)
                .stepping(stepping)
                .run()
        };
        assert_eq!(
            run(Stepping::Snapshot),
            run(Stepping::Delta),
            "threads = {threads}"
        );
    }
}

#[test]
fn delta_path_matches_snapshot_path_for_parsimonious_flooding() {
    for threads in [1usize, 4] {
        for ttl in [1u32, 4] {
            let run = |stepping: Stepping| {
                Simulation::builder()
                    .model(sparse_meg)
                    .protocol(ParsimoniousFlooding::new(ttl))
                    .trials(TRIALS)
                    .max_rounds(MAX_ROUNDS)
                    .base_seed(BASE_SEED)
                    .threads(threads)
                    .stepping(stepping)
                    .run()
            };
            assert_eq!(
                run(Stepping::Snapshot),
                run(Stepping::Delta),
                "threads = {threads}, ttl = {ttl}"
            );
        }
    }
}

#[test]
fn delta_path_multi_source_matches_snapshot_path() {
    let sources = [0u32, 17, 42];
    let run = |stepping: Stepping| {
        Simulation::builder()
            .model(sparse_meg)
            .sources(sources)
            .trials(6)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
            .stepping(stepping)
            .run()
    };
    assert_eq!(run(Stepping::Snapshot), run(Stepping::Delta));
}

#[test]
fn delta_path_feeds_observers_that_need_snapshots() {
    // An observer that reads E_t forces per-round materialization on the
    // delta path; the edge sets it sees must match the snapshot path's.
    #[derive(Default)]
    struct EdgeTally {
        edges_per_round: Vec<usize>,
    }
    impl Observer for EdgeTally {
        fn needs_snapshots(&self) -> bool {
            true
        }
        fn on_round(&mut self, ctx: &RoundCtx<'_>) {
            self.edges_per_round
                .push(ctx.snapshot.expect("requested snapshots").edge_count());
        }
    }
    let run = |stepping: Stepping| {
        Simulation::builder()
            .model(sparse_meg)
            .trials(4)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
            .stepping(stepping)
            .observers(|_| EdgeTally::default())
            .run_observed()
    };
    let (rep_s, obs_s) = run(Stepping::Snapshot);
    let (rep_d, obs_d) = run(Stepping::Delta);
    assert_eq!(rep_s, rep_d);
    for (s, d) in obs_s.iter().zip(&obs_d) {
        assert!(!s.edges_per_round.is_empty());
        assert_eq!(s.edges_per_round, d.edges_per_round);
    }
    // Observers that don't ask see None on the delta path (and pay no
    // materialization): the default needs_snapshots is false.
    let (_, light) = Simulation::builder()
        .model(sparse_meg)
        .trials(1)
        .max_rounds(MAX_ROUNDS)
        .base_seed(BASE_SEED)
        .stepping(Stepping::Delta)
        .observers(|_| {
            struct SeesNone(bool);
            impl Observer for SeesNone {
                fn on_round(&mut self, ctx: &RoundCtx<'_>) {
                    self.0 |= ctx.snapshot.is_some();
                }
            }
            SeesNone(false)
        })
        .run_observed();
    assert!(!light[0].0);
}

#[test]
fn observers_stream_what_records_say() {
    let (report, observers) = Simulation::builder()
        .model(sparse_meg)
        .trials(6)
        .max_rounds(MAX_ROUNDS)
        .base_seed(BASE_SEED)
        .observers(|_trial| (MeanGrowthObserver::new(), DelayObserver::new()))
        .run_observed();
    assert_eq!(observers.len(), 6);
    assert_eq!(report.incomplete(), 0);
    let n = report.node_count();
    for ((growth, delays), rec) in observers.iter().zip(report.records()) {
        // One delay per informed node, capped by the completion round.
        assert_eq!(delays.delays().len(), rec.informed);
        assert_eq!(delays.uninformed(), 0);
        let q = delays.quantiles().unwrap();
        assert_eq!(q.max(), rec.time.unwrap() as f64);
        // The per-trial growth curve starts at |I_0| = 1 and ends at n.
        let curve = growth.mean_sizes();
        assert_eq!(curve.first().copied(), Some(1.0));
        assert_eq!(curve.last().copied(), Some(n as f64));
        assert!(curve.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[test]
fn delta_path_matches_snapshot_path_for_section5_wrappers() {
    // The §5 wrappers are delta-native now: thinning and jamming over a
    // churning edge-MEG must report byte-identical records on both
    // stepping paths, for every built-in protocol.
    use dynspread::dynagraph::{JammedEvolvingGraph, ThinnedEvolvingGraph};
    let thinned = |seed: u64| {
        let n = 96usize;
        let inner = ShardedSparseEdgeMeg::stationary(n, 1.5 / n as f64, 0.4, seed).unwrap();
        ThinnedEvolvingGraph::new(inner, 0.6, seed).unwrap()
    };
    let jammed = |seed: u64| {
        let n = 96usize;
        let inner = ShardedSparseEdgeMeg::stationary(n, 1.5 / n as f64, 0.4, seed).unwrap();
        JammedEvolvingGraph::new(inner, 4, seed).unwrap()
    };
    assert!(thinned(0).has_native_deltas());
    assert!(jammed(0).has_native_deltas());

    let flood_run = |stepping: Stepping| {
        Simulation::builder()
            .model(thinned)
            .trials(8)
            .max_rounds(MAX_ROUNDS)
            .warm_up(8)
            .base_seed(BASE_SEED)
            .stepping(stepping)
            .run()
    };
    assert_eq!(flood_run(Stepping::Snapshot), flood_run(Stepping::Delta));
    assert_eq!(flood_run(Stepping::Snapshot), flood_run(Stepping::Auto));

    let push_run = |stepping: Stepping| {
        Simulation::builder()
            .model(jammed)
            .protocol(PushGossip::new(2))
            .trials(8)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
            .stepping(stepping)
            .run()
    };
    assert_eq!(push_run(Stepping::Snapshot), push_run(Stepping::Delta));

    let pars_run = |stepping: Stepping| {
        Simulation::builder()
            .model(thinned)
            .protocol(ParsimoniousFlooding::new(3))
            .trials(8)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
            .stepping(stepping)
            .run()
    };
    assert_eq!(pars_run(Stepping::Snapshot), pars_run(Stepping::Delta));
}

#[test]
fn lane_model_matches_across_stepping_paths() {
    // The lazy lane model: the snapshot and delta pipelines and the lane
    // executor (Auto) must agree on its realizations.
    let model = |seed: u64| {
        let n = 128usize;
        ShardedSparseEdgeMeg::stationary(n, 1.5 / n as f64, 0.3, seed).unwrap()
    };
    let run = |stepping: Stepping| {
        Simulation::builder()
            .model(model)
            .trials(8)
            .max_rounds(MAX_ROUNDS)
            .warm_up(6)
            .base_seed(BASE_SEED)
            .stepping(stepping)
            .run()
    };
    let snapshot = run(Stepping::Snapshot);
    assert_eq!(snapshot, run(Stepping::Delta));
    assert_eq!(snapshot, run(Stepping::Auto));
    assert_eq!(snapshot.incomplete(), 0);
}

#[test]
fn churn_observer_agrees_with_materialized_edge_counts() {
    // |E_t| reconstructed from the delta stream (baseline + cumulative
    // added − removed) must equal the edge counts a snapshot-reading
    // observer sees on the same trials.
    use dynspread::dynagraph::engine::ChurnObserver;
    #[derive(Default)]
    struct EdgeCountAndChurn {
        churn: ChurnObserver,
        edges: Vec<usize>,
        reconstructed: Vec<i64>,
        running: i64,
    }
    impl Observer for EdgeCountAndChurn {
        fn needs_snapshots(&self) -> bool {
            true
        }
        fn on_trial_start(&mut self, trial: usize, n: usize, sources: &[u32]) {
            self.churn.on_trial_start(trial, n, sources);
        }
        fn on_round(&mut self, ctx: &RoundCtx<'_>) {
            self.churn.on_round(ctx);
            self.edges.push(ctx.snapshot.expect("asked").edge_count());
            let d = ctx.delta.expect("delta path");
            self.running += d.added().len() as i64 - d.removed().len() as i64;
            self.reconstructed.push(self.running);
        }
    }
    let (_, observers) = Simulation::builder()
        .model(sparse_meg)
        .trials(3)
        .max_rounds(MAX_ROUNDS)
        .base_seed(BASE_SEED)
        .stepping(Stepping::Delta)
        .observers(|_| EdgeCountAndChurn::default())
        .run_observed();
    for obs in &observers {
        assert!(!obs.edges.is_empty());
        let as_i64: Vec<i64> = obs.edges.iter().map(|&e| e as i64).collect();
        assert_eq!(obs.reconstructed, as_i64);
        assert_eq!(obs.churn.rounds_without_delta(), 0);
        // The baseline emission lands in initial_edges (= |E_0|), never
        // in the churn summary.
        assert_eq!(obs.churn.initial_edges().mean(), obs.edges[0] as f64);
        let max_later_churn = obs.edges.windows(2).map(|w| w[0] + w[1]).max().unwrap_or(0) as f64;
        assert!(obs.churn.churn().max() <= max_later_churn);
    }
    // On the snapshot path the same observer sees no deltas at all.
    let (_, observers) = Simulation::builder()
        .model(sparse_meg)
        .trials(1)
        .max_rounds(MAX_ROUNDS)
        .base_seed(BASE_SEED)
        .stepping(Stepping::Snapshot)
        .observers(|_| ChurnObserver::new())
        .run_observed();
    assert!(observers[0].rounds_without_delta() > 0);
    assert_eq!(observers[0].churn().len(), 0);
}

#[test]
fn observer_factories_see_trial_indices_in_order() {
    let (_, observers) = Simulation::builder()
        .model(static_grid)
        .trials(8)
        .max_rounds(100)
        .observers(|trial| {
            struct TrialTag(usize);
            impl dynspread::dynagraph::engine::Observer for TrialTag {}
            TrialTag(trial)
        })
        .run_observed();
    let tags: Vec<usize> = observers.iter().map(|o| o.0).collect();
    assert_eq!(tags, (0..8).collect::<Vec<_>>());
}
