//! Integration: the intra-trial sharded executor against the serial
//! engine paths — the byte-identity pins behind `.shards(..)`.
//!
//! The sharded path must be a pure wall-clock optimization: same
//! records (times, informed counts, rounds, *messages*), same per-round
//! deltas and snapshots handed to observers, same sweep artifact bytes,
//! for every shard count — and model reuse must stay byte-identical to
//! fresh construction when trials run sharded.

use dg_edge_meg::ShardedSparseEdgeMeg;
use dynagraph::engine::{Observer, RoundCtx, Simulation, Stepping};
use dynagraph::sweep::{Axis, Grid, Sweep, TrialBudget};
use dynagraph::Shards;

fn model(n: usize) -> impl Fn(u64) -> ShardedSparseEdgeMeg + Clone + Sync {
    move |seed| ShardedSparseEdgeMeg::stationary(n, 1.5 / n as f64, 0.3, seed).unwrap()
}

#[test]
fn engine_records_identical_across_shard_counts() {
    let n = 512;
    let run = |shards: usize| {
        Simulation::builder()
            .model(model(n))
            .trials(4)
            .max_rounds(100_000)
            .base_seed(0x5AAD)
            .shards(shards)
            .run()
    };
    let serial = run(1);
    assert_eq!(serial.incomplete(), 0);
    for shards in [2usize, 4, 8] {
        assert_eq!(serial, run(shards), "{shards} shards");
    }
}

#[test]
fn sharded_records_match_both_serial_stepping_paths() {
    // Transitivity anchor: the sharded executor agrees with the delta
    // path, which agrees with the snapshot path.
    let n = 256;
    let build = || {
        Simulation::builder()
            .model(model(n))
            .trials(3)
            .max_rounds(100_000)
            .base_seed(7)
    };
    let snapshot = build().stepping(Stepping::Snapshot).run();
    let delta = build().stepping(Stepping::Delta).run();
    let sharded = build().shards(4).run();
    assert_eq!(snapshot, delta);
    assert_eq!(delta, sharded);
}

/// One observed round: round number, newly informed (sorted — the
/// *order* is execution-path-dependent by contract; membership is not),
/// informed count, messages, delta added/removed lengths, snapshot edge
/// count.
type RoundSeen = (u32, Vec<u32>, usize, u64, usize, usize, usize);

/// Captures everything an observer can see per round.
#[derive(Default)]
struct RoundTrace {
    rounds: Vec<RoundSeen>,
}

impl Observer for RoundTrace {
    fn needs_snapshots(&self) -> bool {
        true
    }
    fn on_round(&mut self, ctx: &RoundCtx<'_>) {
        let mut newly = ctx.newly_informed.to_vec();
        newly.sort_unstable();
        let snap = ctx.snapshot.expect("asked for snapshots");
        self.rounds.push((
            ctx.round,
            newly,
            ctx.informed_count,
            ctx.messages,
            ctx.delta.map_or(usize::MAX, |d| d.added().len()),
            ctx.delta.map_or(usize::MAX, |d| d.removed().len()),
            snap.edge_count(),
        ));
    }
}

#[test]
fn observers_see_identical_rounds_serial_and_sharded() {
    // Deltas, informed sets, message counts, and materialized snapshots
    // must agree round for round — this pins the merged lane delta and
    // the partitioned adjacency apply against the serial sweep.
    let n = 384;
    let run = |shards: usize| {
        Simulation::builder()
            .model(model(n))
            .trials(2)
            .max_rounds(100_000)
            .base_seed(0xBEE)
            .shards(shards)
            .observers(|_| RoundTrace::default())
            .run_observed()
    };
    let (serial_report, serial_obs) = run(1);
    for shards in [2usize, 8] {
        let (report, obs) = run(shards);
        assert_eq!(serial_report, report, "{shards} shards");
        for (trial, (a, b)) in serial_obs.iter().zip(&obs).enumerate() {
            assert_eq!(a.rounds, b.rounds, "{shards} shards, trial {trial}");
        }
    }
}

#[test]
fn model_reuse_matches_fresh_on_sharded_trials() {
    let n = 256;
    let build = || {
        Simulation::builder()
            .model(model(n))
            .trials(5)
            .max_rounds(100_000)
            .base_seed(0x2E5E)
            .shards(4)
    };
    let b = build();
    let fresh: Vec<_> = (0..5).map(|i| b.run_trial(i)).collect();
    assert_eq!(build().run().records(), fresh);
}

#[test]
fn sweep_artifacts_byte_identical_across_shard_counts() {
    // The sweep layer inherits the axis through its trial function; the
    // JSON artifact (the thing dg-serve stores content-addressed) must
    // not depend on how many threads each trial ran on.
    let artifact = |shards: usize| {
        let grid = Grid::new().axis(Axis::ints("n", [192, 320]));
        Sweep::over(grid)
            .budget(TrialBudget::fixed(3))
            .base_seed(0xC0FFEE)
            .run(move |cell, trial| {
                let n = cell.usize("n");
                Simulation::builder()
                    .model(model(n))
                    .max_rounds(100_000)
                    .base_seed(trial.cell_seed)
                    .shards(shards)
                    .run_trial(trial.index)
                    .time
                    .map(f64::from)
            })
            .unwrap()
            .to_json()
    };
    let serial = artifact(1);
    assert_eq!(serial, artifact(2));
    assert_eq!(serial, artifact(8));
}

#[test]
fn shards_auto_resolves_and_runs() {
    // Auto may resolve to any machine-dependent count (including 1);
    // records must match serial regardless.
    let n = 192;
    let build = || {
        Simulation::builder()
            .model(model(n))
            .trials(2)
            .max_rounds(100_000)
            .base_seed(11)
    };
    assert_eq!(build().shards(Shards::Auto).run(), build().run());
}
