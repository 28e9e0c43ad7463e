//! Property-based integration tests: invariants that must hold for every
//! model family, every seed, every parameterization.

use proptest::prelude::*;

use dynspread::dg_edge_meg::ShardedSparseEdgeMeg;
use dynspread::dg_markov::DenseChain;
use dynspread::dg_mobility::{GeometricMeg, GridWalk, RandomWaypoint};
use dynspread::dynagraph::delta::{assert_replays_rebuild, DynAdjacency, EdgeDelta};
use dynspread::dynagraph::flooding::flood;
use dynspread::dynagraph::node_meg::{FiniteNodeChain, MatrixConnection, NodeMeg};
use dynspread::dynagraph::{EvolvingGraph, RecordedEvolution, Snapshot};

/// Snapshot structural invariants: CSR symmetry, sorted adjacency, degree
/// sums, edge iterator consistency.
fn check_snapshot(snap: &Snapshot) {
    let n = snap.node_count();
    let mut degree_sum = 0usize;
    for u in 0..n as u32 {
        let neigh = snap.neighbors(u);
        degree_sum += neigh.len();
        assert!(neigh.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        for &v in neigh {
            assert!((v as usize) < n);
            assert_ne!(v, u, "no self-loops");
            assert!(snap.has_edge(v, u), "symmetry");
        }
    }
    assert_eq!(degree_sum, 2 * snap.edge_count());
    assert_eq!(snap.edges().count(), snap.edge_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn edge_meg_snapshots_well_formed(
        n in 2usize..40,
        p in 0.01f64..0.9,
        q in 0.01f64..0.9,
        seed in any::<u64>(),
    ) {
        let mut g = ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap();
        for _ in 0..5 {
            check_snapshot(g.step());
        }
    }

    #[test]
    fn waypoint_snapshots_well_formed(
        n in 2usize..32,
        r in 0.5f64..4.0,
        seed in any::<u64>(),
    ) {
        let model = RandomWaypoint::new(10.0, 0.5, 1.5).unwrap();
        let mut g = GeometricMeg::new(model, n, r, seed).unwrap();
        for _ in 0..5 {
            check_snapshot(g.step());
        }
    }

    #[test]
    fn walk_snapshots_match_disk_graph(
        n in 2usize..24,
        seed in any::<u64>(),
    ) {
        let r = 1.5;
        let mut g = GeometricMeg::new(GridWalk::new(8, 1).unwrap(), n, r, seed).unwrap();
        for _ in 0..3 {
            let snap = g.step().clone();
            let pos = g.positions().to_vec();
            for i in 0..n as u32 {
                for j in (i + 1)..n as u32 {
                    let within = pos[i as usize].distance(pos[j as usize]) <= r;
                    prop_assert_eq!(snap.has_edge(i, j), within);
                }
            }
        }
    }

    #[test]
    fn flooding_is_monotone_and_capped(
        n in 2usize..48,
        seed in any::<u64>(),
        max_rounds in 1u32..60,
    ) {
        let mut g = ShardedSparseEdgeMeg::stationary(n, 0.1, 0.3, seed).unwrap();
        let run = flood(&mut g, 0, max_rounds);
        // Monotone sizes, bounded by n, at most max_rounds + 1 entries.
        prop_assert!(run.sizes().windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(run.sizes().len() <= max_rounds as usize + 1);
        prop_assert!(*run.sizes().last().unwrap() as usize <= n);
        if let Some(t) = run.flooding_time() {
            prop_assert!(t <= max_rounds);
            prop_assert_eq!(*run.sizes().last().unwrap() as usize, n);
        }
    }

    #[test]
    fn same_seed_same_run(seed in any::<u64>()) {
        let n = 32;
        let mut a = ShardedSparseEdgeMeg::stationary(n, 0.05, 0.2, seed).unwrap();
        let mut b = ShardedSparseEdgeMeg::stationary(n, 0.05, 0.2, seed).unwrap();
        prop_assert_eq!(flood(&mut a, 0, 5_000), flood(&mut b, 0, 5_000));
    }

    #[test]
    fn recorded_replay_matches_sources(seed in any::<u64>()) {
        // F(G, s) from the recording never exceeds F(G) = max_s F(G, s).
        let n = 24;
        let mut g = ShardedSparseEdgeMeg::stationary(n, 0.15, 0.3, seed).unwrap();
        let rec = RecordedEvolution::record(&mut g, 200);
        if let Some(worst) = rec.flooding_time_all_sources() {
            for s in 0..n as u32 {
                let t = rec.flood_from(s).flooding_time().unwrap();
                prop_assert!(t <= worst);
            }
        }
    }

    #[test]
    fn node_meg_deltas_replay_rebuild(
        n in 2usize..20,
        k in 2usize..6,
        seed in any::<u64>(),
    ) {
        // A lazy cycle chain with same-state connection: node states
        // churn every round, so the pair list changes substantially.
        let mut rows = vec![vec![0.0; k]; k];
        for (i, row) in rows.iter_mut().enumerate() {
            row[i] = 0.5;
            row[(i + 1) % k] += 0.25;
            row[(i + k - 1) % k] += 0.25;
        }
        let chain = DenseChain::from_rows(rows).unwrap();
        let make = || NodeMeg::new(
            FiniteNodeChain::uniform_start(chain.clone()),
            MatrixConnection::same_state(k),
            n,
            seed,
        ).unwrap();
        let mut rebuild = make();
        let mut delta = make();
        assert!(delta.has_native_deltas());
        assert_replays_rebuild(&mut rebuild, &mut delta, 15);
        rebuild.reset(seed ^ 9);
        delta.reset(seed ^ 9);
        assert_replays_rebuild(&mut rebuild, &mut delta, 15);
    }

    #[test]
    fn recorded_replay_serves_native_deltas(seed in any::<u64>()) {
        // Replaying the recorded deltas through a DynAdjacency must walk
        // exactly the recorded snapshot sequence.
        let n = 16;
        let rounds = 40;
        let mut g = ShardedSparseEdgeMeg::stationary(n, 0.1, 0.25, seed).unwrap();
        let rec = RecordedEvolution::record(&mut g, rounds);
        let mut adj = DynAdjacency::new(n);
        let mut scratch = EdgeDelta::new();
        for t in 0..rounds {
            let (added, removed) = rec.delta(t);
            scratch.begin_round();
            for &e in removed { scratch.push_removed(e); }
            for &e in added { scratch.push_added(e); }
            adj.apply(&scratch);
            prop_assert_eq!(adj.snapshot(), rec.snapshot(t), "round {}", t);
        }
    }

    #[test]
    fn frontier_flood_matches_rebuild_flood_on_edge_meg(
        n in 4usize..32,
        p in 0.02f64..0.3,
        q in 0.05f64..0.5,
        seed in any::<u64>(),
        max_rounds in 1u32..400,
    ) {
        // The same realization, stepped by two independent instances:
        // one floods on the frontier/delta sweep (native deltas), one on
        // the classic snapshot sweep (hidden behind a wrapper). Runs
        // must be identical, not just the completion time.
        struct HideDeltas<G>(G);
        impl<G: EvolvingGraph> EvolvingGraph for HideDeltas<G> {
            fn node_count(&self) -> usize { self.0.node_count() }
            fn step(&mut self) -> &Snapshot { self.0.step() }
            fn reset(&mut self, seed: u64) { self.0.reset(seed) }
        }
        let mut native = ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap();
        let mut hidden = HideDeltas(ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap());
        let a = flood(&mut native, 0, max_rounds);
        let b = flood(&mut hidden, 0, max_rounds);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn thinned_deltas_replay_rebuild(
        n in 4usize..28,
        p in 0.05f64..0.4,
        q in 0.05f64..0.5,
        gamma in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        // The §5 thinning wrapper is delta-native: stepping it through
        // step_delta + DynAdjacency must walk exactly the snapshot
        // sequence of the rebuild path, for any inner parameterization.
        let make = || {
            let inner = ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap();
            dynspread::dynagraph::ThinnedEvolvingGraph::new(inner, gamma, seed).unwrap()
        };
        let mut rebuild = make();
        let mut delta = make();
        assert!(delta.has_native_deltas());
        assert_replays_rebuild(&mut rebuild, &mut delta, 20);
        rebuild.reset(seed ^ 5);
        delta.reset(seed ^ 5);
        assert_replays_rebuild(&mut rebuild, &mut delta, 20);
    }

    #[test]
    fn jammed_deltas_replay_rebuild(
        n in 4usize..28,
        p in 0.05f64..0.4,
        q in 0.05f64..0.5,
        victims in 0usize..6,
        seed in any::<u64>(),
    ) {
        prop_assume!(victims <= n);
        let make = || {
            let inner = ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap();
            dynspread::dynagraph::JammedEvolvingGraph::new(inner, victims, seed).unwrap()
        };
        let mut rebuild = make();
        let mut delta = make();
        assert_replays_rebuild(&mut rebuild, &mut delta, 20);
    }

    #[test]
    fn wrapper_deltas_survive_warm_up_and_plain_steps(
        n in 4usize..20,
        seed in any::<u64>(),
    ) {
        // Baseline breaks (warm-up rebases, plain steps desync) must
        // heal with a full emission that replays the rebuild path.
        let make = || {
            let inner = ShardedSparseEdgeMeg::stationary(n, 0.2, 0.3, seed).unwrap();
            dynspread::dynagraph::ThinnedEvolvingGraph::new(inner, 0.5, seed).unwrap()
        };
        let mut rebuild = make();
        let mut delta = make();
        rebuild.warm_up(9);
        delta.warm_up(9);
        assert_replays_rebuild(&mut rebuild, &mut delta, 8);
        let _ = rebuild.step();
        let _ = delta.step();
        assert_replays_rebuild(&mut rebuild, &mut delta, 8);
    }

    #[test]
    fn sparse_init_deltas_replay_rebuild_integration(
        n in 8usize..48,
        q in 0.05f64..0.5,
        seed in any::<u64>(),
    ) {
        let p = 1.5 / n as f64;
        let mut rebuild = ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap();
        let mut delta = ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap();
        assert_replays_rebuild(&mut rebuild, &mut delta, 30);
    }

    #[test]
    fn apply_to_sorted_tracks_dyn_adjacency(
        n in 4usize..24,
        p in 0.05f64..0.5,
        q in 0.05f64..0.5,
        seed in any::<u64>(),
    ) {
        // The flat-list delta consumer and the adjacency consumer must
        // agree on every round's edge set.
        let mut g = ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap();
        let mut adj = DynAdjacency::new(n);
        let mut flat: Vec<(u32, u32)> = Vec::new();
        let mut d = EdgeDelta::new();
        for _ in 0..15 {
            g.step_delta(&mut d);
            adj.apply(&d);
            d.apply_to_sorted(&mut flat);
            let from_adj: Vec<(u32, u32)> = adj.edges().collect();
            prop_assert_eq!(&flat, &from_adj);
        }
    }

    #[test]
    fn sweep_reports_are_scheduling_invariant(
        base_seed in any::<u64>(),
        target in 0.05f64..2.0,
    ) {
        use dynspread::dynagraph::sweep::{Axis, Cell, CiTarget, Grid, Sweep, Trial, TrialBudget};
        // A deterministic synthetic measurement with per-cell noise and
        // occasional censoring: the adaptive scheduler must produce the
        // same report however its (cell × trial) items are executed —
        // serially, across a thread pool with speculation, or killed
        // mid-run and resumed from the checkpoint artifact.
        let trial_fn = |cell: &Cell, trial: Trial| {
            if trial.seed.is_multiple_of(19) {
                return None; // censored trial
            }
            let noise = cell.get("noise");
            Some(40.0 + noise * ((trial.seed % 1009) as f64 / 1009.0 - 0.5))
        };
        let grid = || Grid::new().axis(Axis::explicit("noise", [0.0, 3.0, 24.0]));
        let budget = TrialBudget::adaptive(3, 20, CiTarget::Absolute(target));

        let serial = Sweep::over(grid())
            .budget(budget)
            .base_seed(base_seed)
            .threads(1)
            .run(trial_fn)
            .unwrap();
        let parallel = Sweep::over(grid())
            .budget(budget)
            .base_seed(base_seed)
            .threads(4)
            .lookahead(3)
            .run(trial_fn)
            .unwrap();
        prop_assert_eq!(serial.to_json(), parallel.to_json());

        let path = std::env::temp_dir()
            .join(format!("dg_props_sweep_{}_{base_seed}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let partial = Sweep::over(grid())
            .budget(budget)
            .base_seed(base_seed)
            .checkpoint(&path)
            .run_budget(4)
            .run(trial_fn)
            .unwrap();
        prop_assert!(partial.total_trials() <= serial.total_trials());
        let resumed = Sweep::over(grid())
            .budget(budget)
            .base_seed(base_seed)
            .checkpoint(&path)
            .run(trial_fn)
            .unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert!(resumed.is_complete());
        prop_assert_eq!(resumed.to_json(), serial.to_json());
    }

    #[test]
    fn flooding_time_weakly_decreasing_in_density(seed in 0u64..200) {
        // More edges cannot slow flooding down (on the same seed the
        // processes differ, so compare means over a few seeds instead).
        let n = 48;
        let mean = |p: f64| -> f64 {
            let mut total = 0.0;
            for t in 0..4u64 {
                let mut g = ShardedSparseEdgeMeg::stationary(n, p, 0.3, seed * 31 + t).unwrap();
                total += flood(&mut g, 0, 100_000).flooding_time().unwrap() as f64;
            }
            total / 4.0
        };
        let sparse = mean(0.02);
        let dense = mean(0.3);
        prop_assert!(dense <= sparse + 2.0, "dense {dense} vs sparse {sparse}");
    }
}
