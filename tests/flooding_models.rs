//! Integration: flooding completes on every model family of the paper,
//! and the run records are internally consistent.

use dynspread::dg_edge_meg::{
    bursty_chain, HiddenChainEdgeMeg, ShardedSparseEdgeMeg, SparseTwoStateEdgeMeg,
};
use dynspread::dg_mobility::{
    GeometricMeg, GridWalk, ManhattanWaypoint, PathFamily, RandomDirection, RandomPathModel,
    RandomWaypoint,
};
use dynspread::dynagraph::flooding::{flood, FloodRun};
use dynspread::dynagraph::EvolvingGraph;

fn check_run(run: &FloodRun, n: usize) {
    let t = run
        .flooding_time()
        .expect("flooding should complete on this model");
    // Sizes are monotone from 1 to n.
    assert_eq!(run.sizes()[0], 1);
    assert_eq!(*run.sizes().last().unwrap() as usize, n);
    assert!(run.sizes().windows(2).all(|w| w[0] <= w[1]));
    // informed_at is consistent with the curve.
    assert_eq!(run.informed_at()[run.source() as usize], 0);
    assert_eq!(run.informed_round(run.source()), Some(0));
    let mut max_round = 0;
    for &at in run.informed_at() {
        assert_ne!(at, FloodRun::UNINFORMED, "everyone informed");
        max_round = max_round.max(at);
    }
    assert_eq!(max_round, t, "last informed node defines the flooding time");
    // Counting informed_at by round reproduces sizes.
    for (round, &size) in run.sizes().iter().enumerate() {
        let count = run
            .informed_at()
            .iter()
            .filter(|&&a| a <= round as u32)
            .count();
        assert_eq!(count, size as usize, "size mismatch at round {round}");
    }
}

#[test]
fn two_state_edge_meg_floods() {
    let n = 96;
    let mut g = ShardedSparseEdgeMeg::stationary(n, 2.0 / n as f64, 0.3, 7).unwrap();
    check_run(&flood(&mut g, 0, 100_000), n);
}

#[test]
fn sparse_edge_meg_floods() {
    let n = 192;
    let mut g = SparseTwoStateEdgeMeg::stationary(n, 1.5 / n as f64, 0.4, 9).unwrap();
    check_run(&flood(&mut g, 5, 100_000), n);
}

#[test]
fn hidden_chain_edge_meg_floods() {
    let n = 64;
    let (chain, chi) = bursty_chain(0.05, 0.3, 0.2);
    let mut g = HiddenChainEdgeMeg::stationary(n, chain, chi, 3).unwrap();
    check_run(&flood(&mut g, 0, 100_000), n);
}

#[test]
fn waypoint_manet_floods() {
    let n = 80;
    let side = 10.0;
    let mut g =
        GeometricMeg::new(RandomWaypoint::new(side, 1.0, 2.0).unwrap(), n, 1.5, 11).unwrap();
    g.warm_up(200);
    check_run(&flood(&mut g, 0, 100_000), n);
}

#[test]
fn manhattan_waypoint_floods() {
    let n = 48;
    let mut g =
        GeometricMeg::new(ManhattanWaypoint::new(8.0, 1.0, 1.0).unwrap(), n, 1.5, 13).unwrap();
    g.warm_up(100);
    check_run(&flood(&mut g, 0, 100_000), n);
}

#[test]
fn random_direction_floods() {
    let n = 48;
    let mut g =
        GeometricMeg::new(RandomDirection::new(8.0, 1.0, 4, 12).unwrap(), n, 1.5, 15).unwrap();
    g.warm_up(100);
    check_run(&flood(&mut g, 0, 100_000), n);
}

#[test]
fn grid_walk_floods() {
    let n = 64;
    let mut g = GeometricMeg::new(GridWalk::new(10, 1).unwrap(), n, 1.0, 17).unwrap();
    check_run(&flood(&mut g, 0, 100_000), n);
}

#[test]
fn random_paths_flood() {
    let n = 60;
    let (_, family) = PathFamily::grid_l_paths(4, 4);
    let mut g = RandomPathModel::stationary_lazy(family, n, 0.25, 19).unwrap();
    check_run(&flood(&mut g, 0, 100_000), n);
}

#[test]
fn random_walk_via_edges_family_floods() {
    let n = 48;
    let h = dynspread::dg_graph::generators::k_augmented_grid(6, 6, 2);
    let family = PathFamily::edges_family(&h).unwrap();
    let mut g = RandomPathModel::stationary_lazy(family, n, 0.25, 21).unwrap();
    check_run(&flood(&mut g, 0, 100_000), n);
}
