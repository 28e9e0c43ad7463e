//! Integration: ergodicity boundaries of the framework.
//!
//! The paper's bounds require a unique stationary distribution. These
//! tests pin down what happens at the boundary: bipartite parity traps
//! (caught and documented in `dg-mobility`), deterministic periodic
//! processes (non-Markovian but `(M, α, β)`-stationary analysis still
//! applies), and worst-case starts converging to stationarity.

use dynspread::dg_graph::generators;
use dynspread::dg_mobility::{PathFamily, RandomPathModel};
use dynspread::dynagraph::flooding::flood;
use dynspread::dynagraph::{EvolvingGraph, PeriodicEvolvingGraph};

mod support;
use support::DenseEdgeMeg;

#[test]
fn bipartite_parity_blocks_zero_laziness() {
    let (_, family) = PathFamily::grid_l_paths(4, 4);
    let mut g = RandomPathModel::stationary(family, 32, 3).unwrap();
    let run = flood(&mut g, 0, 5_000);
    assert!(
        run.flooding_time().is_none(),
        "opposite parity classes never meet without laziness"
    );
    // But everyone in the source's parity class is reachable.
    assert!(run.informed_count() > 1);
    assert!(run.informed_count() < 32);
}

#[test]
fn laziness_restores_ergodicity() {
    let (_, family) = PathFamily::grid_l_paths(4, 4);
    let mut g = RandomPathModel::stationary_lazy(family, 32, 0.2, 3).unwrap();
    let run = flood(&mut g, 0, 100_000);
    assert!(run.flooding_time().is_some());
}

#[test]
fn odd_cycle_needs_no_laziness() {
    // Non-bipartite mobility graph: parity is no obstacle.
    let h = generators::cycle(7);
    let family = PathFamily::edges_family(&h).unwrap();
    let mut g = RandomPathModel::stationary(family, 16, 5).unwrap();
    let run = flood(&mut g, 0, 100_000);
    assert!(run.flooding_time().is_some());
}

#[test]
fn periodic_process_floods_deterministically() {
    // A deterministic, periodic (non-Markovian) dynamic graph: three
    // phases that together connect a 6-node ring. The framework makes no
    // Markov assumption; flooding just works, identically every reset.
    let phase = |edges: &[(u32, u32)]| {
        let mut b = dynspread::dg_graph::GraphBuilder::new(6);
        b.add_edges(edges.iter().copied()).unwrap();
        b.build()
    };
    let phases = [
        phase(&[(0, 1), (3, 4)]),
        phase(&[(1, 2), (4, 5)]),
        phase(&[(2, 3), (5, 0)]),
    ];
    let mut g = PeriodicEvolvingGraph::new(&phases).unwrap();
    let a = flood(&mut g, 0, 100);
    g.reset(0);
    let b = flood(&mut g, 0, 100);
    assert_eq!(a, b);
    assert!(a.flooding_time().is_some());
}

#[test]
fn worst_case_start_converges_like_stationary() {
    // Edge-MEG from the empty graph: after Theta(1/(p+q)) warm-up rounds
    // the flooding time matches the stationary start, while the cold
    // empty start floods far slower (the graph needs ~1/(p+q) rounds to
    // fill in). The library's models start stationary only, so every
    // start runs on the definitional oracle.
    let n = 96;
    let (p, q) = (0.003, 0.01);
    let trials = 10;
    let mean_with = |warm: usize, from_empty: bool| -> f64 {
        let mut total = 0.0;
        for t in 0..trials {
            let seed = 300 + t;
            let mut g = if from_empty {
                DenseEdgeMeg::from_empty(n, p, q, seed)
            } else {
                DenseEdgeMeg::stationary(n, p, q, seed)
            };
            g.warm_up(warm);
            total += flood(&mut g, 0, 100_000)
                .flooding_time()
                .expect("completes") as f64;
        }
        total / trials as f64
    };
    let stationary = mean_with(0, false);
    let cold_empty = mean_with(0, true);
    let warmed_empty = mean_with((8.0 / (p + q)) as usize, true);
    assert!(
        cold_empty >= stationary + 5.0,
        "the cold empty start {cold_empty} should flood far slower than stationary {stationary}"
    );
    assert!(
        (warmed_empty - stationary).abs() <= 1.0,
        "warmed-up empty start {warmed_empty} should match stationary {stationary}"
    );
}
