//! Integration: the §5 reduction — randomized transmission = flooding on
//! a virtual (thinned) dynamic graph; degenerate parameters recover plain
//! flooding exactly. Also the sanity checks of the gossip oracles in
//! `support` that the engine suite pins its protocols to.

use dynspread::dg_edge_meg::ShardedSparseEdgeMeg;
use dynspread::dg_graph::generators;
use dynspread::dynagraph::flooding::flood;
use dynspread::dynagraph::{StaticEvolvingGraph, ThinnedEvolvingGraph};

mod support;
use support::{flood_oracle, parsimonious_flood, push_spread};

#[test]
fn gossip_oracles_reduce_to_the_flood_oracle() {
    // Fanout n and a TTL past the round cap relay on every edge every
    // round: both gossip oracles must then be the flooding oracle, node
    // for node.
    let n = 64;
    for seed in [6u64, 7] {
        let meg = || ShardedSparseEdgeMeg::stationary(n, 0.05, 0.2, seed).unwrap();
        let flood = flood_oracle(&mut meg(), &[0], 10_000);
        assert!(flood.flooding_time().is_some());
        assert_eq!(push_spread(&mut meg(), 0, n, 10_000, seed), flood);
        assert_eq!(parsimonious_flood(&mut meg(), 0, 10_000, 10_000), flood);
        assert_eq!(flood.informed_at()[0], 0);
    }
}

#[test]
fn gamma_one_is_plain_flooding() {
    // Same inner seed => identical edge realizations => identical runs.
    let n = 64;
    for seed in [1u64, 2, 3] {
        let mut plain = ShardedSparseEdgeMeg::stationary(n, 0.05, 0.2, seed).unwrap();
        let inner = ShardedSparseEdgeMeg::stationary(n, 0.05, 0.2, seed).unwrap();
        let mut virt = ThinnedEvolvingGraph::new(inner, 1.0, seed).unwrap();
        let a = flood(&mut plain, 0, 10_000);
        let b = flood(&mut virt, 0, 10_000);
        assert_eq!(a, b, "gamma = 1 must reproduce flooding exactly");
    }
}

#[test]
fn huge_fanout_is_plain_flooding() {
    let n = 64;
    for seed in [4u64, 5] {
        let mut a_g = ShardedSparseEdgeMeg::stationary(n, 0.05, 0.2, seed).unwrap();
        let mut b_g = ShardedSparseEdgeMeg::stationary(n, 0.05, 0.2, seed).unwrap();
        let a = flood(&mut a_g, 0, 10_000);
        let b = push_spread(&mut b_g, 0, n, 10_000, seed);
        assert_eq!(a.flooding_time(), b.flooding_time());
        assert_eq!(a.sizes(), b.sizes());
    }
}

#[test]
fn thinning_slows_by_bounded_factor() {
    // The virtual graph is a MEG with alpha' = gamma * alpha, so Theorem 1
    // still applies: flooding slows but by a bounded factor.
    let n = 96;
    let trials = 8;
    let mean = |gamma: f64| -> f64 {
        let mut total = 0.0;
        for t in 0..trials {
            let seed = 100 + t;
            let inner = ShardedSparseEdgeMeg::stationary(n, 0.08, 0.2, seed).unwrap();
            let mut g = ThinnedEvolvingGraph::new(inner, gamma, seed).unwrap();
            total += flood(&mut g, 0, 100_000)
                .flooding_time()
                .expect("completes") as f64;
        }
        total / trials as f64
    };
    let full = mean(1.0);
    let half = mean(0.5);
    let quarter = mean(0.25);
    assert!(half >= full * 0.9, "thinning cannot speed flooding up");
    assert!(quarter >= half * 0.9);
    assert!(
        quarter <= full * 8.0,
        "quartering edge use should cost a bounded factor: {quarter} vs {full}"
    );
}

#[test]
fn push_fanout_monotone() {
    let n = 96;
    let trials = 8;
    let mean = |k: usize| -> f64 {
        let mut total = 0.0;
        for t in 0..trials {
            let seed = 200 + t;
            let mut g = ShardedSparseEdgeMeg::stationary(n, 0.08, 0.2, seed).unwrap();
            total += push_spread(&mut g, 0, k, 100_000, seed)
                .flooding_time()
                .expect("completes") as f64;
        }
        total / trials as f64
    };
    let k1 = mean(1);
    let k4 = mean(4);
    let kall = mean(n);
    assert!(
        k1 >= k4 * 0.95,
        "larger fanout is no slower: k1 {k1} k4 {k4}"
    );
    assert!(k4 >= kall * 0.95, "k4 {k4} kall {kall}");
}

#[test]
fn push_one_on_complete_graph_takes_logarithmic_rounds() {
    // Push-1 on the complete graph needs ~log2(n) + ln(n) rounds, more
    // than flooding's single round but still fast.
    let mut g = StaticEvolvingGraph::new(generators::complete(16));
    let run = push_spread(&mut g, 0, 1, 100, 7);
    let t = run.flooding_time().unwrap();
    assert!(t >= 4, "t = {t}");
    assert!(t <= 40, "t = {t}");
}

#[test]
fn push_one_slower_than_flooding_on_star() {
    // Star: flooding from the center takes 1 round; push-1 informs one
    // leaf per round.
    let mut g = StaticEvolvingGraph::new(generators::star(10));
    let run = push_spread(&mut g, 0, 1, 100, 5);
    let t = run.flooding_time().unwrap();
    assert!(t >= 9, "t = {t}");
}

#[test]
fn push_monotone_and_complete_on_connected() {
    let mut g = StaticEvolvingGraph::new(generators::cycle(12));
    let run = push_spread(&mut g, 0, 2, 1000, 9);
    assert!(run.flooding_time().is_some());
    for w in run.sizes().windows(2) {
        assert!(w[0] <= w[1]);
    }
}

#[test]
fn push_reproducible() {
    let mut g1 = StaticEvolvingGraph::new(generators::complete(20));
    let mut g2 = StaticEvolvingGraph::new(generators::complete(20));
    let a = push_spread(&mut g1, 0, 1, 100, 42);
    let b = push_spread(&mut g2, 0, 1, 100, 42);
    assert_eq!(a, b);
}

#[test]
fn thinned_complete_graph_floods_fast() {
    // Flooding over a thinned process is the random-transmission
    // protocol. On the complete graph with gamma = 0.5 it still
    // completes quickly.
    let inner = StaticEvolvingGraph::new(generators::complete(32));
    let mut virt = ThinnedEvolvingGraph::new(inner, 0.5, 8).unwrap();
    let run = flood(&mut virt, 0, 100);
    let t = run.flooding_time().unwrap();
    assert!(t <= 6, "t = {t}");
}

#[test]
#[should_panic(expected = "fanout must be positive")]
fn zero_fanout_panics() {
    let mut g = StaticEvolvingGraph::new(generators::path(3));
    let _ = push_spread(&mut g, 0, 0, 10, 0);
}

#[test]
fn parsimonious_large_ttl_equals_flooding() {
    let graph = generators::grid(4, 4);
    let mut a = StaticEvolvingGraph::new(graph.clone());
    let mut b = StaticEvolvingGraph::new(graph);
    let plain = flood(&mut a, 0, 100);
    let pars = parsimonious_flood(&mut b, 0, 100, 100);
    assert_eq!(plain.flooding_time(), pars.flooding_time());
    assert_eq!(plain.sizes(), pars.sizes());
}

#[test]
fn parsimonious_ttl_one_completes_on_static_path() {
    // The frontier of a static path is always freshly informed.
    let mut g = StaticEvolvingGraph::new(generators::path(6));
    let run = parsimonious_flood(&mut g, 0, 1, 100);
    assert_eq!(run.flooding_time(), Some(5));
}

#[test]
fn parsimonious_dies_out_when_frontier_stalls() {
    // Edgeless process: the source's TTL expires with no one reached,
    // and the run stops as soon as the active set empties — well
    // before the round cap.
    let g = dynspread::dg_graph::GraphBuilder::new(4).build();
    let mut g = StaticEvolvingGraph::new(g);
    let run = parsimonious_flood(&mut g, 0, 2, 1000);
    assert_eq!(run.flooding_time(), None);
    assert_eq!(run.informed_count(), 1);
    assert!(run.sizes().len() <= 3 + 1);
}

#[test]
fn parsimonious_completes_on_fast_mixing_process() {
    // On a thinned complete graph (fresh edges every round) a TTL of 1
    // still floods: the frontier always faces fresh random links.
    let inner = StaticEvolvingGraph::new(generators::complete(32));
    let mut g = ThinnedEvolvingGraph::new(inner, 0.3, 11).unwrap();
    let run = parsimonious_flood(&mut g, 0, 1, 1000);
    assert!(run.flooding_time().is_some());
}

#[test]
fn parsimonious_monotone_in_ttl() {
    // Larger TTL can only help (statistically; compare over trials).
    let mean = |ttl: u32| -> f64 {
        let mut total = 0.0;
        let trials = 10;
        for seed in 0..trials {
            let inner = StaticEvolvingGraph::new(generators::complete(24));
            let mut g = ThinnedEvolvingGraph::new(inner, 0.08, seed).unwrap();
            if let Some(t) = parsimonious_flood(&mut g, 0, ttl, 10_000).flooding_time() {
                total += t as f64;
            } else {
                total += 10_000.0;
            }
        }
        total / trials as f64
    };
    assert!(mean(8) <= mean(1) + 1.0);
}

#[test]
#[should_panic(expected = "ttl must be positive")]
fn zero_ttl_panics() {
    let mut g = StaticEvolvingGraph::new(generators::path(3));
    let _ = parsimonious_flood(&mut g, 0, 0, 10);
}
