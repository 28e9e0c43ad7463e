//! Integration: Fact 2 — in a stationary node-MEG the edge probability
//! does not depend on the chosen pair, across model families.

use dynspread::dg_edge_meg::ShardedSparseEdgeMeg;
use dynspread::dg_mobility::{GeometricMeg, RandomWaypoint};
use dynspread::dynagraph::EvolvingGraph;

/// Estimates P(edge) for several node pairs over stationary rounds and
/// asserts they agree within tolerance.
fn assert_pair_exchangeable<G: EvolvingGraph>(g: &mut G, rounds: usize, tol: f64) {
    let probes: &[(u32, u32)] = &[(0, 1), (2, 3), (4, 7)];
    let mut hits = vec![0u64; probes.len()];
    for _ in 0..rounds {
        let snap = g.step();
        for (h, &(a, b)) in hits.iter_mut().zip(probes) {
            if snap.has_edge(a, b) {
                *h += 1;
            }
        }
    }
    let probs: Vec<f64> = hits.iter().map(|&h| h as f64 / rounds as f64).collect();
    let mean = probs.iter().sum::<f64>() / probs.len() as f64;
    assert!(mean > 0.0, "no edges observed at all");
    for (i, &p) in probs.iter().enumerate() {
        assert!(
            (p - mean).abs() < tol * mean.max(0.01),
            "pair {i} probability {p} deviates from mean {mean}"
        );
    }
}

#[test]
fn edge_meg_pairs_exchangeable() {
    let mut g = ShardedSparseEdgeMeg::stationary(16, 0.1, 0.2, 5).unwrap();
    assert_pair_exchangeable(&mut g, 20_000, 0.15);
}

#[test]
fn waypoint_pairs_exchangeable() {
    let mut g = GeometricMeg::new(RandomWaypoint::new(8.0, 1.0, 1.0).unwrap(), 16, 2.0, 7).unwrap();
    g.warm_up(500);
    // Positional samples are autocorrelated; allow a wider tolerance.
    assert_pair_exchangeable(&mut g, 40_000, 0.3);
}
