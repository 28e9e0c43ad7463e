//! The flooding process of §2: single-run primitives.
//!
//! Flooding with source `s`: `I_0 = {s}` and
//! `I_{t+1} = I_t ∪ { j : ∃ i ∈ I_t, {i, j} ∈ E_t }` — newly informed
//! nodes start relaying only in the *next* round. The flooding time
//! `F(G, s)` is the first `t` with `I_t = [n]`.
//!
//! [`flood`], [`flood_multi`] and [`flood_sharded`] run one trial on one
//! realization, as given, and return the whole run as a [`FloodRun`].
//! They are thin fronts over the engine's executors, so there is one
//! flooding round loop: [`flood`] and [`flood_multi`] run the serial
//! loop with [`crate::engine::Flooding`] — the frontier sweep over a
//! [`crate::DynAdjacency`] on models advertising
//! [`EvolvingGraph::has_native_deltas`], the snapshot sweep otherwise —
//! and [`flood_sharded`] runs the lane executor ([`crate::shard`]). The
//! definitional loop they are all pinned against is a test oracle
//! (`flood_oracle` in the workspace's integration-test support). For
//! Monte-Carlo measurement use the [`crate::engine::Simulation`]
//! builder.

use crate::engine::{flood_trial, TrialRecord};
use crate::EvolvingGraph;
use crate::Shards;

/// The outcome of one flooding run: who got informed when, and how the
/// informed set grew.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodRun {
    source: u32,
    informed_at: Vec<u32>,
    sizes: Vec<u32>,
    completed_at: Option<u32>,
}

impl FloodRun {
    /// Sentinel in [`FloodRun::informed_at`] for nodes the run never
    /// informed. At `n = 10^6` the sentinel vector is 4 MB where
    /// `Vec<Option<u32>>` was 8 MB — and round numbers can never reach
    /// it (`max_rounds < u32::MAX`).
    pub const UNINFORMED: u32 = u32::MAX;

    /// The source node `s`.
    pub fn source(&self) -> u32 {
        self.source
    }

    /// The flooding time `F(G, s)` — `None` if the run hit its round cap
    /// before informing everyone.
    pub fn flooding_time(&self) -> Option<u32> {
        self.completed_at
    }

    /// For each node, the round at which it became informed: `0` for the
    /// source, [`FloodRun::UNINFORMED`] if never informed within the
    /// cap. For the `Option` view of a single node use
    /// [`FloodRun::informed_round`].
    pub fn informed_at(&self) -> &[u32] {
        &self.informed_at
    }

    /// The round node `v` became informed — `None` if the run never
    /// reached it (the `Option` accessor over the sentinel encoding).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn informed_round(&self, v: u32) -> Option<u32> {
        let r = self.informed_at[v as usize];
        (r != Self::UNINFORMED).then_some(r)
    }

    /// `sizes[t] = |I_t|`, starting from `sizes[0] = 1`.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Number of nodes informed by the end of the run.
    pub fn informed_count(&self) -> usize {
        *self.sizes.last().expect("sizes always has |I_0|") as usize
    }

    /// The run of one engine flooding trial: `sizes[t]` counts the
    /// nodes informed by round `t`.
    fn from_trial(source: u32, (record, informed_at): (TrialRecord, Vec<u32>)) -> Self {
        let mut sizes = vec![0u32; record.rounds as usize + 1];
        for &r in &informed_at {
            if r != Self::UNINFORMED {
                sizes[r as usize] += 1;
            }
        }
        let mut informed = 0;
        for size in &mut sizes {
            informed += *size;
            *size = informed;
        }
        FloodRun {
            source,
            informed_at,
            sizes,
            completed_at: record.time,
        }
    }
}

/// Runs flooding from `source` over `g`, for at most `max_rounds` rounds.
///
/// The process is stepped once per round; the snapshot returned by the
/// first [`EvolvingGraph::step`] plays the role of `E_0`. Warm the process
/// up first (e.g. [`EvolvingGraph::warm_up`]) to measure the *stationary*
/// flooding time the paper bounds.
///
/// # Panics
///
/// Panics if `source` is out of range, or if `max_rounds` is
/// `u32::MAX` (reserved as the [`FloodRun::UNINFORMED`] sentinel).
///
/// # Examples
///
/// ```
/// use dynagraph::{flooding, StaticEvolvingGraph};
/// use dg_graph::generators;
///
/// let mut g = StaticEvolvingGraph::new(generators::star(6));
/// let run = flooding::flood(&mut g, 1, 10);
/// // Leaf -> center in round 1, center -> all leaves in round 2.
/// assert_eq!(run.flooding_time(), Some(2));
/// ```
pub fn flood<G: EvolvingGraph + ?Sized>(g: &mut G, source: u32, max_rounds: u32) -> FloodRun {
    FloodRun::from_trial(source, flood_trial(g, &[source], max_rounds, None))
}

/// Runs flooding from a *set* of sources — the k-source broadcast
/// variant. `I_0` is the whole source set; the update rule is unchanged.
///
/// Multiple sources can only help: for any realization,
/// `F(G, S ∪ {s}) <= F(G, {s})` pointwise.
///
/// # Panics
///
/// Panics if `sources` is empty, contains duplicates, or contains an
/// out-of-range node, or if `max_rounds` is `u32::MAX`.
///
/// # Examples
///
/// ```
/// use dynagraph::{flooding, StaticEvolvingGraph};
/// use dg_graph::generators;
///
/// let mut g = StaticEvolvingGraph::new(generators::path(9));
/// // Sources at both ends meet in the middle.
/// let run = flooding::flood_multi(&mut g, &[0, 8], 100);
/// assert_eq!(run.flooding_time(), Some(4));
/// ```
pub fn flood_multi<G: EvolvingGraph + ?Sized>(
    g: &mut G,
    sources: &[u32],
    max_rounds: u32,
) -> FloodRun {
    let trial = flood_trial(g, sources, max_rounds, None);
    FloodRun::from_trial(sources[0], trial)
}

/// Runs flooding from `source` on the lane executor: the model's lane
/// decomposition advances on `shards` threads and each round runs as a
/// scan round or an adjacency round (see [`crate::shard`]). The run is
/// byte-identical to [`flood`] on the same model and seed, for every
/// shard count — only wall-clock changes.
///
/// Falls back to [`flood`] when the model exposes no lane decomposition
/// ([`EvolvingGraph::sharding`]).
///
/// # Panics
///
/// Panics if `source` is out of range, or if `max_rounds` is
/// `u32::MAX` (reserved as the [`FloodRun::UNINFORMED`] sentinel).
pub fn flood_sharded<G: EvolvingGraph + ?Sized>(
    g: &mut G,
    source: u32,
    max_rounds: u32,
    shards: Shards,
) -> FloodRun {
    FloodRun::from_trial(source, flood_trial(g, &[source], max_rounds, Some(shards)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeriodicEvolvingGraph, StaticEvolvingGraph};
    use dg_graph::generators;

    #[test]
    fn complete_graph_one_round() {
        let mut g = StaticEvolvingGraph::new(generators::complete(10));
        let run = flood(&mut g, 3, 10);
        assert_eq!(run.flooding_time(), Some(1));
        assert_eq!(run.sizes(), &[1, 10]);
        assert_eq!(run.informed_at()[3], 0);
        assert_eq!(run.informed_round(3), Some(0));
        assert!(run.informed_at().iter().all(|&x| x != FloodRun::UNINFORMED));
    }

    #[test]
    fn path_floods_in_diameter_rounds() {
        let mut g = StaticEvolvingGraph::new(generators::path(7));
        let run = flood(&mut g, 0, 100);
        assert_eq!(run.flooding_time(), Some(6));
        // From the middle it is the eccentricity.
        let run = flood(&mut g, 3, 100);
        assert_eq!(run.flooding_time(), Some(3));
    }

    #[test]
    fn single_node_floods_instantly() {
        let mut g = StaticEvolvingGraph::new(generators::path(1));
        let run = flood(&mut g, 0, 10);
        assert_eq!(run.flooding_time(), Some(0));
    }

    #[test]
    fn disconnected_never_completes() {
        let g = dg_graph::GraphBuilder::new(4).build();
        let mut g = StaticEvolvingGraph::new(g);
        let run = flood(&mut g, 0, 50);
        assert_eq!(run.flooding_time(), None);
        assert_eq!(run.informed_count(), 1);
        assert_eq!(run.sizes().len(), 51);
    }

    #[test]
    fn no_same_round_chaining() {
        // Path 0-1-2: in one static round, only node 1 learns from 0;
        // node 2 must wait one more round.
        let mut g = StaticEvolvingGraph::new(generators::path(3));
        let run = flood(&mut g, 0, 10);
        assert_eq!(run.informed_round(1), Some(1));
        assert_eq!(run.informed_round(2), Some(2));
    }

    #[test]
    fn monotone_growth() {
        let mut g = StaticEvolvingGraph::new(generators::grid(4, 4));
        let run = flood(&mut g, 0, 100);
        for w in run.sizes().windows(2) {
            assert!(w[0] <= w[1], "informed set must be monotone");
        }
    }

    #[test]
    fn alternating_graphs_combine() {
        // Two halves of a path alternate; flooding must thread through both.
        let mut even = dg_graph::GraphBuilder::new(4);
        even.add_edges([(0, 1), (2, 3)]).unwrap();
        let mut odd = dg_graph::GraphBuilder::new(4);
        odd.add_edges([(1, 2)]).unwrap();
        let mut g = PeriodicEvolvingGraph::new(&[even.build(), odd.build()]).unwrap();
        let run = flood(&mut g, 0, 10);
        // Round 1 (E_0 = even): 1 informed. Round 2 (E_1 = odd): 2 informed.
        // Round 3 (E_2 = even): 3 informed.
        assert_eq!(run.flooding_time(), Some(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let mut g = StaticEvolvingGraph::new(generators::path(3));
        let _ = flood(&mut g, 3, 10);
    }

    #[test]
    #[should_panic(expected = "max_rounds must be below u32::MAX (the UNINFORMED sentinel)")]
    fn max_rounds_at_sentinel_rejected() {
        let mut g = StaticEvolvingGraph::new(generators::path(3));
        let _ = flood(&mut g, 0, u32::MAX);
    }

    /// Hides a model's native deltas, forcing the snapshot fallback.
    struct ForceRebuild<G>(G);

    impl<G: EvolvingGraph> EvolvingGraph for ForceRebuild<G> {
        fn node_count(&self) -> usize {
            self.0.node_count()
        }
        fn step(&mut self) -> &crate::Snapshot {
            self.0.step()
        }
        fn reset(&mut self, seed: u64) {
            self.0.reset(seed)
        }
    }

    #[test]
    fn frontier_sweep_matches_snapshot_sweep() {
        // The periodic process exercises appearing *and* disappearing
        // edges; the two sweeps must agree run for run, including the
        // per-node informed rounds.
        let mut even = dg_graph::GraphBuilder::new(6);
        even.add_edges([(0, 1), (2, 3), (4, 5)]).unwrap();
        let mut odd = dg_graph::GraphBuilder::new(6);
        odd.add_edges([(1, 2), (3, 4)]).unwrap();
        let graphs = [even.build(), odd.build()];
        for source in 0..6 {
            let delta_path = {
                let mut g = PeriodicEvolvingGraph::new(&graphs).unwrap();
                assert!(g.has_native_deltas());
                flood(&mut g, source, 50)
            };
            let snapshot_path = {
                let mut g = ForceRebuild(PeriodicEvolvingGraph::new(&graphs).unwrap());
                assert!(!g.has_native_deltas());
                flood(&mut g, source, 50)
            };
            assert_eq!(delta_path, snapshot_path, "source {source}");
        }
    }

    #[test]
    fn frontier_sweep_matches_snapshot_sweep_multi_source() {
        let graphs = [generators::path(9), generators::cycle(9)];
        let a = flood_multi(
            &mut PeriodicEvolvingGraph::new(&graphs).unwrap(),
            &[0, 8],
            50,
        );
        let b = flood_multi(
            &mut ForceRebuild(PeriodicEvolvingGraph::new(&graphs).unwrap()),
            &[0, 8],
            50,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn multi_source_helps() {
        let mut g = StaticEvolvingGraph::new(generators::cycle(12));
        let single = flood(&mut g, 0, 100).flooding_time().unwrap();
        let multi = flood_multi(&mut g, &[0, 6], 100).flooding_time().unwrap();
        assert!(multi < single, "multi {multi} vs single {single}");
        assert_eq!(multi, 3); // opposite sources on C12 cover in ceil(10/2/2)... exactly 3
    }

    #[test]
    fn multi_source_single_equals_flood() {
        let mut g = StaticEvolvingGraph::new(generators::grid(3, 4));
        let a = flood(&mut g, 2, 100);
        let b = flood_multi(&mut g, &[2], 100);
        assert_eq!(a, b);
    }

    #[test]
    fn multi_source_all_nodes_instant() {
        let mut g = StaticEvolvingGraph::new(generators::path(4));
        let run = flood_multi(&mut g, &[0, 1, 2, 3], 10);
        assert_eq!(run.flooding_time(), Some(0));
    }

    #[test]
    #[should_panic(expected = "duplicate source")]
    fn multi_source_duplicates_panic() {
        let mut g = StaticEvolvingGraph::new(generators::path(3));
        let _ = flood_multi(&mut g, &[1, 1], 10);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn multi_source_empty_panics() {
        let mut g = StaticEvolvingGraph::new(generators::path(3));
        let _ = flood_multi(&mut g, &[], 10);
    }
}
