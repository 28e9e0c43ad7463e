//! The flooding process of §2: single-run primitives.
//!
//! Flooding with source `s`: `I_0 = {s}` and
//! `I_{t+1} = I_t ∪ { j : ∃ i ∈ I_t, {i, j} ∈ E_t }` — newly informed
//! nodes start relaying only in the *next* round. The flooding time
//! `F(G, s)` is the first `t` with `I_t = [n]`.
//!
//! [`flood`] and [`flood_multi`] step one realization by hand (and serve
//! as the independent reference implementation the engine is tested
//! against). On models advertising
//! [`EvolvingGraph::has_native_deltas`] they run a *frontier sweep* over
//! a [`crate::DynAdjacency`] — per-round cost proportional to the
//! frontier's adjacency plus the round's churn, instead of a full
//! `O(m + n)` snapshot rebuild and informed-set scan; the two sweeps
//! produce identical runs. For Monte-Carlo measurement use the unified
//! [`crate::engine::Simulation`] builder.

use crate::delta::{DynAdjacency, EdgeDelta};
use crate::shard::{flood_sharded_core, FirstRounds, ShardScratch, Shards};
use crate::EvolvingGraph;

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
/// Panics if `source` is out of range.
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
    let n = g.node_count();
    assert!((source as usize) < n, "source {source} out of range");
    flood_core(g, &[source], max_rounds)
}

/// The shared flooding loop behind [`flood`] and [`flood_multi`]:
/// validated sources in, [`FloodRun`] out. Dispatches between the
/// frontier/delta sweep (models with native deltas) and the classic
/// snapshot sweep — both produce identical runs (the property and engine
/// test suites pin this).
fn flood_core<G: EvolvingGraph + ?Sized>(g: &mut G, sources: &[u32], max_rounds: u32) -> FloodRun {
    let n = g.node_count();
    let mut informed = vec![false; n];
    let mut informed_at = vec![FloodRun::UNINFORMED; n];
    let mut informed_list: Vec<u32> = Vec::with_capacity(n);
    for &s in sources {
        informed[s as usize] = true;
        informed_at[s as usize] = 0;
        informed_list.push(s);
    }
    let mut sizes = vec![informed_list.len() as u32];
    let mut completed_at = (informed_list.len() == n).then_some(0u32);
    let mut new_nodes: Vec<u32> = Vec::new();
    let mut t = 0u32;
    if g.has_native_deltas() {
        // Frontier sweep: a node joins I_{t+1} iff it currently neighbors
        // a node informed in round t (the frontier) or an edge created
        // this round links it to any informed node — older informed nodes
        // with older edges would already have delivered. Per-round cost is
        // O(frontier adjacency + churn) instead of O(|I_t| adjacency).
        let mut adj = DynAdjacency::new(n);
        let mut delta = EdgeDelta::new();
        let mut frontier_start = 0usize;
        // Start from a fresh baseline so the first delta carries the full
        // current edge set (the model may have been stepped before).
        g.rebase_deltas();
        while completed_at.is_none() && t < max_rounds {
            g.step_delta(&mut delta);
            adj.apply(&delta);
            new_nodes.clear();
            // Relays must be members of I_t: `informed_at` is still the
            // sentinel for nodes first reached during this scan, so they
            // cannot chain within the round.
            for &(u, v) in delta.added() {
                if informed_at[u as usize] != FloodRun::UNINFORMED && !informed[v as usize] {
                    informed[v as usize] = true;
                    new_nodes.push(v);
                }
                if informed_at[v as usize] != FloodRun::UNINFORMED && !informed[u as usize] {
                    informed[u as usize] = true;
                    new_nodes.push(u);
                }
            }
            for &u in &informed_list[frontier_start..] {
                for &v in adj.neighbors(u) {
                    if !informed[v as usize] {
                        informed[v as usize] = true;
                        new_nodes.push(v);
                    }
                }
            }
            frontier_start = informed_list.len();
            t += 1;
            for &v in &new_nodes {
                informed_at[v as usize] = t;
            }
            informed_list.extend_from_slice(&new_nodes);
            sizes.push(informed_list.len() as u32);
            if informed_list.len() == n {
                completed_at = Some(t);
            }
        }
    } else {
        while completed_at.is_none() && t < max_rounds {
            let snap = g.step();
            new_nodes.clear();
            // Only nodes of I_t relay in round t; `informed_list` is
            // extended after the scan, so same-round chaining cannot
            // occur.
            for &u in &informed_list {
                for &v in snap.neighbors(u) {
                    if !informed[v as usize] {
                        informed[v as usize] = true;
                        new_nodes.push(v);
                    }
                }
            }
            t += 1;
            for &v in &new_nodes {
                informed_at[v as usize] = t;
            }
            informed_list.extend_from_slice(&new_nodes);
            sizes.push(informed_list.len() as u32);
            if informed_list.len() == n {
                completed_at = Some(t);
            }
        }
    }
    FloodRun {
        source: sources[0],
        informed_at,
        sizes,
        completed_at,
    }
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
/// out-of-range node.
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
    let n = g.node_count();
    assert!(!sources.is_empty(), "need at least one source");
    let mut seen = vec![false; n];
    for &s in sources {
        assert!((s as usize) < n, "source {s} out of range");
        assert!(!seen[s as usize], "duplicate source {s}");
        seen[s as usize] = true;
    }
    flood_core(g, sources, max_rounds)
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
    let n = g.node_count();
    assert!((source as usize) < n, "source {source} out of range");
    assert_ne!(
        max_rounds,
        u32::MAX,
        "max_rounds must leave room for the uninformed sentinel"
    );
    if g.sharding().is_none() {
        return flood(g, source, max_rounds);
    }
    // Same baseline contract as the serial delta sweep: the first
    // adjacency round carries the full current edge set.
    g.rebase_deltas();
    let mut scratch = ShardScratch::default();
    let mut sizes = vec![1u32];
    let access = g.sharding().expect("probed above");
    let outcome = flood_sharded_core(
        n,
        access,
        &[source],
        max_rounds,
        shards.resolve(),
        FirstRounds::Scan,
        &mut scratch,
        |ev| sizes.push(ev.informed_count as u32),
    );
    FloodRun {
        source,
        informed_at: std::mem::take(&mut scratch.informed_at),
        sizes,
        completed_at: outcome.completed,
    }
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
