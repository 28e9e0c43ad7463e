//! Edge-set snapshots `E_t` of a dynamic graph.

/// One round's edge set `E_t`, stored in CSR form for cache-friendly
/// flooding sweeps.
///
/// Snapshots are designed for reuse: a process keeps one `Snapshot` and
/// calls [`Snapshot::rebuild_from_edges`] every round, so the per-round
/// allocation cost is amortized away.
///
/// # Examples
///
/// ```
/// use dynagraph::Snapshot;
///
/// let mut s = Snapshot::empty(4);
/// s.rebuild_from_edges(&[(0, 1), (2, 3), (1, 2)]);
/// assert_eq!(s.edge_count(), 3);
/// assert_eq!(s.neighbors(1), &[0, 2]);
/// assert!(s.has_edge(2, 3));
/// assert!(!s.has_edge(0, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    node_count: usize,
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Snapshot {
    /// An edgeless snapshot over `n` nodes.
    pub fn empty(n: usize) -> Self {
        Snapshot {
            node_count: n,
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of undirected edges in this round.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// `true` if the snapshot has no edges at all (the paper's sparse
    /// regimes routinely produce such rounds).
    pub fn is_edgeless(&self) -> bool {
        self.targets.is_empty()
    }

    /// Degree of `u` in this round.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: u32) -> usize {
        let u = u as usize;
        assert!(u < self.node_count, "node {u} out of range");
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Sorted adjacency list of `u` in this round.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let u = u as usize;
        assert!(u < self.node_count, "node {u} out of range");
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// `true` if edge `{u, v}` is present this round.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if (u as usize) >= self.node_count || (v as usize) >= self.node_count {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.node_count as u32).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Rebuilds the snapshot in place from an undirected edge list.
    ///
    /// Self-loops and duplicate edges must not be supplied (process
    /// implementations guarantee this by construction); in debug builds
    /// they are caught by assertions.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn rebuild_from_edges(&mut self, edges: &[(u32, u32)]) {
        let n = self.node_count;
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &(u, v) in edges {
            debug_assert_ne!(u, v, "self-loop supplied to snapshot");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            self.offsets[u as usize + 1] += 1;
            self.offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.targets.clear();
        self.targets.resize(self.offsets[n] as usize, 0);
        let mut cursor: Vec<u32> = self.offsets[..n].to_vec();
        for &(u, v) in edges {
            self.targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            self.targets[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        for i in 0..n {
            self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize].sort_unstable();
        }
    }

    /// Rebuilds the snapshot in place from per-node sorted adjacency
    /// lists (the storage of [`crate::DynAdjacency`]); the result is
    /// byte-identical to [`Snapshot::rebuild_from_edges`] over the same
    /// edge set.
    pub(crate) fn rebuild_from_sorted_adjacency(&mut self, adj: &[Vec<u32>]) {
        debug_assert_eq!(adj.len(), self.node_count);
        self.offsets.clear();
        self.offsets.push(0);
        let mut total = 0u32;
        for list in adj {
            total += list.len() as u32;
            self.offsets.push(total);
        }
        self.targets.clear();
        for list in adj {
            debug_assert!(list.windows(2).all(|w| w[0] < w[1]));
            self.targets.extend_from_slice(list);
        }
    }

    /// Converts this round's edge set into a static [`dg_graph::Graph`]
    /// (for connectivity analysis of individual snapshots).
    pub fn to_graph(&self) -> dg_graph::Graph {
        let mut b = dg_graph::GraphBuilder::new(self.node_count);
        for (u, v) in self.edges() {
            b.add_edge(u, v).expect("snapshot edges are valid");
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot() {
        let s = Snapshot::empty(3);
        assert_eq!(s.node_count(), 3);
        assert_eq!(s.edge_count(), 0);
        assert!(s.is_edgeless());
        assert_eq!(s.degree(2), 0);
        assert!(s.neighbors(0).is_empty());
    }

    #[test]
    fn rebuild_and_query() {
        let mut s = Snapshot::empty(5);
        s.rebuild_from_edges(&[(4, 0), (1, 2), (0, 2)]);
        assert_eq!(s.edge_count(), 3);
        assert_eq!(s.neighbors(0), &[2, 4]);
        assert_eq!(s.degree(2), 2);
        assert!(s.has_edge(0, 4));
        assert!(s.has_edge(4, 0));
        assert!(!s.has_edge(1, 4));
        assert!(!s.has_edge(0, 99));
    }

    #[test]
    fn rebuild_clears_previous_round() {
        let mut s = Snapshot::empty(4);
        s.rebuild_from_edges(&[(0, 1), (2, 3)]);
        s.rebuild_from_edges(&[(1, 2)]);
        assert_eq!(s.edge_count(), 1);
        assert!(!s.has_edge(0, 1));
        assert!(s.has_edge(1, 2));
        s.rebuild_from_edges(&[]);
        assert!(s.is_edgeless());
    }

    #[test]
    fn edges_iterator_round_trip() {
        let mut s = Snapshot::empty(6);
        let edges = [(0, 5), (1, 3), (2, 4)];
        s.rebuild_from_edges(&edges);
        let mut seen: Vec<_> = s.edges().collect();
        seen.sort_unstable();
        assert_eq!(seen, edges);
    }

    #[test]
    fn to_graph_matches() {
        let mut s = Snapshot::empty(4);
        s.rebuild_from_edges(&[(0, 1), (1, 2)]);
        let g = s.to_graph();
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(!dg_graph::traversal::is_connected(&g)); // node 3 isolated
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut s = Snapshot::empty(2);
        s.rebuild_from_edges(&[(0, 2)]);
    }
}
