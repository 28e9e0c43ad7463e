//! Immutable CSR (compressed sparse row) graph.

use crate::NodeId;

/// An immutable simple undirected graph in CSR form.
///
/// Built via [`crate::GraphBuilder`] or the [`crate::generators`] module.
/// Each undirected edge `{u, v}` is stored in both adjacency lists;
/// adjacency lists are sorted, enabling `O(log deg)` membership tests.
///
/// # Examples
///
/// ```
/// use dg_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1).unwrap();
/// b.add_edge(1, 2).unwrap();
/// let g = b.build();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    edge_count: usize,
}

impl Graph {
    pub(crate) fn from_csr(offsets: Vec<u32>, targets: Vec<NodeId>, edge_count: usize) -> Self {
        debug_assert_eq!(
            *offsets.last().expect("offsets non-empty") as usize,
            targets.len()
        );
        Graph {
            offsets,
            targets,
            edge_count,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Degree of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        assert!(u < self.node_count(), "node {u} out of range");
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Sorted adjacency list of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        assert!(u < self.node_count(), "node {u} out of range");
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// `true` if the edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if (u as usize) >= self.node_count() || (v as usize) >= self.node_count() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.node_count() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Iterates over node identifiers `0..node_count`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_count() as NodeId
    }
}

/// Iterator over the neighbors of a node (alias for the slice iterator).
pub type Neighbors<'a> = std::slice::Iter<'a, NodeId>;

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn triangle() -> crate::Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(2, 0).unwrap();
        b.build()
    }

    #[test]
    fn triangle_shape() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        for u in 0..3 {
            assert_eq!(g.degree(u), 2);
        }
    }

    #[test]
    fn neighbors_sorted() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(3, 0).unwrap();
        b.add_edge(3, 2).unwrap();
        b.add_edge(3, 1).unwrap();
        let g = b.build();
        assert_eq!(g.neighbors(3), &[0, 1, 2]);
    }

    #[test]
    fn has_edge_symmetric() {
        let g = triangle();
        for u in 0..3u32 {
            for v in 0..3u32 {
                assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn has_edge_out_of_range_is_false() {
        let g = triangle();
        assert!(!g.has_edge(0, 100));
        assert!(!g.has_edge(100, 0));
    }

    #[test]
    fn edges_enumerated_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn isolated_nodes_allowed() {
        let b = GraphBuilder::new(5);
        let g = b.build();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(4), 0);
    }
}
