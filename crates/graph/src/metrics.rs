//! Graph metrics: eccentricity, diameter, degree statistics.
//!
//! The degree statistics feed the δ-regularity conditions of §4.1: a graph
//! `H` is δ-regular when `max deg / min deg <= δ` (Corollary 6), and a path
//! family is δ-regular when no point is a much busier crossroad than average
//! (Corollary 5).

use crate::traversal::{bfs_distances, UNREACHABLE};
use crate::{Graph, NodeId};

/// Eccentricity of `src`: the maximum hop distance to any reachable node;
/// `None` when some node is unreachable.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn eccentricity(g: &Graph, src: NodeId) -> Option<u32> {
    let d = bfs_distances(g, src);
    let mut ecc = 0;
    for &x in &d {
        if x == UNREACHABLE {
            return None;
        }
        ecc = ecc.max(x);
    }
    Some(ecc)
}

/// Exact diameter by all-pairs BFS (`O(n·m)`); `None` for a disconnected or
/// empty graph.
///
/// # Examples
///
/// ```
/// use dg_graph::{generators, metrics};
/// assert_eq!(metrics::diameter(&generators::cycle(8)), Some(4));
/// ```
pub fn diameter(g: &Graph) -> Option<u32> {
    if g.node_count() == 0 {
        return None;
    }
    let mut diam = 0;
    for u in g.nodes() {
        diam = diam.max(eccentricity(g, u)?);
    }
    Some(diam)
}

/// A fast diameter *lower bound* by a double BFS sweep (exact on trees,
/// usually tight on grids). Useful for graphs too large for [`diameter`].
pub fn diameter_double_sweep(g: &Graph) -> Option<u32> {
    if g.node_count() == 0 {
        return None;
    }
    let d0 = bfs_distances(g, 0);
    let (far, d_far) = d0
        .iter()
        .enumerate()
        .max_by_key(|&(_, &d)| d)
        .expect("non-empty");
    if *d_far == UNREACHABLE {
        return None;
    }
    eccentricity(g, far as NodeId)
}

/// Degree statistics of a graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
}

impl DegreeStats {
    /// The δ-regularity parameter `max deg / min deg` of §4.1 (Corollary 6);
    /// `None` when some node is isolated.
    pub fn regularity(&self) -> Option<f64> {
        if self.min == 0 {
            None
        } else {
            Some(self.max as f64 / self.min as f64)
        }
    }
}

/// Computes [`DegreeStats`]; `None` for the empty graph.
///
/// # Examples
///
/// ```
/// use dg_graph::{generators, metrics};
///
/// let stats = metrics::degree_stats(&generators::torus(4, 4)).unwrap();
/// assert_eq!(stats.min, 4);
/// assert_eq!(stats.max, 4);
/// assert_eq!(stats.regularity(), Some(1.0));
/// ```
pub fn degree_stats(g: &Graph) -> Option<DegreeStats> {
    if g.node_count() == 0 {
        return None;
    }
    let mut min = usize::MAX;
    let mut max = 0;
    let mut sum = 0usize;
    for u in g.nodes() {
        let d = g.degree(u);
        min = min.min(d);
        max = max.max(d);
        sum += d;
    }
    Some(DegreeStats {
        min,
        max,
        mean: sum as f64 / g.node_count() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    #[test]
    fn eccentricity_path_ends() {
        let g = generators::path(5);
        assert_eq!(eccentricity(&g, 0), Some(4));
        assert_eq!(eccentricity(&g, 2), Some(2));
    }

    #[test]
    fn diameter_known_families() {
        assert_eq!(diameter(&generators::path(7)), Some(6));
        assert_eq!(diameter(&generators::complete(5)), Some(1));
        assert_eq!(diameter(&generators::star(6)), Some(2));
        assert_eq!(diameter(&generators::grid(4, 5)), Some(7));
    }

    #[test]
    fn diameter_disconnected_none() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(diameter(&g), None);
        assert_eq!(eccentricity(&g, 0), None);
    }

    #[test]
    fn double_sweep_exact_on_path_and_grid() {
        for g in [generators::path(9), generators::grid(5, 5)] {
            assert_eq!(diameter_double_sweep(&g), diameter(&g));
        }
    }

    #[test]
    fn degree_stats_grid() {
        let g = generators::grid(3, 3);
        let s = degree_stats(&g).unwrap();
        assert_eq!(s.min, 2); // corners
        assert_eq!(s.max, 4); // center
        assert_eq!(s.regularity(), Some(2.0));
        assert!((s.mean - 2.0 * 12.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn regularity_none_with_isolated_node() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        let s = degree_stats(&b.build()).unwrap();
        assert_eq!(s.regularity(), None);
    }

    #[test]
    fn empty_graph_none() {
        let g = GraphBuilder::new(0).build();
        assert!(degree_stats(&g).is_none());
        assert!(diameter(&g).is_none());
        assert!(diameter_double_sweep(&g).is_none());
    }
}
