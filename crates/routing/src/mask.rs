//! Temporary node/edge removal for Yen's algorithm and Remove-Find.
//!
//! Yen's algorithm repeatedly removes root-path nodes and spur edges from
//! the graph and restores them afterwards. Instead of copying the graph, a
//! [`Mask`] keeps two bitsets — removed nodes and removed *directed* links —
//! that the search kernels consult.

use jellyfish_topology::{Graph, LinkId, NodeId};

/// Bitset sized in 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(bits: usize) -> Self {
        Self { words: vec![0; bits.div_ceil(64)] }
    }

    #[inline]
    fn set(&mut self, i: u32) {
        self.words[(i / 64) as usize] |= 1 << (i % 64);
    }

    #[inline]
    fn get(&self, i: u32) -> bool {
        self.words[(i / 64) as usize] & (1 << (i % 64)) != 0
    }

    fn clear_all(&mut self) {
        self.words.fill(0);
    }

    fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }
}

/// Set of removed nodes and directed links overlaying a [`Graph`].
///
/// Removing an undirected edge removes both directed links. The mask is
/// reusable: [`Mask::reset`] clears all removals without reallocating.
#[derive(Debug, Clone)]
pub struct Mask {
    nodes: BitSet,
    links: BitSet,
}

impl Mask {
    /// Creates an empty mask for `graph`.
    pub fn new(graph: &Graph) -> Self {
        Self { nodes: BitSet::new(graph.num_nodes()), links: BitSet::new(graph.num_links()) }
    }

    /// Removes a node (and implicitly all paths through it).
    #[inline]
    pub fn remove_node(&mut self, u: NodeId) {
        self.nodes.set(u);
    }

    /// Whether node `u` is removed.
    #[inline]
    pub fn node_removed(&self, u: NodeId) -> bool {
        self.nodes.get(u)
    }

    /// Removes the undirected edge `{u, v}` (both directed links).
    ///
    /// No-op if the edge does not exist.
    pub fn remove_edge(&mut self, graph: &Graph, u: NodeId, v: NodeId) {
        if let Some(l) = graph.link_id(u, v) {
            self.links.set(l);
        }
        if let Some(l) = graph.link_id(v, u) {
            self.links.set(l);
        }
    }

    /// Whether the directed link id is removed.
    #[inline]
    pub fn link_removed(&self, l: LinkId) -> bool {
        self.links.get(l)
    }

    /// Removes every edge along a node path.
    pub fn remove_path_edges(&mut self, graph: &Graph, path: &[NodeId]) {
        for w in path.windows(2) {
            self.remove_edge(graph, w[0], w[1]);
        }
    }

    /// Clears all removals.
    pub fn reset(&mut self) {
        self.nodes.clear_all();
        self.links.clear_all();
    }

    /// True if anything is currently removed (diagnostic aid).
    pub fn is_dirty(&self) -> bool {
        self.nodes.any() || self.links.any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::Graph;

    fn square() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)])
    }

    #[test]
    fn node_removal_marks_only_that_node() {
        let g = square();
        let mut m = Mask::new(&g);
        assert!(!m.node_removed(2));
        m.remove_node(2);
        assert!(m.node_removed(2));
        assert!(m.is_dirty());
        assert!(!m.node_removed(1));
    }

    #[test]
    fn edge_removal_masks_both_directions() {
        let g = square();
        let mut m = Mask::new(&g);
        m.remove_edge(&g, 0, 1);
        assert!(m.link_removed(g.link_id(0, 1).unwrap()));
        assert!(m.link_removed(g.link_id(1, 0).unwrap()));
        assert!(!m.link_removed(g.link_id(1, 2).unwrap()));
    }

    #[test]
    fn removing_missing_edge_is_noop() {
        let g = square();
        let mut m = Mask::new(&g);
        m.remove_edge(&g, 0, 2); // not an edge
        assert!(!m.is_dirty());
    }

    #[test]
    fn remove_path_edges_covers_whole_path() {
        let g = square();
        let mut m = Mask::new(&g);
        m.remove_path_edges(&g, &[0, 1, 2]);
        assert!(m.link_removed(g.link_id(0, 1).unwrap()));
        assert!(m.link_removed(g.link_id(2, 1).unwrap()));
        assert!(!m.link_removed(g.link_id(2, 3).unwrap()));
    }

    #[test]
    fn reset_clears_everything() {
        let g = square();
        let mut m = Mask::new(&g);
        m.remove_node(1);
        m.remove_edge(&g, 2, 3);
        m.reset();
        assert!(!m.is_dirty());
        assert!(!m.node_removed(1));
        assert!(!m.link_removed(g.link_id(2, 3).unwrap()));
    }

    #[test]
    fn bitset_handles_word_boundaries() {
        let mut b = BitSet::new(130);
        for i in [0u32, 63, 64, 127, 128, 129] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        assert!(!b.get(1) && !b.get(65));
    }
}
