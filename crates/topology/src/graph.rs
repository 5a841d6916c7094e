//! Compact undirected graph with stable directed link identifiers.
//!
//! The routing and simulation crates keep per-link state (loads, queues,
//! credits) in flat vectors indexed by [`LinkId`], so the graph exposes a
//! CSR layout where the directed link `u -> v` is identified by the position
//! of `v` inside `u`'s (sorted) adjacency slice.

/// Identifier of a switch (graph vertex).
pub type NodeId = u32;

/// Identifier of a *directed* link `u -> v`.
///
/// Equal to the CSR position of `v` within `u`'s adjacency, i.e. links out
/// of node `u` occupy the contiguous range `offsets[u]..offsets[u + 1]`.
/// An undirected edge therefore yields two link ids, one per direction.
pub type LinkId = u32;

/// Immutable undirected graph in CSR form.
///
/// Adjacency lists are sorted by neighbor id, which makes link lookup a
/// binary search and makes the deterministic variants of the routing
/// algorithms reproducible across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<u32>,
    neighbors: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph from an undirected edge list over `n` nodes.
    ///
    /// Duplicate edges and self-loops are rejected via debug assertions in
    /// [`GraphBuilder`]; use the builder for incremental construction.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut builder = GraphBuilder::new(n);
        for &(u, v) in edges {
            builder.add_edge(u, v);
        }
        builder.build()
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Number of directed links (`2 * num_edges`).
    #[inline]
    pub fn num_links(&self) -> usize {
        self.neighbors.len()
    }

    /// Degree of node `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Neighbors of `u`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Whether `u` and `v` are adjacent.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Directed link id for `u -> v`, if the edge exists.
    #[inline]
    pub fn link_id(&self, u: NodeId, v: NodeId) -> Option<LinkId> {
        self.neighbors(u).binary_search(&v).ok().map(|pos| self.offsets[u as usize] + pos as u32)
    }

    /// Source node of a directed link (the `u` in `u -> v`).
    ///
    /// O(log n) via binary search over the CSR offsets.
    #[inline]
    pub fn link_src(&self, link: LinkId) -> NodeId {
        // partition_point returns the first offset > link, so subtracting one
        // lands on the owning node.
        (self.offsets.partition_point(|&off| off <= link) - 1) as NodeId
    }

    /// Destination node of a directed link (the `v` in `u -> v`).
    #[inline]
    pub fn link_dst(&self, link: LinkId) -> NodeId {
        self.neighbors[link as usize]
    }

    /// The directed links leaving node `u` as a contiguous id range.
    #[inline]
    pub fn out_links(&self, u: NodeId) -> std::ops::Range<u32> {
        self.offsets[u as usize]..self.offsets[u as usize + 1]
    }

    /// Link id of the reverse direction `v -> u` of `u -> v`.
    #[inline]
    pub fn reverse_link(&self, link: LinkId) -> LinkId {
        let u = self.link_src(link);
        let v = self.link_dst(link);
        self.link_id(v, u).expect("undirected graph must contain the reverse link")
    }

    /// Checks that every node has degree exactly `d`.
    pub fn is_regular(&self, d: usize) -> bool {
        (0..self.num_nodes() as NodeId).all(|u| self.degree(u) == d)
    }

    /// Whether the graph is connected (trivially true for `n == 0`).
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Stable 64-bit content fingerprint of the graph.
    ///
    /// FNV-1a over the CSR arrays (lengths first, then every word in
    /// little-endian byte order), so two graphs fingerprint equal iff
    /// their canonical CSR representations are identical — the identity
    /// the path-table cache keys on. The value is independent of platform
    /// endianness and stable across processes and versions of this crate
    /// as long as the CSR layout itself is unchanged.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        #[inline]
        fn eat(mut h: u64, v: u32) -> u64 {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
            h
        }
        let mut h = FNV_OFFSET;
        h = eat(h, self.offsets.len() as u32);
        h = eat(h, self.neighbors.len() as u32);
        for &o in &self.offsets {
            h = eat(h, o);
        }
        for &v in &self.neighbors {
            h = eat(h, v);
        }
        h
    }

    /// Iterates over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes() as NodeId).flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }
}

/// Incremental builder for [`Graph`].
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph over `n` nodes.
    pub fn new(n: usize) -> Self {
        Self { n, edges: Vec::new() }
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u != v, "self-loop {u} rejected");
        assert!((u as usize) < self.n && (v as usize) < self.n, "endpoint out of range");
        self.edges.push((u.min(v), u.max(v)));
    }

    /// Finalizes the CSR representation.
    ///
    /// # Panics
    /// Panics if the edge list contains duplicates.
    pub fn build(self) -> Graph {
        let mut degree = vec![0u32; self.n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..self.n].to_vec();
        let mut neighbors = vec![0 as NodeId; acc as usize];
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        for u in 0..self.n {
            let lo = offsets[u] as usize;
            let hi = offsets[u + 1] as usize;
            let slice = &mut neighbors[lo..hi];
            slice.sort_unstable();
            assert!(slice.windows(2).all(|w| w[0] != w[1]), "duplicate edge at node {u}");
        }
        Graph { offsets, neighbors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn csr_layout_and_counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_links(), 6);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn link_ids_roundtrip() {
        let g = triangle();
        for u in 0..3u32 {
            for &v in g.neighbors(u) {
                let l = g.link_id(u, v).unwrap();
                assert_eq!(g.link_src(l), u);
                assert_eq!(g.link_dst(l), v);
                assert_eq!(g.link_dst(g.reverse_link(l)), u);
                assert_eq!(g.link_src(g.reverse_link(l)), v);
            }
        }
    }

    #[test]
    fn missing_edge_has_no_link() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(g.link_id(0, 2), None);
        assert!(!g.has_edge(1, 3));
        assert!(!g.is_connected());
    }

    #[test]
    fn out_links_cover_degree() {
        let g = triangle();
        for u in 0..3u32 {
            assert_eq!(g.out_links(u).len(), g.degree(u));
        }
    }

    #[test]
    fn regularity_check() {
        assert!(triangle().is_regular(2));
        let path = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(!path.is_regular(2));
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = triangle();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.build();
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let g = triangle();
        // Same content, same fingerprint — including across builder paths.
        assert_eq!(g.fingerprint(), triangle().fingerprint());
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 0);
        b.add_edge(1, 0);
        b.add_edge(2, 1);
        assert_eq!(b.build().fingerprint(), g.fingerprint());
        // Any structural difference changes it.
        let path = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_ne!(path.fingerprint(), g.fingerprint());
        let bigger = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2)]);
        assert_ne!(bigger.fingerprint(), g.fingerprint());
        // Pin the value: the on-disk cache key must not drift silently.
        assert_eq!(Graph::from_edges(0, &[]).fingerprint(), 0x5f24_2d39_c242_2be4);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        assert!(g.is_connected());
        assert_eq!(g.num_links(), 0);
    }
}
