//! Three-level k-ary fat-tree topology (the baseline Jellyfish is
//! pitched against).
//!
//! Jellyfish's claim to fame (Singla et al., and the motivation in this
//! paper's introduction) is beating the fat-tree on cost-efficiency:
//! comparable bisection bandwidth and shorter average paths from the same
//! switch count. This module builds the standard 3-level k-ary fat-tree
//! so the comparison can be reproduced with the same [`Graph`] machinery.
//!
//! A `k`-ary fat-tree (`k` even) has:
//!
//! * `k` pods, each with `k/2` edge and `k/2` aggregation switches;
//! * `(k/2)^2` core switches;
//! * every edge switch hosts `k/2` compute nodes, `k^3/4` in total;
//! * `5k^2/4` switches overall.
//!
//! Switch numbering: edge switches first (pod-major), then aggregation
//! (pod-major), then core — so hosts attach to switches `0..k^2/2` in
//! order, compatible with [`crate::RrgParams`]-style host mapping helpers.

use crate::graph::{Graph, GraphBuilder, NodeId};

/// Parameters of a 3-level k-ary fat-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTreeParams {
    /// Switch radix `k` (must be even, >= 2).
    pub k: usize,
}

impl FatTreeParams {
    /// Creates parameters for radix `k`.
    pub const fn new(k: usize) -> Self {
        Self { k }
    }

    /// Validates the radix.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.k < 2 {
            return Err("fat-tree radix must be >= 2");
        }
        if !self.k.is_multiple_of(2) {
            return Err("fat-tree radix must be even");
        }
        Ok(())
    }

    /// Pods (`k`).
    pub fn pods(&self) -> usize {
        self.k
    }

    /// Edge switches (`k^2/2`).
    pub fn edge_switches(&self) -> usize {
        self.k * self.k / 2
    }

    /// Aggregation switches (`k^2/2`).
    pub fn agg_switches(&self) -> usize {
        self.k * self.k / 2
    }

    /// Core switches (`(k/2)^2`).
    pub fn core_switches(&self) -> usize {
        (self.k / 2) * (self.k / 2)
    }

    /// All switches (`5k^2/4`).
    pub fn switches(&self) -> usize {
        self.edge_switches() + self.agg_switches() + self.core_switches()
    }

    /// Compute nodes (`k^3/4`).
    pub fn num_hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Hosts per edge switch (`k/2`).
    pub fn hosts_per_edge(&self) -> usize {
        self.k / 2
    }

    /// The switch hosting compute node `h` (an edge switch).
    pub fn switch_of_host(&self, h: usize) -> NodeId {
        debug_assert!(h < self.num_hosts());
        (h / self.hosts_per_edge()) as NodeId
    }

    /// Node-id range of edge switches.
    pub fn edge_range(&self) -> std::ops::Range<NodeId> {
        0..self.edge_switches() as NodeId
    }

    /// Node-id range of aggregation switches.
    pub fn agg_range(&self) -> std::ops::Range<NodeId> {
        let e = self.edge_switches() as NodeId;
        e..e + self.agg_switches() as NodeId
    }

    /// Node-id range of core switches.
    pub fn core_range(&self) -> std::ops::Range<NodeId> {
        let ea = (self.edge_switches() + self.agg_switches()) as NodeId;
        ea..ea + self.core_switches() as NodeId
    }
}

/// Builds the switch-level graph of a 3-level k-ary fat-tree.
///
/// # Errors
/// Returns the validation message for an invalid radix.
pub fn build_fat_tree(params: FatTreeParams) -> Result<Graph, &'static str> {
    params.validate()?;
    let k = params.k;
    let half = k / 2;
    let mut b = GraphBuilder::new(params.switches());

    let edge = |pod: usize, i: usize| (pod * half + i) as NodeId;
    let agg = |pod: usize, i: usize| (params.edge_switches() + pod * half + i) as NodeId;
    let core = |i: usize| (params.edge_switches() + params.agg_switches() + i) as NodeId;

    for pod in 0..k {
        // Full bipartite edge <-> aggregation inside the pod.
        for e in 0..half {
            for a in 0..half {
                b.add_edge(edge(pod, e), agg(pod, a));
            }
        }
        // Aggregation switch `a` of every pod connects to core group `a`:
        // cores a*half .. a*half+half.
        for a in 0..half {
            for c in 0..half {
                b.add_edge(agg(pod, a), core(a * half + c));
            }
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::topology_stats;

    #[test]
    fn validates_radix() {
        assert!(FatTreeParams::new(3).validate().is_err());
        assert!(FatTreeParams::new(0).validate().is_err());
        assert!(FatTreeParams::new(4).validate().is_ok());
        assert!(build_fat_tree(FatTreeParams::new(5)).is_err());
    }

    #[test]
    fn k4_counts() {
        let p = FatTreeParams::new(4);
        assert_eq!(p.switches(), 20);
        assert_eq!(p.edge_switches(), 8);
        assert_eq!(p.agg_switches(), 8);
        assert_eq!(p.core_switches(), 4);
        assert_eq!(p.num_hosts(), 16);
        let g = build_fat_tree(p).unwrap();
        assert_eq!(g.num_nodes(), 20);
        // Edges: k pods * (k/2)^2 (edge-agg) + k pods * (k/2)^2 (agg-core)
        // = 16 + 16.
        assert_eq!(g.num_edges(), 32);
    }

    #[test]
    fn degrees_match_roles() {
        let p = FatTreeParams::new(6);
        let g = build_fat_tree(p).unwrap();
        for s in p.edge_range() {
            assert_eq!(g.degree(s), 3, "edge switch uplinks = k/2");
        }
        for s in p.agg_range() {
            assert_eq!(g.degree(s), 6, "aggregation degree = k");
        }
        for s in p.core_range() {
            assert_eq!(g.degree(s), 6, "core degree = k pods");
        }
    }

    #[test]
    fn is_connected_and_has_expected_diameter() {
        let p = FatTreeParams::new(4);
        let g = build_fat_tree(p).unwrap();
        assert!(g.is_connected());
        // Switch-level diameter of a 3-level fat-tree: edge -> agg ->
        // core -> agg -> edge = 4 hops.
        let stats = topology_stats(&g);
        assert_eq!(stats.diameter, 4);
    }

    #[test]
    fn host_mapping() {
        let p = FatTreeParams::new(4);
        assert_eq!(p.hosts_per_edge(), 2);
        assert_eq!(p.switch_of_host(0), 0);
        assert_eq!(p.switch_of_host(1), 0);
        assert_eq!(p.switch_of_host(2), 1);
        assert_eq!(p.switch_of_host(15), 7);
    }

    #[test]
    fn intra_pod_paths_avoid_core() {
        // Two edge switches in the same pod are 2 hops apart (via any
        // pod aggregation switch).
        let p = FatTreeParams::new(4);
        let g = build_fat_tree(p).unwrap();
        let d = crate::metrics::bfs_distances(&g, 0);
        assert_eq!(d[1], 2, "same-pod edge switches");
        // Different pods: 4 hops.
        assert_eq!(d[2], 4, "cross-pod edge switches");
    }

    #[test]
    fn core_reaches_every_pod_directly() {
        let p = FatTreeParams::new(6);
        let g = build_fat_tree(p).unwrap();
        for c in p.core_range() {
            // Each core connects to exactly one aggregation switch per pod.
            let mut pods_seen = std::collections::HashSet::new();
            for &a in g.neighbors(c) {
                let pod = (a as usize - p.edge_switches()) / (p.k / 2);
                assert!(pods_seen.insert(pod), "core {c} double-connects pod {pod}");
            }
            assert_eq!(pods_seen.len(), p.pods());
        }
    }
}
