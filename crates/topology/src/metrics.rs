//! Topology metrics reported in the paper (Table I).
//!
//! All metrics operate at the *switch* level: the average shortest path
//! length in Table I is the mean hop count over all ordered switch pairs.

use crate::graph::{Graph, NodeId};
use rayon::prelude::*;

/// Distance not reachable marker used by the BFS kernels.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances (hop counts) from `src`.
pub fn bfs_distances(graph: &Graph, src: NodeId) -> Vec<u32> {
    let n = graph.num_nodes();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = std::collections::VecDeque::with_capacity(n);
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in graph.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Summary statistics of a topology (Table I columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyStats {
    /// Number of switches.
    pub switches: usize,
    /// Number of undirected switch-to-switch links.
    pub edges: usize,
    /// Mean hop count over all ordered switch pairs.
    pub avg_shortest_path_len: f64,
    /// Maximum shortest-path hop count (graph diameter).
    pub diameter: u32,
}

/// Computes [`TopologyStats`] via all-sources BFS (parallelized with rayon).
pub fn topology_stats(graph: &Graph) -> TopologyStats {
    let n = graph.num_nodes();
    if n < 2 {
        return TopologyStats {
            switches: n,
            edges: graph.num_edges(),
            avg_shortest_path_len: 0.0,
            diameter: 0,
        };
    }
    let (sum, max) = (0..n as NodeId)
        .into_par_iter()
        .map(|src| {
            let dist = bfs_distances(graph, src);
            let mut s = 0u64;
            let mut m = 0u32;
            for &d in &dist {
                assert_ne!(d, UNREACHABLE, "topology_stats requires a connected graph");
                s += d as u64;
                m = m.max(d);
            }
            (s, m)
        })
        .reduce(|| (0u64, 0u32), |a, b| (a.0 + b.0, a.1.max(b.1)));
    TopologyStats {
        switches: n,
        edges: graph.num_edges(),
        avg_shortest_path_len: sum as f64 / (n as f64 * (n as f64 - 1.0)),
        diameter: max,
    }
}

/// Average shortest path length over all ordered switch pairs.
pub fn average_shortest_path_length(graph: &Graph) -> f64 {
    topology_stats(graph).avg_shortest_path_len
}

/// Graph diameter in hops.
pub fn diameter(graph: &Graph) -> u32 {
    topology_stats(graph).diameter
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrg::{build_rrg, ConstructionMethod, RrgParams};

    #[test]
    fn bfs_on_path_graph() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn stats_on_cycle() {
        // 4-cycle: distances from any node are 0,1,2,1 -> avg = 4/3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let s = topology_stats(&g);
        assert_eq!(s.diameter, 2);
        assert!((s.avg_shortest_path_len - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_on_complete_graph() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let s = topology_stats(&g);
        assert_eq!(s.diameter, 1);
        assert_eq!(s.avg_shortest_path_len, 1.0);
    }

    #[test]
    fn singleton_graph() {
        let g = Graph::from_edges(1, &[]);
        let s = topology_stats(&g);
        assert_eq!(s.avg_shortest_path_len, 0.0);
        assert_eq!(s.diameter, 0);
    }

    #[test]
    fn small_rrg_matches_paper_ballpark() {
        // Table I: RRG(36, 24, 16) has average shortest path length 1.54.
        // Individual instances vary slightly; accept a tight band.
        let g = build_rrg(RrgParams::small(), ConstructionMethod::Incremental, 11).unwrap();
        let s = topology_stats(&g);
        assert!(
            (1.45..1.65).contains(&s.avg_shortest_path_len),
            "avg spl {} out of expected band",
            s.avg_shortest_path_len
        );
        assert!(s.diameter <= 3);
    }
}
