//! Structural topology analysis beyond Table I: bisection bandwidth,
//! degree/distance distributions, and DOT export.
//!
//! Jellyfish's pitch (and the paper's motivation) rests on the RRG's high
//! bisection bandwidth and short, tightly concentrated path lengths;
//! these estimators let users verify those properties on their own
//! instances.

use crate::graph::{Graph, NodeId};
use crate::metrics::bfs_distances;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Estimated bisection bandwidth statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BisectionEstimate {
    /// Minimum crossing-edge count over the sampled balanced bisections —
    /// an *upper bound* on the true bisection width.
    pub min_cut_edges: usize,
    /// Mean crossing-edge count over samples (a random bisection of an
    /// RRG crosses about half the edges).
    pub mean_cut_edges: f64,
    /// Bisections sampled.
    pub samples: usize,
}

/// Estimates bisection bandwidth by sampling random balanced bisections
/// and a greedy local-search refinement (Kernighan–Lin-style single
/// swaps) on each.
///
/// The true minimum bisection is NP-hard; for RRGs the refined estimate
/// concentrates quickly and is the standard way topology papers compare
/// "bisection bandwidth". Deterministic per seed.
pub fn estimate_bisection(graph: &Graph, samples: usize, seed: u64) -> BisectionEstimate {
    assert!(samples > 0, "need at least one sample");
    let n = graph.num_nodes();
    assert!(n >= 2, "bisection needs at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best = usize::MAX;
    let mut sum = 0usize;
    let mut side = vec![false; n];
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    for _ in 0..samples {
        order.shuffle(&mut rng);
        for (i, &u) in order.iter().enumerate() {
            side[u as usize] = i < n / 2;
        }
        let refined = refine_bisection(graph, &mut side);
        sum += refined;
        best = best.min(refined);
    }
    BisectionEstimate { min_cut_edges: best, mean_cut_edges: sum as f64 / samples as f64, samples }
}

/// Greedy pairwise-swap refinement; returns the final cut size.
fn refine_bisection(graph: &Graph, side: &mut [bool]) -> usize {
    let cut = |side: &[bool]| -> usize {
        graph.edges().filter(|&(u, v)| side[u as usize] != side[v as usize]).count()
    };
    // Kernighan-Lin gain of moving u across: D(u) = external(u) -
    // internal(u), the cut reduction if u alone moved. Swapping u (left)
    // with v (right) reduces the cut by D(u) + D(v) - 2*[u~v].
    let gain = |side: &[bool], u: NodeId| -> i64 {
        let mut g = 0i64;
        for &w in graph.neighbors(u) {
            if side[w as usize] == side[u as usize] {
                g -= 1;
            } else {
                g += 1;
            }
        }
        g
    };
    let n = graph.num_nodes();
    let mut improved = true;
    let mut rounds = 0;
    while improved && rounds < 8 {
        improved = false;
        rounds += 1;
        for u in 0..n as NodeId {
            if !side[u as usize] {
                continue;
            }
            for v in 0..n as NodeId {
                if side[v as usize] {
                    continue;
                }
                let adj = graph.has_edge(u, v) as i64;
                if gain(side, u) + gain(side, v) - 2 * adj > 0 {
                    side[u as usize] = false;
                    side[v as usize] = true;
                    improved = true;
                    break;
                }
            }
        }
    }
    cut(side)
}

/// Distribution of shortest-path hop counts over ordered pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceHistogram {
    /// `counts[d]` = ordered pairs at distance `d` (index 0 unused).
    pub counts: Vec<u64>,
}

impl DistanceHistogram {
    /// Fraction of pairs within `d` hops.
    pub fn cumulative_fraction(&self, d: usize) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let within: u64 = self.counts.iter().take(d + 1).sum();
        within as f64 / total as f64
    }
}

/// Exact distance histogram via all-sources BFS.
pub fn distance_histogram(graph: &Graph) -> DistanceHistogram {
    let n = graph.num_nodes();
    let mut counts: Vec<u64> = Vec::new();
    for src in 0..n as NodeId {
        for (v, &d) in bfs_distances(graph, src).iter().enumerate() {
            if v as NodeId == src || d == u32::MAX {
                continue;
            }
            if counts.len() <= d as usize {
                counts.resize(d as usize + 1, 0);
            }
            counts[d as usize] += 1;
        }
    }
    DistanceHistogram { counts }
}

/// Renders the graph in Graphviz DOT format (undirected).
pub fn to_dot(graph: &Graph, name: &str) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(graph.num_edges() * 12 + 64);
    writeln!(out, "graph {name} {{").unwrap();
    for (u, v) in graph.edges() {
        writeln!(out, "  {u} -- {v};").unwrap();
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrg::{build_rrg, ConstructionMethod, RrgParams};

    #[test]
    fn bisection_of_cycle_is_two() {
        // A cycle's minimum bisection cuts exactly 2 edges; the refiner
        // must find it on a small instance.
        let g =
            Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)]);
        let est = estimate_bisection(&g, 20, 1);
        assert_eq!(est.min_cut_edges, 2, "{est:?}");
        assert!(est.mean_cut_edges >= 2.0);
    }

    #[test]
    fn bisection_of_complete_graph() {
        // K4 balanced bisection always cuts exactly 4 edges.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let est = estimate_bisection(&g, 5, 0);
        assert_eq!(est.min_cut_edges, 4);
        assert_eq!(est.mean_cut_edges, 4.0);
    }

    #[test]
    fn rrg_bisection_is_large() {
        // Jellyfish's selling point: an RRG's bisection is a large
        // constant fraction of its edges (vs. ~2/N for a ring).
        let p = RrgParams::new(20, 12, 8);
        let g = build_rrg(p, ConstructionMethod::Incremental, 4).unwrap();
        let est = estimate_bisection(&g, 10, 2);
        let frac = est.min_cut_edges as f64 / g.num_edges() as f64;
        assert!(frac > 0.25, "bisection fraction {frac} suspiciously small");
    }

    #[test]
    fn distance_histogram_counts_all_pairs() {
        let p = RrgParams::new(16, 8, 5);
        let g = build_rrg(p, ConstructionMethod::Incremental, 9).unwrap();
        let h = distance_histogram(&g);
        assert_eq!(h.counts.iter().sum::<u64>(), 16 * 15);
        assert_eq!(h.counts[0], 0);
        assert!(h.counts[1] as usize == 16 * 5, "degree-regular: 5 neighbors each");
        assert!((h.cumulative_fraction(10) - 1.0).abs() < 1e-12);
        assert!(h.cumulative_fraction(0) == 0.0);
    }

    #[test]
    fn dot_export_contains_every_edge() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let dot = to_dot(&g, "test");
        assert!(dot.starts_with("graph test {"));
        assert!(dot.contains("0 -- 1;"));
        assert!(dot.contains("1 -- 2;"));
        assert_eq!(dot.matches("--").count(), 2);
    }
}
