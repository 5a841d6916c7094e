//! Path-quality statistics (paper Tables II–IV).
//!
//! For a computed [`PathTable`] this module reports:
//!
//! * the **average path length** in hops over all paths (Table II);
//! * the **percentage of pairs whose paths are fully link-disjoint**
//!   (Table III) — with EDKSP/rEDKSP this is 100% by construction;
//! * the **maximum number of paths of a single pair sharing one link**
//!   (Table IV) — the paper's measure of how badly the vanilla KSP bias
//!   concentrates a pair's paths onto one link.

use crate::table::PathTable;
use jellyfish_topology::Graph;

/// Aggregated path-quality statistics for a path table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathProperties {
    /// Number of (ordered) pairs measured.
    pub pairs: usize,
    /// Mean path length (hops) over all paths of all pairs (Table II).
    pub avg_path_len: f64,
    /// Fraction (0..=1) of pairs whose paths share no directed link
    /// (Table III).
    pub disjoint_pair_fraction: f64,
    /// Max, over pairs, of the max number of that pair's paths using one
    /// directed link (Table IV). 1 means fully disjoint everywhere.
    pub max_link_share: usize,
    /// Mean number of paths per pair (k for the fixed-k schemes, variable
    /// for LLSKR).
    pub avg_paths_per_pair: f64,
}

/// Computes [`PathProperties`] over every pair stored in `table`.
pub fn path_properties(graph: &Graph, table: &PathTable) -> PathProperties {
    let mut pairs = 0usize;
    let mut hop_sum = 0u64;
    let mut path_count = 0u64;
    let mut disjoint_pairs = 0usize;
    let mut max_share = 0usize;
    // Scratch: per-link usage count within one pair, reset sparsely.
    let mut usage = vec![0u32; graph.num_links()];
    let mut touched: Vec<u32> = Vec::new();

    for (_, _, ps) in table.entries() {
        pairs += 1;
        let mut pair_max = 0usize;
        for path in ps.iter() {
            hop_sum += (path.len() - 1) as u64;
            path_count += 1;
            for w in path.windows(2) {
                let l = graph.link_id(w[0], w[1]).expect("table paths must follow graph edges");
                if usage[l as usize] == 0 {
                    touched.push(l);
                }
                usage[l as usize] += 1;
                pair_max = pair_max.max(usage[l as usize] as usize);
            }
        }
        if pair_max <= 1 {
            disjoint_pairs += 1;
        }
        max_share = max_share.max(pair_max);
        for &l in &touched {
            usage[l as usize] = 0;
        }
        touched.clear();
    }

    PathProperties {
        pairs,
        avg_path_len: if path_count == 0 { 0.0 } else { hop_sum as f64 / path_count as f64 },
        disjoint_pair_fraction: if pairs == 0 { 0.0 } else { disjoint_pairs as f64 / pairs as f64 },
        max_link_share: max_share,
        avg_paths_per_pair: if pairs == 0 { 0.0 } else { path_count as f64 / pairs as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{PairSet, PathSelection, PathTable};
    use jellyfish_topology::{build_rrg, ConstructionMethod, RrgParams};

    fn rrg() -> Graph {
        build_rrg(RrgParams::new(20, 10, 6), ConstructionMethod::Incremental, 17).unwrap()
    }

    #[test]
    fn edksp_is_fully_disjoint() {
        let g = rrg();
        let t = PathTable::compute(&g, PathSelection::EdKsp(4), &PairSet::AllPairs, 0);
        let p = path_properties(&g, &t);
        assert_eq!(p.pairs, 20 * 19);
        assert_eq!(p.disjoint_pair_fraction, 1.0);
        assert_eq!(p.max_link_share, 1);
    }

    #[test]
    fn redksp_is_fully_disjoint() {
        let g = rrg();
        let t = PathTable::compute(&g, PathSelection::REdKsp(4), &PairSet::AllPairs, 5);
        let p = path_properties(&g, &t);
        assert_eq!(p.disjoint_pair_fraction, 1.0);
        assert_eq!(p.max_link_share, 1);
    }

    #[test]
    fn ksp_shares_links_on_rrg() {
        // Vanilla KSP concentrates paths; some pair must share a link.
        let g = rrg();
        let t = PathTable::compute(&g, PathSelection::Ksp(4), &PairSet::AllPairs, 0);
        let p = path_properties(&g, &t);
        assert!(p.disjoint_pair_fraction < 1.0);
        assert!(p.max_link_share >= 2);
    }

    #[test]
    fn randomization_does_not_lengthen_paths() {
        // Table II: rKSP has the same average path length as KSP (ties are
        // broken among equal-length paths only).
        let g = rrg();
        let ksp = PathTable::compute(&g, PathSelection::Ksp(4), &PairSet::AllPairs, 0);
        let rksp = PathTable::compute(&g, PathSelection::RKsp(4), &PairSet::AllPairs, 1);
        let a = path_properties(&g, &ksp);
        let b = path_properties(&g, &rksp);
        assert!((a.avg_path_len - b.avg_path_len).abs() < 1e-9);
    }

    #[test]
    fn edksp_not_shorter_than_ksp() {
        // Edge-disjointness can only lengthen (or preserve) path lengths.
        let g = rrg();
        let ksp = path_properties(
            &g,
            &PathTable::compute(&g, PathSelection::Ksp(4), &PairSet::AllPairs, 0),
        );
        let ed = path_properties(
            &g,
            &PathTable::compute(&g, PathSelection::EdKsp(4), &PairSet::AllPairs, 0),
        );
        assert!(ed.avg_path_len >= ksp.avg_path_len - 1e-9);
    }

    #[test]
    fn single_path_properties() {
        let g = rrg();
        let t = PathTable::compute(&g, PathSelection::SinglePath, &PairSet::AllPairs, 0);
        let p = path_properties(&g, &t);
        assert_eq!(p.avg_paths_per_pair, 1.0);
        assert_eq!(p.disjoint_pair_fraction, 1.0);
        assert_eq!(p.max_link_share, 1);
    }

    #[test]
    fn empty_table() {
        let g = rrg();
        let t = PathTable::compute(&g, PathSelection::Ksp(4), &PairSet::Pairs(vec![]), 0);
        let p = path_properties(&g, &t);
        assert_eq!(p.pairs, 0);
        assert_eq!(p.avg_path_len, 0.0);
    }
}
