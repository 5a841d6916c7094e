#![warn(missing_docs)]
//! MPTCP-style throughput model (paper Section IV-A, Eq. (1)).
//!
//! The model of Yuan et al. estimates the throughput of multi-path routing
//! with an MPTCP-like transport where every flow is realized by `k`
//! sub-flows, one per selected path:
//!
//! 1. count how many sub-flows use each link (`X`), giving the link load
//!    `load = X / C` for capacity `C`;
//! 2. each sub-flow runs at the reciprocal of the *maximum* load along its
//!    path;
//! 3. a flow's throughput is the sum of its sub-flow rates:
//!    `T(s, d) = Σ_n 1 / max_{l ∈ path_n(s,d)} load_l`.
//!
//! Host injection and ejection channels participate in the load
//! accounting: all `k` sub-flows of a flow cross the source host's
//! injection link and the destination host's ejection link, which is what
//! normalizes a perfectly balanced permutation to a throughput of 1.0
//! (full link speed per node, the paper's normalization).
//!
//! Flows between hosts on the same switch never enter the switch fabric;
//! they are modeled as a single sub-flow over the injection/ejection
//! links only.

use jellyfish_routing::PathTable;
use jellyfish_topology::{Graph, RrgParams};
use jellyfish_traffic::Flow;

/// Per-pattern throughput results.
///
/// The paper's figures report *per-node* normalized throughput: the sum
/// of a sending node's flow rates, averaged over sending nodes (value 1 =
/// the node drives its injection link at full speed). Per-flow statistics
/// are also provided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Number of flows evaluated.
    pub flows: usize,
    /// Number of distinct sending nodes.
    pub senders: usize,
    /// Mean per-node normalized throughput (the paper's reported value).
    pub mean: f64,
    /// Minimum per-node throughput.
    pub min: f64,
    /// Maximum per-node throughput.
    pub max: f64,
    /// Mean per-flow throughput.
    pub mean_per_flow: f64,
}

/// Throughput model over one topology + path table.
///
/// The table must cover every inter-switch pair that `flows` touches
/// (compute it with [`jellyfish_traffic::switch_pairs`] or as an
/// all-pairs table).
#[derive(Debug)]
pub struct ThroughputModel<'a> {
    graph: &'a Graph,
    params: RrgParams,
    table: &'a PathTable,
    /// Capacity of every link (switch-switch and host-switch), in
    /// sub-flow units. The paper uses uniform capacity; 1.0 by default.
    pub link_capacity: f64,
}

impl<'a> ThroughputModel<'a> {
    /// Creates a model for `graph`/`params` routing with `table`.
    pub fn new(graph: &'a Graph, params: RrgParams, table: &'a PathTable) -> Self {
        assert_eq!(graph.num_nodes(), params.switches, "graph/params mismatch");
        Self { graph, params, table, link_capacity: 1.0 }
    }

    /// Evaluates Eq. (1) over a flow list.
    ///
    /// # Panics
    /// Panics if an inter-switch flow's pair is missing from the table.
    pub fn evaluate(&self, flows: &[Flow]) -> ThroughputReport {
        let hosts = self.params.num_hosts();
        let mut link_use = vec![0u32; self.graph.num_links()];
        let mut inj = vec![0u32; hosts];
        let mut ej = vec![0u32; hosts];

        // Pass A: count sub-flow usage on every channel.
        for f in flows {
            let s = self.params.switch_of_host(f.src as usize);
            let d = self.params.switch_of_host(f.dst as usize);
            if s == d {
                inj[f.src as usize] += 1;
                ej[f.dst as usize] += 1;
                continue;
            }
            let ps =
                self.table.get(s, d).unwrap_or_else(|| panic!("path table missing pair {s}->{d}"));
            assert!(!ps.is_empty(), "no paths for pair {s}->{d}");
            inj[f.src as usize] += ps.len() as u32;
            ej[f.dst as usize] += ps.len() as u32;
            for path in ps.iter() {
                for w in path.windows(2) {
                    let l = self.graph.link_id(w[0], w[1]).expect("path follows edges");
                    link_use[l as usize] += 1;
                }
            }
        }

        // Pass B: per-flow throughput, aggregated per sending node.
        let cap = self.link_capacity;
        let mut flow_sum = 0.0f64;
        let mut node_rate = vec![0.0f64; hosts];
        let mut is_sender = vec![false; hosts];
        for f in flows {
            let s = self.params.switch_of_host(f.src as usize);
            let d = self.params.switch_of_host(f.dst as usize);
            let endpoint_load = inj[f.src as usize].max(ej[f.dst as usize]) as f64 / cap;
            let t = if s == d {
                1.0 / endpoint_load
            } else {
                let ps = self.table.get(s, d).expect("checked in pass A");
                let mut t = 0.0;
                for path in ps.iter() {
                    let mut worst = endpoint_load;
                    for w in path.windows(2) {
                        let l = self.graph.link_id(w[0], w[1]).expect("path follows edges");
                        worst = worst.max(link_use[l as usize] as f64 / cap);
                    }
                    t += 1.0 / worst;
                }
                t
            };
            flow_sum += t;
            node_rate[f.src as usize] += t;
            is_sender[f.src as usize] = true;
        }

        if flows.is_empty() {
            return ThroughputReport {
                flows: 0,
                senders: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                mean_per_flow: 0.0,
            };
        }
        let mut senders = 0usize;
        let mut sum = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (h, &sending) in is_sender.iter().enumerate() {
            if !sending {
                continue;
            }
            senders += 1;
            sum += node_rate[h];
            min = min.min(node_rate[h]);
            max = max.max(node_rate[h]);
        }
        ThroughputReport {
            flows: flows.len(),
            senders,
            mean: sum / senders as f64,
            min,
            max,
            mean_per_flow: flow_sum / flows.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_routing::{PairSet, PathSelection, PathTable};
    use jellyfish_topology::{build_rrg, ConstructionMethod, Graph, RrgParams};
    use jellyfish_traffic::{random_permutation, switch_pairs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Ring of 4 switches, 1 host each.
    fn ring() -> (Graph, RrgParams) {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        (g, RrgParams::new(4, 3, 2))
    }

    #[test]
    fn single_flow_single_path_full_speed() {
        let (g, p) = ring();
        let flows = vec![Flow { src: 0, dst: 1 }];
        let pairs = PairSet::Pairs(switch_pairs(&flows, &p));
        let t = PathTable::compute(&g, PathSelection::SinglePath, &pairs, 0);
        let m = ThroughputModel::new(&g, p, &t);
        let r = m.evaluate(&flows);
        assert_eq!(r.flows, 1);
        assert!((r.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_edge_disjoint_paths_capped_by_injection() {
        // Ring 0->2 has two disjoint 2-hop paths. Both sub-flows cross the
        // injection link (load 2), so each runs at 1/2: total 1.0 — the
        // NIC, not the fabric, is the bottleneck.
        let (g, p) = ring();
        let flows = vec![Flow { src: 0, dst: 2 }];
        let pairs = PairSet::Pairs(switch_pairs(&flows, &p));
        let t = PathTable::compute(&g, PathSelection::EdKsp(2), &pairs, 0);
        let m = ThroughputModel::new(&g, p, &t);
        let r = m.evaluate(&flows);
        assert!((r.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contending_flows_share_links() {
        // Flows 0->1 and 3->2 with single-path routing are disjoint on the
        // ring: both reach 1.0.
        let (g, p) = ring();
        let flows = vec![Flow { src: 0, dst: 1 }, Flow { src: 3, dst: 2 }];
        let pairs = PairSet::Pairs(switch_pairs(&flows, &p));
        let t = PathTable::compute(&g, PathSelection::SinglePath, &pairs, 0);
        let r = ThroughputModel::new(&g, p, &t).evaluate(&flows);
        assert!((r.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_link_halves_throughput() {
        // Two hosts on switch 0 (params with 2 hosts/switch) both sending
        // across the same single path 0->1 share that link: 0.5 each.
        let g = Graph::from_edges(2, &[(0, 1)]);
        let p = RrgParams::new(2, 4, 1); // 3 hosts per switch
        let flows = vec![Flow { src: 0, dst: 3 }, Flow { src: 1, dst: 4 }];
        let pairs = PairSet::Pairs(switch_pairs(&flows, &p));
        let t = PathTable::compute(&g, PathSelection::SinglePath, &pairs, 0);
        let r = ThroughputModel::new(&g, p, &t).evaluate(&flows);
        assert!((r.mean - 0.5).abs() < 1e-12);
        assert!((r.min - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_switch_flow_is_full_speed() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let p = RrgParams::new(2, 4, 1);
        let flows = vec![Flow { src: 0, dst: 1 }]; // both on switch 0
        let t = PathTable::compute(&g, PathSelection::Ksp(2), &PairSet::Pairs(vec![]), 0);
        let r = ThroughputModel::new(&g, p, &t).evaluate(&flows);
        assert!((r.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_flow_list() {
        let (g, p) = ring();
        let t = PathTable::compute(&g, PathSelection::SinglePath, &PairSet::Pairs(vec![]), 0);
        let r = ThroughputModel::new(&g, p, &t).evaluate(&[]);
        assert_eq!(r.flows, 0);
        assert_eq!(r.mean, 0.0);
    }

    #[test]
    fn multipath_beats_single_path_on_rrg_permutation() {
        // The paper's headline observation: multi-path >> single path.
        let g = build_rrg(RrgParams::small(), ConstructionMethod::Incremental, 8).unwrap();
        let p = RrgParams::small();
        let mut rng = StdRng::seed_from_u64(10);
        let flows = random_permutation(p.num_hosts(), &mut rng);
        let pairs = PairSet::Pairs(switch_pairs(&flows, &p));
        let sp = PathTable::compute(&g, PathSelection::SinglePath, &pairs, 0);
        let multi = PathTable::compute(&g, PathSelection::REdKsp(8), &pairs, 0);
        let r_sp = ThroughputModel::new(&g, p, &sp).evaluate(&flows);
        let r_multi = ThroughputModel::new(&g, p, &multi).evaluate(&flows);
        assert!(
            r_multi.mean > r_sp.mean,
            "multi-path {} should beat single-path {}",
            r_multi.mean,
            r_sp.mean
        );
    }

    #[test]
    fn redksp_at_least_matches_ksp_on_permutation() {
        let g = build_rrg(RrgParams::small(), ConstructionMethod::Incremental, 8).unwrap();
        let p = RrgParams::small();
        let mut rng = StdRng::seed_from_u64(11);
        let flows = random_permutation(p.num_hosts(), &mut rng);
        let pairs = PairSet::Pairs(switch_pairs(&flows, &p));
        let ksp = PathTable::compute(&g, PathSelection::Ksp(8), &pairs, 0);
        let red = PathTable::compute(&g, PathSelection::REdKsp(8), &pairs, 0);
        let r_ksp = ThroughputModel::new(&g, p, &ksp).evaluate(&flows);
        let r_red = ThroughputModel::new(&g, p, &red).evaluate(&flows);
        assert!(
            r_red.mean >= r_ksp.mean * 0.98,
            "rEDKSP {} unexpectedly below KSP {}",
            r_red.mean,
            r_ksp.mean
        );
    }

    #[test]
    fn throughput_bounded_by_one_under_permutation() {
        // With one flow per host the NIC caps every flow at 1.0.
        let g = build_rrg(RrgParams::small(), ConstructionMethod::Incremental, 8).unwrap();
        let p = RrgParams::small();
        let mut rng = StdRng::seed_from_u64(12);
        let flows = random_permutation(p.num_hosts(), &mut rng);
        let pairs = PairSet::Pairs(switch_pairs(&flows, &p));
        let t = PathTable::compute(&g, PathSelection::RKsp(8), &pairs, 0);
        let r = ThroughputModel::new(&g, p, &t).evaluate(&flows);
        assert!(r.max <= 1.0 + 1e-12);
        assert!(r.min > 0.0);
    }
}
