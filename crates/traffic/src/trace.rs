//! Synthetic application traces (DUMPI-trace equivalent).
//!
//! The paper drives CODES with DUMPI traces of stencil codes in which each
//! process sends a fixed total volume (15 MB) split evenly across its
//! neighbor flows. Those traces carry no information beyond the stencil
//! geometry, the mapping, and the volume, so this module generates the
//! equivalent flow list directly (see DESIGN.md, substitutions).

use crate::mapping::Mapping;
use crate::pattern::Flow;
use crate::stencil::StencilApp;

/// A host-to-host flow with a byte volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source host.
    pub src: u32,
    /// Destination host.
    pub dst: u32,
    /// Bytes carried by this flow.
    pub bytes: u64,
}

/// A workload trace: a set of sized flows that start together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// All flows of the workload.
    pub flows: Vec<FlowSpec>,
}

impl Trace {
    /// Total bytes across flows.
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }

    /// The unsized host flows (for switch-pair extraction).
    pub fn host_flows(&self) -> Vec<Flow> {
        self.flows.iter().map(|f| Flow { src: f.src, dst: f.dst }).collect()
    }
}

/// Builds the trace for a stencil app: every rank sends
/// `bytes_per_rank / neighbor_count` to each neighbor, placed on hosts by
/// `mapping`.
pub fn stencil_trace(
    app: &StencilApp,
    mapping: Mapping,
    bytes_per_rank: u64,
    num_hosts: usize,
) -> Trace {
    let ranks = app.num_ranks();
    let hosts = mapping.assign(ranks, num_hosts);
    let per_flow = bytes_per_rank / app.kind().neighbor_count() as u64;
    let mut flows = Vec::with_capacity(ranks * app.kind().neighbor_count());
    for rank in 0..ranks as u32 {
        let src = hosts[rank as usize];
        for nbr in app.neighbors(rank) {
            flows.push(FlowSpec { src, dst: hosts[nbr as usize], bytes: per_flow });
        }
    }
    Trace { flows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::StencilKind;

    #[test]
    fn trace_splits_volume_evenly() {
        let app = StencilApp::new_2d(StencilKind::Nn2d, 4, 4);
        let t = stencil_trace(&app, Mapping::Linear, 16_000, 16);
        assert_eq!(t.flows.len(), 16 * 4);
        assert!(t.flows.iter().all(|f| f.bytes == 4000));
        assert_eq!(t.total_bytes(), 16 * 16_000);
    }

    #[test]
    fn linear_mapping_preserves_rank_ids() {
        let app = StencilApp::new_2d(StencilKind::Nn2d, 4, 4);
        let t = stencil_trace(&app, Mapping::Linear, 4_000, 32);
        // Rank 5's neighbors are ranks {1,4,6,9}; under linear mapping the
        // hosts coincide with ranks.
        let dsts: Vec<u32> = t.flows.iter().filter(|f| f.src == 5).map(|f| f.dst).collect();
        let mut sorted = dsts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 4, 6, 9]);
    }

    #[test]
    fn random_mapping_relocates_flows() {
        let app = StencilApp::new_2d(StencilKind::Nn2dDiag, 6, 6);
        let lin = stencil_trace(&app, Mapping::Linear, 8_000, 36);
        let rnd = stencil_trace(&app, Mapping::Random { seed: 3 }, 8_000, 36);
        assert_eq!(lin.flows.len(), rnd.flows.len());
        assert_ne!(lin.host_flows(), rnd.host_flows());
        assert_eq!(lin.total_bytes(), rnd.total_bytes());
    }

    #[test]
    fn paper_volume_accounting() {
        // 2DNN with 15 MB per process: 3.75 MB per neighbor flow.
        let app = StencilApp::new_2d(StencilKind::Nn2d, 6, 6);
        let t = stencil_trace(&app, Mapping::Linear, 15_000_000, 36);
        assert!(t.flows.iter().all(|f| f.bytes == 3_750_000));
    }
}
