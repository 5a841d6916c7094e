#![warn(missing_docs)]
//! Multi-path routing on the Jellyfish network.
//!
//! This crate is the high-level entry point to the reproduction of
//! *"Multi-Path Routing in the Jellyfish Network"* (Alzaid, Bhowmik, Yuan —
//! IPPS 2021). It re-exports the building blocks and offers
//! [`JellyfishNetwork`], a facade that wires them together:
//!
//! * topology construction ([`jellyfish_topology`]),
//! * path selection — KSP / rKSP / EDKSP / rEDKSP / LLSKR
//!   ([`jellyfish_routing`]),
//! * traffic patterns and traces ([`jellyfish_traffic`]),
//! * the MPTCP-style throughput model ([`jellyfish_model`]),
//! * the cycle-level simulator with the routing mechanisms, including the
//!   paper's KSP-adaptive ([`jellyfish_flitsim`]),
//! * the trace-driven application simulator ([`jellyfish_appsim`]).
//!
//! # Quick start
//!
//! ```
//! use jellyfish::prelude::*;
//!
//! // RRG(36, 24, 16): 36 switches, 16 fabric ports, 8 hosts each.
//! let net = JellyfishNetwork::build(RrgParams::small(), 7).unwrap();
//!
//! // The paper's best path selection: randomized edge-disjoint KSP.
//! let table = net.paths(PathSelection::REdKsp(8), &PairSet::AllPairs, 7);
//!
//! // Model a random permutation workload (Figures 4-6).
//! let mut rng = rand::SeedableRng::seed_from_u64(1);
//! let flows = random_permutation(net.params().num_hosts(), &mut rng);
//! let report = net.model_throughput(&table, &flows);
//! assert!(report.mean > 0.5 && report.mean <= 1.0);
//! ```

pub use jellyfish_appsim as appsim;
pub use jellyfish_flitsim as flitsim;
pub use jellyfish_model as model;
pub use jellyfish_routing as routing;
pub use jellyfish_topology as topology;
pub use jellyfish_traffic as traffic;

use jellyfish_appsim::{AppMechanism, AppSimConfig, AppSimResult};
use jellyfish_flitsim::{Mechanism, RunResult, SimConfig, SweepConfig};
use jellyfish_model::{ThroughputModel, ThroughputReport};
use jellyfish_routing::{PairSet, PathProperties, PathSelection, PathTable};
use jellyfish_topology::metrics::topology_stats;
use jellyfish_topology::{
    build_rrg, ConstructionMethod, Graph, RrgError, RrgParams, TopologyStats,
};
use jellyfish_traffic::{Flow, PacketDestinations, Trace};

/// Everything most users need.
pub mod prelude {
    pub use crate::JellyfishNetwork;
    pub use jellyfish_appsim::{AppMechanism, AppSimConfig};
    pub use jellyfish_flitsim::{Mechanism, SimConfig};
    pub use jellyfish_routing::{LlskrConfig, PairSet, PathSelection, PathTable};
    pub use jellyfish_topology::{ConstructionMethod, RrgParams};
    pub use jellyfish_traffic::{
        all_to_all, random_permutation, random_shift, random_x, shift, switch_pairs, Flow, Mapping,
        PacketDestinations, StencilApp, StencilKind,
    };
}

/// A built Jellyfish network: parameters plus one sampled RRG instance.
#[derive(Debug, Clone)]
pub struct JellyfishNetwork {
    params: RrgParams,
    graph: Graph,
}

impl JellyfishNetwork {
    /// Samples an `RRG(N, x, y)` instance with the default (incremental
    /// Jellyfish) construction.
    pub fn build(params: RrgParams, seed: u64) -> Result<Self, RrgError> {
        Self::build_with(params, ConstructionMethod::Incremental, seed)
    }

    /// Samples an instance with an explicit construction method.
    pub fn build_with(
        params: RrgParams,
        method: ConstructionMethod,
        seed: u64,
    ) -> Result<Self, RrgError> {
        let graph = build_rrg(params, method, seed)?;
        Ok(Self { params, graph })
    }

    /// Topology parameters.
    pub fn params(&self) -> &RrgParams {
        &self.params
    }

    /// The switch-level graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Table I metrics: average shortest path length, diameter.
    pub fn stats(&self) -> TopologyStats {
        topology_stats(&self.graph)
    }

    /// Computes a path table for a selection scheme over a pair set.
    ///
    /// Consults the process-wide [`jellyfish_routing::cache::PathCache`]
    /// when one is installed (see `jellytool --cache-dir`); the result is
    /// identical to a direct [`PathTable::compute`] either way.
    pub fn paths(&self, selection: PathSelection, pairs: &PairSet, seed: u64) -> PathTable {
        jellyfish_routing::cache::load_or_compute_global(&self.graph, selection, pairs, seed)
    }

    /// All-pairs single-shortest-path table (fast per-source BFS); used as
    /// vanilla UGAL's valiant-leg table.
    pub fn shortest_paths(&self, randomized: bool, seed: u64) -> PathTable {
        PathTable::all_pairs_shortest(&self.graph, randomized, seed)
    }

    /// Tables II–IV path-quality statistics for a computed table.
    pub fn path_properties(&self, table: &PathTable) -> PathProperties {
        jellyfish_routing::path_properties(&self.graph, table)
    }

    /// Eq. (1) throughput model over a host flow list (Figures 4–6).
    pub fn model_throughput(&self, table: &PathTable, flows: &[Flow]) -> ThroughputReport {
        ThroughputModel::new(&self.graph, self.params, table).evaluate(flows)
    }

    /// One cycle-level simulation at a fixed offered load.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate(
        &self,
        table: &PathTable,
        sp_table: Option<&PathTable>,
        mechanism: Mechanism,
        pattern: &PacketDestinations,
        rate: f64,
        sim: SimConfig,
    ) -> RunResult {
        let cfg = SweepConfig {
            graph: &self.graph,
            params: self.params,
            table,
            sp_table,
            mechanism,
            faults: None,
            sim,
            threads: 0,
        };
        jellyfish_flitsim::sweep::run_at(&cfg, pattern, rate)
    }

    /// Saturation throughput (Figures 7–10): the largest load that does
    /// not saturate, searched at `resolution` granularity.
    #[allow(clippy::too_many_arguments)]
    pub fn saturation_throughput(
        &self,
        table: &PathTable,
        sp_table: Option<&PathTable>,
        mechanism: Mechanism,
        pattern: &PacketDestinations,
        resolution: f64,
        sim: SimConfig,
    ) -> f64 {
        let cfg = SweepConfig {
            graph: &self.graph,
            params: self.params,
            table,
            sp_table,
            mechanism,
            faults: None,
            sim,
            threads: 0,
        };
        jellyfish_flitsim::saturation_throughput(&cfg, pattern, resolution)
    }

    /// Latency-vs-load curve (Figures 11–13).
    #[allow(clippy::too_many_arguments)]
    pub fn latency_curve(
        &self,
        table: &PathTable,
        sp_table: Option<&PathTable>,
        mechanism: Mechanism,
        pattern: &PacketDestinations,
        rates: &[f64],
        sim: SimConfig,
    ) -> Vec<jellyfish_flitsim::LoadPoint> {
        let cfg = SweepConfig {
            graph: &self.graph,
            params: self.params,
            table,
            sp_table,
            mechanism,
            faults: None,
            sim,
            threads: 0,
        };
        jellyfish_flitsim::latency_curve(&cfg, pattern, rates)
    }

    /// Trace-driven application simulation (Tables V–VI).
    pub fn simulate_trace(
        &self,
        table: &PathTable,
        mechanism: AppMechanism,
        trace: &Trace,
        cfg: AppSimConfig,
    ) -> AppSimResult {
        jellyfish_appsim::simulate(&self.graph, self.params, table, mechanism, trace, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use jellyfish_routing::PairSet;
    use jellyfish_traffic::{stencil_trace, switch_pairs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn facade_builds_and_reports_stats() {
        let net = JellyfishNetwork::build(RrgParams::new(16, 8, 5), 1).unwrap();
        let s = net.stats();
        assert_eq!(s.switches, 16);
        assert!(s.avg_shortest_path_len > 1.0);
        assert!(s.diameter >= 2);
    }

    #[test]
    fn facade_path_pipeline() {
        let net = JellyfishNetwork::build(RrgParams::new(16, 8, 5), 1).unwrap();
        let table = net.paths(PathSelection::REdKsp(4), &PairSet::AllPairs, 2);
        let props = net.path_properties(&table);
        assert_eq!(props.disjoint_pair_fraction, 1.0);
        let sp = net.shortest_paths(true, 3);
        assert_eq!(sp.num_pairs(), 16 * 15);
    }

    #[test]
    fn facade_model_and_sim() {
        let net = JellyfishNetwork::build(RrgParams::new(12, 6, 4), 5).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let flows = random_permutation(net.params().num_hosts(), &mut rng);
        let pairs = PairSet::Pairs(switch_pairs(&flows, net.params()));
        let table = net.paths(PathSelection::RKsp(4), &pairs, 1);
        let report = net.model_throughput(&table, &flows);
        assert!(report.mean > 0.0 && report.mean <= 1.0);

        let pattern = PacketDestinations::from_flows(net.params().num_hosts(), &flows);
        let run =
            net.simulate(&table, None, Mechanism::KspAdaptive, &pattern, 0.1, SimConfig::paper());
        assert!(!run.saturated);
    }

    #[test]
    fn facade_trace_sim() {
        let net = JellyfishNetwork::build(RrgParams::new(9, 6, 4), 5).unwrap();
        let app = StencilApp::new_2d(StencilKind::Nn2d, 3, 6);
        let trace = stencil_trace(&app, Mapping::Linear, 30_000, net.params().num_hosts());
        let table = net.paths(PathSelection::REdKsp(4), &PairSet::AllPairs, 0);
        let r =
            net.simulate_trace(&table, AppMechanism::KspAdaptive, &trace, AppSimConfig::paper());
        assert_eq!(r.delivered_packets, r.total_packets);
    }
}
