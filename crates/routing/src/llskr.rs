//! Limited Length Spread K-shortest path Routing (LLSKR).
//!
//! LLSKR (Yuan et al., SC'13 — the paper's reference \[2\]) addresses two
//! shortcomings of plain KSP on Jellyfish: with a fixed `k` it (1) ignores
//! surplus short paths when many exist and (2) admits overly long paths
//! when few short ones exist. LLSKR therefore selects a *variable* number
//! of paths per pair: every path whose length is within `spread` hops of
//! the pair's shortest-path length is eligible, subject to a minimum and
//! maximum path count.
//!
//! We enumerate paths in non-decreasing length with Yen's algorithm and
//! apply the length-spread acceptance rule. This reproduces LLSKR's path
//! *sets*; the original paper also derives per-hop spreading factors for
//! its (single-path-per-flow) deployment model, which are not needed here
//! because this reproduction routes with the mechanisms of Section III-B.

use crate::bfs::TieBreak;
use crate::workspace::DijkstraWorkspace;
use crate::yen::k_shortest_paths_with;
use jellyfish_topology::{Graph, NodeId};

/// Configuration for LLSKR path selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlskrConfig {
    /// Accept paths up to `shortest + spread` hops long.
    pub spread: u32,
    /// Keep at least this many paths even if some exceed the spread
    /// (mirrors LLSKR's control over pairs with few short paths).
    pub min_paths: usize,
    /// Never keep more than this many paths.
    pub max_paths: usize,
}

impl Default for LlskrConfig {
    fn default() -> Self {
        Self { spread: 1, min_paths: 2, max_paths: 16 }
    }
}

impl LlskrConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.min_paths == 0 {
            return Err("min_paths must be >= 1");
        }
        if self.max_paths < self.min_paths {
            return Err("max_paths must be >= min_paths");
        }
        Ok(())
    }
}

/// Computes the LLSKR path set from `src` to `dst`.
///
/// Enumerates up to `max_paths` shortest paths, then truncates to those
/// within the length spread (but never below `min_paths`, when available).
pub fn llskr_paths(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    config: &LlskrConfig,
    tiebreak: &mut TieBreak<'_>,
) -> Vec<Vec<NodeId>> {
    let mut ws = DijkstraWorkspace::for_graph(graph);
    llskr_paths_with(graph, src, dst, config, tiebreak, &mut ws)
}

/// [`llskr_paths`] with caller-provided search arenas.
pub fn llskr_paths_with(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    config: &LlskrConfig,
    tiebreak: &mut TieBreak<'_>,
    ws: &mut DijkstraWorkspace,
) -> Vec<Vec<NodeId>> {
    config.validate().expect("invalid LLSKR configuration");
    let candidates = k_shortest_paths_with(graph, src, dst, config.max_paths, tiebreak, ws);
    let Some(shortest_hops) = candidates.first().map(|p| (p.len() - 1) as u32) else {
        return Vec::new();
    };
    let limit = shortest_hops + config.spread;
    let within: usize = candidates.iter().take_while(|p| (p.len() - 1) as u32 <= limit).count();
    let keep = within.max(config.min_paths).min(candidates.len());
    let mut paths = candidates;
    paths.truncate(keep);
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::tests::figure3;

    #[test]
    fn default_config_is_valid() {
        LlskrConfig::default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(LlskrConfig { spread: 0, min_paths: 0, max_paths: 4 }.validate().is_err());
        assert!(LlskrConfig { spread: 0, min_paths: 5, max_paths: 4 }.validate().is_err());
    }

    #[test]
    fn spread_one_takes_all_short_paths() {
        // Figure 3: shortest = 3 hops, six 4-hop paths. spread=1 accepts
        // all seven.
        let g = figure3();
        let cfg = LlskrConfig { spread: 1, min_paths: 2, max_paths: 16 };
        let paths = llskr_paths(&g, 0, 9, &cfg, &mut TieBreak::Deterministic);
        assert_eq!(paths.len(), 7);
        assert!(paths.iter().all(|p| p.len() - 1 <= 4));
    }

    #[test]
    fn spread_zero_respects_min_paths() {
        // Only one 3-hop path exists; min_paths=2 pulls in one 4-hop path.
        let g = figure3();
        let cfg = LlskrConfig { spread: 0, min_paths: 2, max_paths: 16 };
        let paths = llskr_paths(&g, 0, 9, &cfg, &mut TieBreak::Deterministic);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].len(), 4);
        assert_eq!(paths[1].len(), 5);
    }

    #[test]
    fn max_paths_caps_selection() {
        let g = figure3();
        let cfg = LlskrConfig { spread: 5, min_paths: 1, max_paths: 3 };
        let paths = llskr_paths(&g, 0, 9, &cfg, &mut TieBreak::Deterministic);
        assert_eq!(paths.len(), 3);
    }

    #[test]
    fn unreachable_pair_is_empty() {
        let g = jellyfish_topology::Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let paths = llskr_paths(&g, 0, 3, &LlskrConfig::default(), &mut TieBreak::Deterministic);
        assert!(paths.is_empty());
    }
}
