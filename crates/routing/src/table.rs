//! Path tables: the precomputed `k` paths per switch pair.
//!
//! [`PathSelection`] names a path-selection scheme from the paper;
//! [`PathTable::compute`] evaluates it — in parallel across pairs — for
//! either all ordered switch pairs or an explicit pair list, and stores the
//! result compactly ([`PathSet`] keeps each pair's paths in one flat
//! buffer). Randomized schemes derive an independent RNG per pair from the
//! table seed, so results do not depend on scheduling order.

use crate::bfs::{shortest_path_with, TieBreak};
use crate::disjoint::edge_disjoint_paths_with;
use crate::llskr::{llskr_paths_with, LlskrConfig};
use crate::pair_seed;
use crate::workspace::{with_thread_workspace, DijkstraWorkspace};
use crate::yen::k_shortest_paths_with;
use jellyfish_topology::{DegradedGraph, Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::HashMap;

/// A single path as a node sequence `[src, ..., dst]`.
pub type Path = Vec<NodeId>;

/// Path-selection scheme (paper Section III-A plus baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSelection {
    /// Single shortest path (the paper's `SP` baseline).
    SinglePath,
    /// Vanilla Yen's k-shortest paths with deterministic tie-breaks.
    Ksp(usize),
    /// Yen's with randomized tie-breaks (`rKSP`).
    RKsp(usize),
    /// Edge-disjoint Remove-Find with deterministic tie-breaks (`EDKSP`).
    EdKsp(usize),
    /// Edge-disjoint Remove-Find with randomized tie-breaks (`rEDKSP`).
    REdKsp(usize),
    /// LLSKR baseline (Yuan et al.), variable path count.
    Llskr(LlskrConfig),
}

impl PathSelection {
    /// Display name matching the paper's notation, e.g. `rEDKSP(8)`.
    pub fn name(&self) -> String {
        match self {
            PathSelection::SinglePath => "SP".into(),
            PathSelection::Ksp(k) => format!("KSP({k})"),
            PathSelection::RKsp(k) => format!("rKSP({k})"),
            PathSelection::EdKsp(k) => format!("EDKSP({k})"),
            PathSelection::REdKsp(k) => format!("rEDKSP({k})"),
            PathSelection::Llskr(c) => {
                format!("LLSKR(s{},{}..{})", c.spread, c.min_paths, c.max_paths)
            }
        }
    }

    /// Nominal number of paths per pair (upper bound for LLSKR).
    pub fn k(&self) -> usize {
        match self {
            PathSelection::SinglePath => 1,
            PathSelection::Ksp(k)
            | PathSelection::RKsp(k)
            | PathSelection::EdKsp(k)
            | PathSelection::REdKsp(k) => *k,
            PathSelection::Llskr(c) => c.max_paths,
        }
    }

    /// Whether the scheme uses randomized tie-breaking.
    pub fn is_randomized(&self) -> bool {
        matches!(self, PathSelection::RKsp(_) | PathSelection::REdKsp(_))
    }

    /// Computes this scheme's paths for one ordered pair.
    ///
    /// Allocates fresh search arenas; hot loops should call
    /// [`PathSelection::paths_for_pair_with`] with a reused
    /// [`DijkstraWorkspace`] instead.
    pub fn paths_for_pair(&self, graph: &Graph, src: NodeId, dst: NodeId, seed: u64) -> Vec<Path> {
        let mut ws = DijkstraWorkspace::for_graph(graph);
        self.paths_for_pair_with(graph, src, dst, seed, &mut ws)
    }

    /// [`PathSelection::paths_for_pair`] with caller-provided arenas.
    ///
    /// The result is identical to the allocating variant — the workspace
    /// only changes where the transient buffers live, never which paths
    /// are selected (the differential tests in `tests/` pin this down).
    pub fn paths_for_pair_with(
        &self,
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        seed: u64,
        ws: &mut DijkstraWorkspace,
    ) -> Vec<Path> {
        let mut rng;
        let mut tiebreak = if self.is_randomized() {
            rng = StdRng::seed_from_u64(pair_seed(seed, src, dst));
            TieBreak::Randomized(&mut rng)
        } else {
            TieBreak::Deterministic
        };
        match *self {
            PathSelection::SinglePath => {
                ws.ensure(graph);
                let DijkstraWorkspace { mask, scratch, .. } = ws;
                shortest_path_with(graph, src, dst, mask, &mut tiebreak, scratch)
                    .into_iter()
                    .collect()
            }
            PathSelection::Ksp(k) | PathSelection::RKsp(k) => {
                k_shortest_paths_with(graph, src, dst, k, &mut tiebreak, ws)
            }
            PathSelection::EdKsp(k) | PathSelection::REdKsp(k) => {
                edge_disjoint_paths_with(graph, src, dst, k, &mut tiebreak, ws)
            }
            PathSelection::Llskr(cfg) => llskr_paths_with(graph, src, dst, &cfg, &mut tiebreak, ws),
        }
    }
}

/// Which ordered pairs a table covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairSet {
    /// All ordered pairs `(s, d)` with `s != d`.
    AllPairs,
    /// An explicit list of ordered pairs (deduplicated on compute).
    Pairs(Vec<(NodeId, NodeId)>),
}

impl PairSet {
    /// Materializes the pair list for a graph with `n` switches.
    pub fn materialize(&self, n: usize) -> Vec<(NodeId, NodeId)> {
        match self {
            PairSet::AllPairs => {
                let mut v = Vec::with_capacity(n * (n - 1));
                for s in 0..n as NodeId {
                    for d in 0..n as NodeId {
                        if s != d {
                            v.push((s, d));
                        }
                    }
                }
                v
            }
            PairSet::Pairs(list) => {
                let mut v: Vec<_> = list.iter().copied().filter(|(s, d)| s != d).collect();
                v.sort_unstable();
                v.dedup();
                v
            }
        }
    }
}

/// The paths of one ordered pair.
///
/// All nodes sit in one flat buffer, so [`PathSet::path`] serves a
/// borrowed `&[NodeId]` slice in O(1) — the layout every consumer walks
/// (the simulator, UGAL's minimal leg, `/paths`, fault repair).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathSet {
    pub(crate) nodes: Vec<NodeId>,
    /// End offset (exclusive) of each path within `nodes`.
    pub(crate) ends: Vec<u32>,
}

impl PathSet {
    /// Builds from a list of paths.
    pub fn from_paths(paths: &[Path]) -> Self {
        let total = paths.iter().map(Vec::len).sum();
        let mut nodes = Vec::with_capacity(total);
        let mut ends = Vec::with_capacity(paths.len());
        for p in paths {
            nodes.extend_from_slice(p);
            ends.push(nodes.len() as u32);
        }
        Self { nodes, ends }
    }

    /// Number of paths.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if the pair has no paths.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    #[inline]
    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1] as usize
        }
    }

    /// The `i`-th path as a node slice.
    #[inline]
    pub fn path(&self, i: usize) -> &[NodeId] {
        &self.nodes[self.start(i)..self.ends[i] as usize]
    }

    /// Hop count (edges) of the `i`-th path.
    #[inline]
    pub fn hops(&self, i: usize) -> usize {
        self.ends[i] as usize - self.start(i) - 1
    }

    /// Iterates over paths as node slices.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        (0..self.len()).map(move |i| self.path(i))
    }

    /// Longest path hop count, 0 when empty.
    pub fn max_hops(&self) -> usize {
        (0..self.len()).map(|i| self.hops(i)).max().unwrap_or(0)
    }

    /// Index of the shortest path (first such index on ties), 0 when
    /// empty. The selection schemes emit length-sorted paths, where this
    /// is trivially 0 — but repaired or externally loaded tables make no
    /// ordering promise, so minimal-path consumers (UGAL) must select by
    /// length rather than assume index 0.
    pub fn shortest_index(&self) -> usize {
        // Strict `<` keeps the first index on ties (`min_by_key` would
        // keep the last, needlessly disturbing sorted tables).
        let mut best = 0;
        for i in 1..self.len() {
            if self.hops(i) < self.hops(best) {
                best = i;
            }
        }
        best
    }

    /// Approximate resident heap bytes of this set.
    pub fn resident_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<NodeId>() + self.ends.capacity() * 4
    }

    /// Whether any stored path crosses one of `removed` (undirected,
    /// normalized `(min, max)`) edges.
    fn crosses(&self, removed: &std::collections::HashSet<(NodeId, NodeId)>) -> bool {
        self.iter().any(|path| {
            path.windows(2).any(|w| removed.contains(&(w[0].min(w[1]), w[0].max(w[1]))))
        })
    }
}

/// Computed paths for a set of switch pairs.
///
/// Dense storage (flat `Vec` indexed by `s * n + d`) is used for
/// [`PairSet::AllPairs`]; sparse (`HashMap`) otherwise. Lookup via
/// [`PathTable::get`] is uniform over both.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTable {
    selection: PathSelection,
    n: usize,
    storage: Storage,
    max_hops: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Storage {
    Dense(Vec<PathSet>),
    Sparse(HashMap<u64, PathSet>),
}

#[inline]
fn pack(s: NodeId, d: NodeId) -> u64 {
    ((s as u64) << 32) | d as u64
}

impl PathTable {
    /// Computes the table for `selection` over `pairs` on `graph`.
    ///
    /// `seed` drives the randomized schemes; per-pair seeds are derived so
    /// the result is independent of the parallel schedule.
    pub fn compute(graph: &Graph, selection: PathSelection, pairs: &PairSet, seed: u64) -> Self {
        let _span = jellyfish_obs::span("routing.table.compute");
        let n = graph.num_nodes();
        let storage = match pairs {
            PairSet::AllPairs => {
                let sets: Vec<PathSet> = (0..(n * n) as u64)
                    .into_par_iter()
                    .map(|idx| {
                        let s = (idx / n as u64) as NodeId;
                        let d = (idx % n as u64) as NodeId;
                        if s == d {
                            PathSet::default()
                        } else {
                            let _t = jellyfish_obs::trace::span("routing.pair.compute");
                            with_thread_workspace(graph, |ws| {
                                PathSet::from_paths(
                                    &selection.paths_for_pair_with(graph, s, d, seed, ws),
                                )
                            })
                        }
                    })
                    .collect();
                Storage::Dense(sets)
            }
            PairSet::Pairs(_) => {
                let list = pairs.materialize(n);
                let map: HashMap<u64, PathSet> = list
                    .into_par_iter()
                    .map(|(s, d)| {
                        let _t = jellyfish_obs::trace::span("routing.pair.compute");
                        let ps = with_thread_workspace(graph, |ws| {
                            PathSet::from_paths(
                                &selection.paths_for_pair_with(graph, s, d, seed, ws),
                            )
                        });
                        (pack(s, d), ps)
                    })
                    .collect();
                Storage::Sparse(map)
            }
        };
        let max_hops = match &storage {
            Storage::Dense(v) => v.iter().map(PathSet::max_hops).max().unwrap_or(0),
            Storage::Sparse(m) => m.values().map(PathSet::max_hops).max().unwrap_or(0),
        };
        Self { selection, n, storage, max_hops }
    }

    /// Dense all-pairs single-shortest-path table via one BFS tree per
    /// source — O(N·(N+E)) instead of the O(N²) independent searches of
    /// [`PathTable::compute`] with [`PathSelection::SinglePath`].
    ///
    /// With `randomized = false` the predecessor choice reproduces the
    /// deterministic low-rank bias; with `randomized = true` each source's
    /// BFS shuffles its frontier (seeded per source), giving uniformly
    /// random shortest paths. Used for vanilla UGAL's valiant legs.
    pub fn all_pairs_shortest(graph: &Graph, randomized: bool, seed: u64) -> Self {
        use crate::bfs::{shortest_path_tree, TieBreak};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let _span = jellyfish_obs::span("routing.table.all_pairs_shortest");
        let n = graph.num_nodes();
        let sets: Vec<PathSet> = (0..n as NodeId)
            .into_par_iter()
            .flat_map_iter(|src| {
                let mut rng;
                let mut tiebreak = if randomized {
                    rng = StdRng::seed_from_u64(pair_seed(seed, src, u32::MAX));
                    TieBreak::Randomized(&mut rng)
                } else {
                    TieBreak::Deterministic
                };
                let (dist, pred) = shortest_path_tree(graph, src, &mut tiebreak);
                let mut out = Vec::with_capacity(n);
                let mut scratch = Vec::new();
                for dst in 0..n as NodeId {
                    if dst == src || dist[dst as usize] == u32::MAX {
                        out.push(PathSet::default());
                        continue;
                    }
                    scratch.clear();
                    let mut cur = dst;
                    while cur != src {
                        scratch.push(cur);
                        cur = pred[cur as usize];
                    }
                    scratch.push(src);
                    scratch.reverse();
                    out.push(PathSet::from_paths(std::slice::from_ref(&scratch)));
                }
                out
            })
            .collect();
        let max_hops = sets.iter().map(PathSet::max_hops).max().unwrap_or(0);
        Self { selection: PathSelection::SinglePath, n, storage: Storage::Dense(sets), max_hops }
    }

    /// Builds a sparse table directly from explicit paths (used by the
    /// deserializer and by tests). The selection tag is set to
    /// [`PathSelection::SinglePath`] since the originating scheme cannot
    /// be recovered from its output.
    pub fn from_paths<'p>(
        n: usize,
        entries: impl Iterator<Item = ((NodeId, NodeId), &'p [Vec<NodeId>])>,
    ) -> Self {
        let map: HashMap<u64, PathSet> =
            entries.map(|((s, d), paths)| (pack(s, d), PathSet::from_paths(paths))).collect();
        let max_hops = map.values().map(PathSet::max_hops).max().unwrap_or(0);
        Self { selection: PathSelection::SinglePath, n, storage: Storage::Sparse(map), max_hops }
    }

    /// Rebuilds a table from deserialized entries, preserving the
    /// original selection tag and storage layout (dense for all-pairs
    /// tables, sparse otherwise) so a cache round trip is
    /// indistinguishable from the in-memory computation. `max_hops` is
    /// recomputed from the paths rather than trusted from the file.
    pub(crate) fn from_cache_entries(
        selection: PathSelection,
        n: usize,
        entries: Vec<((NodeId, NodeId), PathSet)>,
        dense: bool,
    ) -> Self {
        let max_hops = entries.iter().map(|(_, ps)| ps.max_hops()).max().unwrap_or(0);
        let storage = if dense {
            let mut sets = vec![PathSet::default(); n * n];
            for ((s, d), ps) in entries {
                sets[s as usize * n + d as usize] = ps;
            }
            Storage::Dense(sets)
        } else {
            Storage::Sparse(entries.into_iter().map(|((s, d), ps)| (pack(s, d), ps)).collect())
        };
        Self { selection, n, storage, max_hops }
    }

    /// Whether this table uses dense all-pairs storage (cache metadata).
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self.storage, Storage::Dense(_))
    }

    /// The scheme this table was computed with.
    pub fn selection(&self) -> PathSelection {
        self.selection
    }

    /// Number of switches in the underlying graph.
    pub fn num_switches(&self) -> usize {
        self.n
    }

    /// Longest path (hops) in the table — sizes the simulator's VC count.
    pub fn max_hops(&self) -> usize {
        self.max_hops
    }

    /// The paths for ordered pair `(s, d)`, if covered by this table.
    #[inline]
    pub fn get(&self, s: NodeId, d: NodeId) -> Option<&PathSet> {
        match &self.storage {
            Storage::Dense(v) => v.get(s as usize * self.n + d as usize),
            Storage::Sparse(m) => m.get(&pack(s, d)),
        }
    }

    /// Iterates over all `(s, d, paths)` entries with at least one path.
    pub fn entries(&self) -> Box<dyn Iterator<Item = (NodeId, NodeId, &PathSet)> + '_> {
        match &self.storage {
            Storage::Dense(v) => Box::new(v.iter().enumerate().filter_map(move |(i, ps)| {
                if ps.is_empty() {
                    None
                } else {
                    Some(((i / self.n) as NodeId, (i % self.n) as NodeId, ps))
                }
            })),
            Storage::Sparse(m) => Box::new(m.iter().filter_map(|(&key, ps)| {
                if ps.is_empty() {
                    None
                } else {
                    Some(((key >> 32) as NodeId, key as u32, ps))
                }
            })),
        }
    }

    /// Number of pairs stored (with at least one path).
    pub fn num_pairs(&self) -> usize {
        self.entries().count()
    }

    /// Every stored pair sorted by `(s, d)`, *including* pairs whose path
    /// set is empty — the binary cache must reproduce pair coverage
    /// exactly, and `get()` distinguishes "covered but empty" from "not
    /// covered". Dense tables skip the (always empty) diagonal, which the
    /// loader reconstructs.
    pub(crate) fn cache_entries(&self) -> Vec<(NodeId, NodeId, &PathSet)> {
        match &self.storage {
            Storage::Dense(v) => v
                .iter()
                .enumerate()
                .filter_map(|(i, ps)| {
                    let (s, d) = ((i / self.n) as NodeId, (i % self.n) as NodeId);
                    if s == d {
                        None
                    } else {
                        Some((s, d, ps))
                    }
                })
                .collect(),
            Storage::Sparse(m) => {
                let mut v: Vec<(NodeId, NodeId, &PathSet)> =
                    m.iter().map(|(&key, ps)| ((key >> 32) as NodeId, key as u32, ps)).collect();
                v.sort_unstable_by_key(|&(s, d, _)| (s, d));
                v
            }
        }
    }

    /// Drops every stored path that crosses a failed link or switch of
    /// `view`, returning per-pair surviving-path counts.
    ///
    /// The table's pair coverage is unchanged — a pair all of whose paths
    /// died keeps an empty [`PathSet`] and shows up in the report's
    /// `disconnected_pairs`. Call [`PathTable::repair`] afterwards to
    /// recompute routes for the affected pairs on the degraded fabric.
    pub fn apply_faults(&mut self, view: &DegradedGraph) -> FaultReport {
        let _span = jellyfish_obs::span("routing.table.apply_faults");
        let mut report = FaultReport::default();
        let n = self.n;
        let mut mask_set = |key_s: NodeId, key_d: NodeId, ps: &mut PathSet| {
            let before = ps.len();
            if before == 0 {
                return;
            }
            let live: Vec<Path> =
                ps.iter().filter(|p| view.path_is_live(p)).map(|p| p.to_vec()).collect();
            let after = live.len();
            if after < before {
                *ps = PathSet::from_paths(&live);
                report.affected.push(PairSurvival {
                    src: key_s,
                    dst: key_d,
                    paths_before: before,
                    paths_after: after,
                });
                report.paths_removed += before - after;
                if after == 0 {
                    report.disconnected_pairs += 1;
                }
            }
        };
        match &mut self.storage {
            Storage::Dense(v) => {
                for (i, ps) in v.iter_mut().enumerate() {
                    mask_set((i / n) as NodeId, (i % n) as NodeId, ps);
                }
            }
            Storage::Sparse(m) => {
                let mut keys: Vec<u64> = m.keys().copied().collect();
                keys.sort_unstable();
                for key in keys {
                    let ps = m.get_mut(&key).unwrap();
                    mask_set((key >> 32) as NodeId, key as u32, ps);
                }
            }
        }
        self.recompute_max_hops();
        jellyfish_obs::journal::publish(
            0,
            jellyfish_obs::journal::EventKind::FaultsApplied {
                affected_pairs: report.affected.len() as u64,
                paths_removed: report.paths_removed as u64,
                disconnected_pairs: report.disconnected_pairs as u64,
            },
        );
        report
    }

    /// Drops every path longer than `limit` hops and recomputes
    /// `max_hops`.
    ///
    /// Used after [`PathTable::repair`]: a repaired route can be longer
    /// than anything in the original table, and consumers that sized
    /// per-hop resources from the original `max_hops` (e.g. the
    /// simulator's hop-indexed virtual channels) cannot carry it.
    pub fn retain_max_hops(&mut self, limit: usize) {
        let mut trim = |ps: &mut PathSet| {
            if ps.max_hops() > limit {
                let keep: Vec<Path> =
                    ps.iter().filter(|p| p.len() - 1 <= limit).map(|p| p.to_vec()).collect();
                *ps = PathSet::from_paths(&keep);
            }
        };
        match &mut self.storage {
            Storage::Dense(v) => v.iter_mut().for_each(&mut trim),
            Storage::Sparse(m) => m.values_mut().for_each(&mut trim),
        }
        self.recompute_max_hops();
    }

    /// Recomputes this table's selection for `pairs` on the surviving
    /// fabric of `view`, in parallel, and swaps the results in.
    ///
    /// Only the given pairs are touched (typically
    /// [`FaultReport::affected_pairs`]); everything else keeps its
    /// original routes, so repair cost scales with the damage rather than
    /// with the fabric. Pairs that the degraded fabric no longer connects
    /// end up with an empty path set. Returns the number of pairs that
    /// have at least one live path after repair.
    pub fn repair(&mut self, view: &DegradedGraph, pairs: &[(NodeId, NodeId)], seed: u64) -> usize {
        let _span = jellyfish_obs::span("routing.table.repair");
        let degraded = view.materialize();
        let selection = self.selection;
        let recomputed: Vec<((NodeId, NodeId), PathSet)> = pairs
            .par_iter()
            .map(|&(s, d)| {
                let _t = jellyfish_obs::trace::span("routing.pair.repair");
                let ps = with_thread_workspace(&degraded, |ws| {
                    let mut paths = selection.paths_for_pair_with(&degraded, s, d, seed, ws);
                    // The schemes emit length-sorted paths already, but
                    // enforce the ordering here so repaired pairs keep
                    // the shortest-first invariant that minimal-path
                    // consumers (UGAL) and tests may rely on, whatever
                    // the scheme. Stable: equal-length paths keep their
                    // scheme-given order.
                    paths.sort_by_key(Vec::len);
                    PathSet::from_paths(&paths)
                });
                ((s, d), ps)
            })
            .collect();
        let mut reconnected = 0;
        for ((s, d), ps) in recomputed {
            if !ps.is_empty() {
                reconnected += 1;
            }
            match &mut self.storage {
                Storage::Dense(v) => v[s as usize * self.n + d as usize] = ps,
                Storage::Sparse(m) => {
                    m.insert(pack(s, d), ps);
                }
            }
        }
        // Exact recompute: a repair that replaces the table's longest
        // detour with shorter routes must *lower* `max_hops`, or the
        // simulator keeps oversizing its hop-indexed virtual channels
        // from a stale high-water mark.
        self.recompute_max_hops();
        jellyfish_obs::journal::publish(
            0,
            jellyfish_obs::journal::EventKind::PairsRepaired { repaired: pairs.len() as u64 },
        );
        reconnected
    }

    /// Recomputes `max_hops` from the stored paths.
    fn recompute_max_hops(&mut self) {
        self.max_hops = match &self.storage {
            Storage::Dense(v) => v.iter().map(PathSet::max_hops).max().unwrap_or(0),
            Storage::Sparse(m) => m.values().map(PathSet::max_hops).max().unwrap_or(0),
        };
    }

    /// Approximate resident heap bytes of the stored path sets (the
    /// memory gauge the scale benchmarks report).
    pub fn resident_bytes(&self) -> usize {
        match &self.storage {
            Storage::Dense(v) => {
                v.capacity() * std::mem::size_of::<PathSet>()
                    + v.iter().map(PathSet::resident_bytes).sum::<usize>()
            }
            Storage::Sparse(m) => {
                m.capacity() * (std::mem::size_of::<PathSet>() + 16)
                    + m.values().map(PathSet::resident_bytes).sum::<usize>()
            }
        }
    }

    /// Grows this table to cover `grown` (a graph expanded from this
    /// table's fabric, e.g. by `expand_rrg`) and repairs exactly the
    /// pairs whose stored routes crossed a `removed` edge, plus — for
    /// dense all-pairs tables — the pairs that involve a new switch.
    ///
    /// Everything else keeps its original routes untouched, so the cost
    /// scales with the recabling damage plus the added rows, not with
    /// `n^2`. Untouched routes are still *valid* on the grown graph
    /// (expansion only removes the `removed` edges; every other old edge
    /// survives) but may no longer be *shortest* — that drift is what
    /// `jellytool expand` quantifies against a fresh rebuild.
    ///
    /// Recomputed pairs use the same per-pair seeding as
    /// [`PathTable::compute`], so for those pairs the result is exactly
    /// what a fresh compute on `grown` would produce.
    pub fn extend(
        &mut self,
        grown: &Graph,
        removed: &[(NodeId, NodeId)],
        seed: u64,
    ) -> ExtendReport {
        let _span = jellyfish_obs::span("routing.table.extend");
        let old_n = self.n;
        let new_n = grown.num_nodes();
        assert!(new_n >= old_n, "extend cannot shrink the fabric ({old_n} -> {new_n})");

        // Re-index dense storage from the old `s * old_n + d` layout.
        if let Storage::Dense(v) = &mut self.storage {
            let old = std::mem::take(v);
            let mut sets = vec![PathSet::default(); new_n * new_n];
            for (i, ps) in old.into_iter().enumerate() {
                let (s, d) = (i / old_n, i % old_n);
                sets[s * new_n + d] = ps;
            }
            *v = sets;
        }
        self.n = new_n;

        // Pairs whose stored routes crossed a recabled-away edge.
        let removed_set: std::collections::HashSet<(NodeId, NodeId)> =
            removed.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        let mut repair_list: Vec<(NodeId, NodeId)> = self
            .entries()
            .filter_map(|(s, d, ps)| ps.crosses(&removed_set).then_some((s, d)))
            .collect();
        repair_list.sort_unstable();
        let affected_pairs = repair_list.len();

        // Dense tables promise all-pairs coverage: add every pair that
        // touches a new switch. Sparse tables keep their explicit pair
        // list — callers add pairs by recomputing, not by extension.
        let mut new_pairs = 0usize;
        if matches!(self.storage, Storage::Dense(_)) {
            for s in 0..new_n as NodeId {
                for d in 0..new_n as NodeId {
                    if s != d && (s as usize >= old_n || d as usize >= old_n) {
                        repair_list.push((s, d));
                        new_pairs += 1;
                    }
                }
            }
        }

        let selection = self.selection;
        let recomputed: Vec<((NodeId, NodeId), PathSet)> = repair_list
            .par_iter()
            .map(|&(s, d)| {
                let _t = jellyfish_obs::trace::span("routing.pair.extend");
                let ps = with_thread_workspace(grown, |ws| {
                    let mut paths = selection.paths_for_pair_with(grown, s, d, seed, ws);
                    paths.sort_by_key(Vec::len);
                    PathSet::from_paths(&paths)
                });
                ((s, d), ps)
            })
            .collect();
        let mut reconnected = 0usize;
        for ((s, d), ps) in recomputed {
            if !ps.is_empty() {
                reconnected += 1;
            }
            match &mut self.storage {
                Storage::Dense(v) => v[s as usize * new_n + d as usize] = ps,
                Storage::Sparse(m) => {
                    m.insert(pack(s, d), ps);
                }
            }
        }
        self.recompute_max_hops();
        let report = ExtendReport { affected_pairs, new_pairs, reconnected };
        jellyfish_obs::journal::publish(
            0,
            jellyfish_obs::journal::EventKind::TableExtended {
                affected_pairs: report.affected_pairs as u64,
                new_pairs: report.new_pairs as u64,
                repaired: report.repaired() as u64,
                reconnected: report.reconnected as u64,
            },
        );
        report
    }
}

/// What [`PathTable::extend`] recomputed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtendReport {
    /// Pre-existing pairs whose routes crossed a recabled edge.
    pub affected_pairs: usize,
    /// Pairs involving a newly added switch (dense tables only).
    pub new_pairs: usize,
    /// Recomputed pairs that ended up with at least one path.
    pub reconnected: usize,
}

impl ExtendReport {
    /// Total pairs recomputed.
    pub fn repaired(&self) -> usize {
        self.affected_pairs + self.new_pairs
    }
}

/// Surviving-path count of one pair after [`PathTable::apply_faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairSurvival {
    /// Source switch.
    pub src: NodeId,
    /// Destination switch.
    pub dst: NodeId,
    /// Paths the pair had before masking.
    pub paths_before: usize,
    /// Paths that survived.
    pub paths_after: usize,
}

/// What [`PathTable::apply_faults`] removed.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Every pair that lost at least one path, sorted by `(src, dst)`.
    pub affected: Vec<PairSurvival>,
    /// Total paths dropped across all pairs.
    pub paths_removed: usize,
    /// Pairs left with zero paths.
    pub disconnected_pairs: usize,
}

impl FaultReport {
    /// The affected pairs, ready to hand to [`PathTable::repair`].
    pub fn affected_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.affected.iter().map(|p| (p.src, p.dst)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::{build_rrg, ConstructionMethod, RrgParams};

    fn small_graph() -> Graph {
        build_rrg(RrgParams::new(16, 8, 5), ConstructionMethod::Incremental, 9).unwrap()
    }

    #[test]
    fn pathset_layout() {
        let ps = PathSet::from_paths(&[vec![0, 1, 2], vec![0, 3, 4, 2]]);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.path(0), &[0, 1, 2]);
        assert_eq!(ps.path(1), &[0, 3, 4, 2]);
        assert_eq!(ps.hops(0), 2);
        assert_eq!(ps.hops(1), 3);
        assert_eq!(ps.max_hops(), 3);
        assert_eq!(ps.iter().count(), 2);
    }

    #[test]
    fn empty_pathset() {
        let ps = PathSet::default();
        assert!(ps.is_empty());
        assert_eq!(ps.max_hops(), 0);
    }

    #[test]
    fn selection_names_match_paper_notation() {
        assert_eq!(PathSelection::Ksp(8).name(), "KSP(8)");
        assert_eq!(PathSelection::RKsp(8).name(), "rKSP(8)");
        assert_eq!(PathSelection::EdKsp(16).name(), "EDKSP(16)");
        assert_eq!(PathSelection::REdKsp(8).name(), "rEDKSP(8)");
        assert_eq!(PathSelection::SinglePath.name(), "SP");
    }

    #[test]
    fn dense_table_covers_all_pairs() {
        let g = small_graph();
        let t = PathTable::compute(&g, PathSelection::Ksp(4), &PairSet::AllPairs, 0);
        assert_eq!(t.num_pairs(), 16 * 15);
        for s in 0..16u32 {
            for d in 0..16u32 {
                let ps = t.get(s, d).unwrap();
                if s == d {
                    assert!(ps.is_empty());
                } else {
                    assert_eq!(ps.len(), 4, "{s}->{d}");
                    for p in ps.iter() {
                        assert_eq!(p[0], s);
                        assert_eq!(*p.last().unwrap(), d);
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_table_covers_requested_pairs_only() {
        let g = small_graph();
        let pairs = PairSet::Pairs(vec![(0, 1), (2, 3), (2, 3), (5, 5)]);
        let t = PathTable::compute(&g, PathSelection::REdKsp(4), &pairs, 1);
        assert_eq!(t.num_pairs(), 2); // dedup + self-pair dropped
        assert!(t.get(0, 1).is_some());
        assert!(t.get(1, 0).is_none());
        assert!(t.get(5, 5).is_none());
    }

    #[test]
    fn randomized_table_is_deterministic_per_seed() {
        let g = small_graph();
        let pairs = PairSet::Pairs(vec![(0, 1), (4, 9), (12, 3)]);
        let a = PathTable::compute(&g, PathSelection::RKsp(4), &pairs, 42);
        let b = PathTable::compute(&g, PathSelection::RKsp(4), &pairs, 42);
        for (s, d, ps) in a.entries() {
            assert_eq!(Some(ps), b.get(s, d));
        }
        // And (overwhelmingly likely) different across seeds.
        let c = PathTable::compute(&g, PathSelection::RKsp(4), &pairs, 43);
        let differs = a.entries().any(|(s, d, ps)| c.get(s, d) != Some(ps));
        assert!(differs);
    }

    #[test]
    fn single_path_tables_have_one_shortest_path() {
        let g = small_graph();
        let t = PathTable::compute(&g, PathSelection::SinglePath, &PairSet::AllPairs, 0);
        for (s, d, ps) in t.entries() {
            assert_eq!(ps.len(), 1);
            assert!(s != d);
        }
    }

    #[test]
    fn max_hops_bounds_every_path() {
        let g = small_graph();
        let t = PathTable::compute(&g, PathSelection::REdKsp(5), &PairSet::AllPairs, 3);
        let m = t.max_hops();
        assert!(m >= 1);
        for (_, _, ps) in t.entries() {
            for p in ps.iter() {
                assert!(p.len() - 1 <= m);
            }
        }
    }

    #[test]
    fn edksp_tables_are_edge_disjoint_per_pair() {
        let g = small_graph();
        let t = PathTable::compute(&g, PathSelection::EdKsp(4), &PairSet::AllPairs, 0);
        for (_, _, ps) in t.entries() {
            let paths: Vec<Vec<NodeId>> = ps.iter().map(|p| p.to_vec()).collect();
            assert!(crate::disjoint::are_edge_disjoint(&g, &paths));
        }
    }

    #[test]
    fn all_pairs_shortest_matches_per_pair_search() {
        let g = small_graph();
        let fast = PathTable::all_pairs_shortest(&g, false, 0);
        let slow = PathTable::compute(&g, PathSelection::SinglePath, &PairSet::AllPairs, 0);
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s == d {
                    continue;
                }
                assert_eq!(
                    fast.get(s, d).unwrap().path(0),
                    slow.get(s, d).unwrap().path(0),
                    "{s}->{d}"
                );
            }
        }
        assert_eq!(fast.max_hops(), slow.max_hops());
    }

    #[test]
    fn all_pairs_shortest_randomized_has_correct_lengths() {
        let g = small_graph();
        let det = PathTable::all_pairs_shortest(&g, false, 0);
        let rnd = PathTable::all_pairs_shortest(&g, true, 7);
        let mut any_different = false;
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s == d {
                    continue;
                }
                let a = det.get(s, d).unwrap().path(0);
                let b = rnd.get(s, d).unwrap().path(0);
                assert_eq!(a.len(), b.len(), "{s}->{d} length differs");
                any_different |= a != b;
            }
        }
        assert!(any_different, "randomization should change at least one path");
        // Determinism per seed.
        let rnd2 = PathTable::all_pairs_shortest(&g, true, 7);
        for (s, d, ps) in rnd.entries() {
            assert_eq!(rnd2.get(s, d), Some(ps));
        }
    }

    #[test]
    fn pair_set_materialize() {
        assert_eq!(PairSet::AllPairs.materialize(3).len(), 6);
        let p = PairSet::Pairs(vec![(1, 0), (0, 1), (1, 0), (2, 2)]);
        assert_eq!(p.materialize(3), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn apply_faults_masks_only_dead_paths() {
        use jellyfish_topology::{DegradedGraph, FaultPlan};
        let g = small_graph();
        let mut t = PathTable::compute(&g, PathSelection::Ksp(4), &PairSet::AllPairs, 0);
        let pristine = t.clone();
        let plan = FaultPlan::random_links(&g, 0.08, 0, 21);
        let view = DegradedGraph::at_time(&g, &plan, 0);
        let report = t.apply_faults(&view);
        assert!(report.paths_removed > 0, "an 8% cut should hit some path");
        assert_eq!(
            report.paths_removed,
            report.affected.iter().map(|p| p.paths_before - p.paths_after).sum::<usize>()
        );
        // Survivors are live, untouched pairs keep their exact paths.
        let affected: std::collections::HashSet<(NodeId, NodeId)> =
            report.affected_pairs().into_iter().collect();
        for (s, d, ps) in t.entries() {
            for p in ps.iter() {
                assert!(view.path_is_live(p), "{s}->{d} kept a dead path");
            }
            if !affected.contains(&(s, d)) {
                assert_eq!(Some(ps), pristine.get(s, d));
            }
        }
    }

    #[test]
    fn apply_faults_on_live_view_is_a_no_op() {
        let g = small_graph();
        let mut t = PathTable::compute(&g, PathSelection::REdKsp(4), &PairSet::AllPairs, 5);
        let view = jellyfish_topology::DegradedGraph::new(&g);
        let report = t.apply_faults(&view);
        assert!(report.affected.is_empty());
        assert_eq!(report.paths_removed, 0);
    }

    #[test]
    fn repair_restores_affected_pairs_on_surviving_fabric() {
        use jellyfish_topology::{DegradedGraph, FaultPlan};
        let g = small_graph();
        let mut t = PathTable::compute(&g, PathSelection::Ksp(4), &PairSet::AllPairs, 0);
        let plan = FaultPlan::random_links(&g, 0.1, 0, 33);
        let view = DegradedGraph::at_time(&g, &plan, 0);
        let report = t.apply_faults(&view);
        assert!(!report.affected.is_empty());
        let reconnected = t.repair(&view, &report.affected_pairs(), 0);
        // A 10% cut of a degree-5 RRG overwhelmingly stays connected, so
        // every affected pair should come back at full strength.
        assert_eq!(reconnected, report.affected.len());
        for p in &report.affected {
            let ps = t.get(p.src, p.dst).unwrap();
            assert_eq!(ps.len(), 4, "{}->{} not repaired", p.src, p.dst);
            for path in ps.iter() {
                assert!(view.path_is_live(path), "repair produced a dead path");
            }
        }
    }

    /// Regression: `repair` used to only ever *raise* `max_hops`
    /// (`self.max_hops.max(...)`), so replacing the table's longest
    /// detour with a shorter recomputed route left a stale high-water
    /// mark and oversized the simulator's hop-indexed virtual channels.
    #[test]
    fn repair_lowers_stale_max_hops() {
        use jellyfish_topology::DegradedGraph;
        // A 5-cycle: 0-1-2-3-4-0. The direct edge 0-4 exists, but the
        // loaded table routes 0->4 the long way round (4 hops).
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let detour = vec![vec![0, 1, 2, 3, 4]];
        let mut t = PathTable::from_paths(5, [((0u32, 4u32), detour.as_slice())].into_iter());
        assert_eq!(t.max_hops(), 4);
        // Repairing the pair on a fully live fabric recomputes the
        // single shortest path (0-4, one hop): max_hops must drop.
        let view = DegradedGraph::new(&g);
        let reconnected = t.repair(&view, &[(0, 4)], 0);
        assert_eq!(reconnected, 1);
        assert_eq!(t.get(0, 4).unwrap().path(0), &[0, 4]);
        assert_eq!(t.max_hops(), 1, "repair must recompute max_hops exactly");
    }

    #[test]
    fn shortest_index_selects_by_length_keeping_first_on_ties() {
        // Unsorted set, the layout a deserialized table may present.
        let ps = PathSet::from_paths(&[vec![0, 1, 2, 3], vec![0, 2, 3], vec![0, 3]]);
        assert_eq!(ps.shortest_index(), 2);
        // Sorted sets keep index 0, including on ties at minimal length.
        let tie = PathSet::from_paths(&[vec![0, 1, 3], vec![0, 2, 3], vec![0, 4, 5, 3]]);
        assert_eq!(tie.shortest_index(), 0);
        assert_eq!(PathSet::default().shortest_index(), 0);
    }

    #[test]
    fn repaired_pairs_are_length_sorted_shortest_first() {
        use jellyfish_topology::{DegradedGraph, FaultPlan};
        let g = small_graph();
        let mut t = PathTable::compute(&g, PathSelection::Ksp(4), &PairSet::AllPairs, 0);
        let plan = FaultPlan::random_links(&g, 0.1, 0, 33);
        let view = DegradedGraph::at_time(&g, &plan, 0);
        let report = t.apply_faults(&view);
        assert!(!report.affected.is_empty());
        t.repair(&view, &report.affected_pairs(), 0);
        // Minimal-path consumers (UGAL) take `path(0)` as the minimal
        // route, so every repaired pair must come back shortest-first.
        for p in &report.affected {
            let ps = t.get(p.src, p.dst).unwrap();
            assert!(!ps.is_empty());
            assert_eq!(ps.shortest_index(), 0, "{}->{} not shortest-first", p.src, p.dst);
            for i in 1..ps.len() {
                assert!(ps.hops(i - 1) <= ps.hops(i), "{}->{} unsorted after repair", p.src, p.dst);
            }
        }
    }

    #[test]
    fn apply_faults_and_repair_work_on_sparse_tables() {
        use jellyfish_topology::{DegradedGraph, FaultPlan};
        let g = small_graph();
        let pairs = PairSet::Pairs(vec![(0, 9), (9, 0), (3, 12), (7, 2)]);
        let mut t = PathTable::compute(&g, PathSelection::EdKsp(3), &pairs, 0);
        let plan = FaultPlan::random_links(&g, 0.2, 0, 4);
        let view = DegradedGraph::at_time(&g, &plan, 0);
        let report = t.apply_faults(&view);
        let windows_sorted =
            report.affected.windows(2).all(|w| (w[0].src, w[0].dst) < (w[1].src, w[1].dst));
        assert!(windows_sorted, "report must be sorted for determinism");
        t.repair(&view, &report.affected_pairs(), 0);
        assert_eq!(t.num_pairs(), 4, "repair must not change pair coverage");
        for (_, _, ps) in t.entries() {
            for path in ps.iter() {
                assert!(view.path_is_live(path));
            }
        }
    }

    #[test]
    fn extend_repairs_exactly_the_stale_and_new_pairs() {
        use jellyfish_topology::expand_rrg;
        let params = RrgParams::new(16, 8, 5);
        let base = build_rrg(params, ConstructionMethod::Incremental, 9).unwrap();
        let (grown, _, plan) = expand_rrg(&base, params, 4, 77).unwrap();
        let mut t = PathTable::compute(&base, PathSelection::Ksp(4), &PairSet::AllPairs, 0);
        let before = t.clone();
        let report = t.extend(&grown, &plan.removed_edges(), 0);
        assert_eq!(t.num_switches(), 20);
        // Every pair touching a new switch was filled in.
        assert_eq!(report.new_pairs, 20 * 19 - 16 * 15);
        assert!(report.affected_pairs > 0, "recabling should cross some stored route");
        let fresh = PathTable::compute(&grown, PathSelection::Ksp(4), &PairSet::AllPairs, 0);
        let removed: std::collections::HashSet<(NodeId, NodeId)> =
            plan.removed_edges().into_iter().collect();
        let mut exact = 0usize;
        for s in 0..20u32 {
            for d in 0..20u32 {
                if s == d {
                    continue;
                }
                let got = t.get(s, d).unwrap();
                // Every stored route is valid on the grown graph...
                for p in got.iter() {
                    assert!(p.windows(2).all(|w| grown.has_edge(w[0], w[1])), "{s}->{d}");
                }
                // ...and repaired pairs match a fresh compute exactly
                // (same per-pair seeding). Untouched pairs may keep
                // longer-than-fresh routes: that is the measured drift.
                let was_repaired =
                    s >= 16 || d >= 16 || before.get(s, d).unwrap().crosses(&removed);
                if was_repaired {
                    assert_eq!(got, fresh.get(s, d).unwrap(), "{s}->{d}");
                    exact += 1;
                }
            }
        }
        assert!(exact >= report.new_pairs);
    }

    #[test]
    fn switch_failure_disconnects_pairs_through_it() {
        use jellyfish_topology::{DegradedGraph, FaultPlan};
        let g = small_graph();
        let mut t = PathTable::compute(&g, PathSelection::SinglePath, &PairSet::AllPairs, 0);
        let mut plan = FaultPlan::new();
        plan.add_switch_failure(0, 5);
        let view = DegradedGraph::at_time(&g, &plan, 0);
        let report = t.apply_faults(&view);
        // Every pair touching the dead switch lost its only path.
        for d in 0..16u32 {
            if d != 5 {
                assert!(t.get(5, d).unwrap().is_empty());
                assert!(t.get(d, 5).unwrap().is_empty());
            }
        }
        assert!(report.disconnected_pairs >= 2 * 15);
        // Repair cannot resurrect pairs whose endpoint is gone.
        let reconnected = t.repair(&view, &report.affected_pairs(), 0);
        assert!(t.get(5, 1).unwrap().is_empty());
        assert!(reconnected < report.affected.len());
    }
}
