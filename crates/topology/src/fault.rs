//! Link and switch fault injection.
//!
//! A [`FaultPlan`] is a seeded, serializable schedule of component
//! failures: each [`FaultEvent`] removes an undirected link or an entire
//! switch (all its incident links) at a given simulation cycle. Plans are
//! either hand-built or drawn reproducibly from a seed with
//! [`FaultPlan::random_links`], so a
//! degraded experiment is fully determined by `(topology seed, fault
//! seed)`.
//!
//! A [`DegradedGraph`] is the cheap failure-aware view of a [`Graph`]: it
//! overlays per-link and per-node liveness bitmaps on the shared CSR
//! storage without rebuilding it, answering "is this link usable?" in
//! O(1). When a downstream consumer needs a real [`Graph`] of the
//! surviving fabric (e.g. to recompute routes), [`DegradedGraph::
//! materialize`] builds one with identical node ids — failed switches
//! become isolated vertices rather than being renumbered away.
//!
//! Persistence uses the same line-oriented text idiom as the routing
//! crate's path-table format:
//!
//! ```text
//! jellyfish-faults v1
//! seed <seed>
//! link <time> <u> <v>
//! switch <time> <node>
//! ```

use crate::graph::{Graph, GraphBuilder, LinkId, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// What fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The undirected link `{u, v}` fails (both directed links die).
    Link {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Switch `node` fails: every link incident to it dies.
    Switch {
        /// The failed switch.
        node: NodeId,
    },
}

/// One failure at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the failure takes effect (`0` = before the run
    /// starts, i.e. a statically degraded fabric).
    pub time: u64,
    /// The failing component.
    pub kind: FaultKind,
}

/// A seeded, serializable schedule of failures, sorted by time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed the plan was drawn from (`0` for hand-built plans; recorded
    /// for provenance in result files).
    pub seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Empty plan (nothing fails).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an undirected link failure at `time`.
    ///
    /// # Panics
    /// Panics on self-loops (`u == v`).
    pub fn add_link_failure(&mut self, time: u64, u: NodeId, v: NodeId) {
        assert!(u != v, "link fault with identical endpoints {u}");
        self.insert(FaultEvent { time, kind: FaultKind::Link { u: u.min(v), v: u.max(v) } });
    }

    /// Schedules a switch failure at `time`.
    pub fn add_switch_failure(&mut self, time: u64, node: NodeId) {
        self.insert(FaultEvent { time, kind: FaultKind::Switch { node } });
    }

    fn insert(&mut self, ev: FaultEvent) {
        // Stable insertion keeps events sorted by time with same-time
        // events in insertion order.
        let pos = self.events.partition_point(|e| e.time <= ev.time);
        self.events.insert(pos, ev);
    }

    /// Draws a plan failing a `rate` fraction of the undirected links of
    /// `graph` (rounded to the nearest count), all at cycle `time`.
    ///
    /// The failed set is an exact-size sample without replacement, so two
    /// schemes compared under the same `(graph, rate, seed)` see the very
    /// same broken links.
    pub fn random_links(graph: &Graph, rate: f64, time: u64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "failure rate {rate} outside [0, 1]");
        let mut edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
        let count = (rate * edges.len() as f64).round() as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        edges.shuffle(&mut rng);
        let mut plan = Self { seed, events: Vec::with_capacity(count) };
        for &(u, v) in &edges[..count] {
            plan.add_link_failure(time, u, v);
        }
        plan
    }

    /// All events, sorted ascending by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no failures.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Failure-aware view over a shared [`Graph`].
///
/// Holds liveness bitmaps over the graph's directed links and nodes; the
/// CSR arrays themselves are borrowed, so constructing and updating a view
/// is O(faults), not O(edges).
#[derive(Debug, Clone)]
pub struct DegradedGraph<'g> {
    graph: &'g Graph,
    link_live: Vec<bool>,
    node_live: Vec<bool>,
    failed_edges: usize,
}

impl<'g> DegradedGraph<'g> {
    /// Fully-live view of `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            graph,
            link_live: vec![true; graph.num_links()],
            node_live: vec![true; graph.num_nodes()],
            failed_edges: 0,
        }
    }

    /// View of `graph` with every event of `plan` at or before `time`
    /// applied.
    pub fn at_time(graph: &'g Graph, plan: &FaultPlan, time: u64) -> Self {
        let mut view = Self::new(graph);
        for ev in plan.events() {
            if ev.time > time {
                break;
            }
            view.apply(ev.kind);
        }
        view
    }

    /// The underlying intact graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Applies one failure to the view. Idempotent.
    pub fn apply(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Link { u, v } => self.fail_link(u, v),
            FaultKind::Switch { node } => self.fail_switch(node),
        }
    }

    /// Fails the undirected link `{u, v}` (no-op if absent or already
    /// failed).
    pub fn fail_link(&mut self, u: NodeId, v: NodeId) {
        let (Some(fwd), Some(rev)) = (self.graph.link_id(u, v), self.graph.link_id(v, u)) else {
            return;
        };
        if self.link_live[fwd as usize] {
            self.link_live[fwd as usize] = false;
            self.link_live[rev as usize] = false;
            self.failed_edges += 1;
            jellyfish_obs::journal::publish(
                0,
                jellyfish_obs::journal::EventKind::LinkDown { u, v },
            );
        }
    }

    /// Fails switch `node` and every link incident to it.
    pub fn fail_switch(&mut self, node: NodeId) {
        if self.node_live[node as usize] {
            jellyfish_obs::journal::publish(
                0,
                jellyfish_obs::journal::EventKind::SwitchDown { node },
            );
        }
        self.node_live[node as usize] = false;
        let neighbors: Vec<NodeId> = self.graph.neighbors(node).to_vec();
        for v in neighbors {
            self.fail_link(node, v);
        }
    }

    /// Whether directed link `link` is still usable.
    #[inline]
    pub fn link_is_live(&self, link: LinkId) -> bool {
        self.link_live[link as usize]
    }

    /// Whether switch `node` is still up.
    #[inline]
    pub fn node_is_live(&self, node: NodeId) -> bool {
        self.node_live[node as usize]
    }

    /// Live neighbors of `u` (empty if `u` itself is down).
    pub fn live_neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let range = self.graph.out_links(u);
        let base = range.start;
        self.graph
            .neighbors(u)
            .iter()
            .enumerate()
            .filter(move |&(i, _)| self.link_live[(base + i as u32) as usize])
            .map(|(_, &v)| v)
    }

    /// Surviving degree of `u`.
    pub fn live_degree(&self, u: NodeId) -> usize {
        self.graph.out_links(u).filter(|&l| self.link_live[l as usize]).count()
    }

    /// Number of failed undirected edges.
    pub fn num_failed_edges(&self) -> usize {
        self.failed_edges
    }

    /// Whether every consecutive hop of a node path is a live link.
    pub fn path_is_live(&self, path: &[NodeId]) -> bool {
        path.windows(2)
            .all(|w| self.graph.link_id(w[0], w[1]).is_some_and(|l| self.link_live[l as usize]))
    }

    /// Builds a standalone [`Graph`] of the surviving fabric.
    ///
    /// Node ids are preserved — failed switches remain as isolated
    /// vertices — so path tables computed on the result are directly
    /// comparable with tables for the intact graph. Note the *link ids*
    /// of the two graphs differ wherever edges were dropped.
    pub fn materialize(&self) -> Graph {
        let mut builder = GraphBuilder::new(self.graph.num_nodes());
        for (u, v) in self.graph.edges() {
            if self.graph.link_id(u, v).is_some_and(|l| self.link_live[l as usize]) {
                builder.add_edge(u, v);
            }
        }
        builder.build()
    }
}

/// Magic header line of the fault-plan text format.
const HEADER: &str = "jellyfish-faults v1";

/// Serializes `plan` into the v1 text format.
pub fn write_plan<W: Write>(plan: &FaultPlan, mut out: W) -> io::Result<()> {
    let mut buf = String::new();
    writeln!(buf, "{HEADER}").unwrap();
    writeln!(buf, "seed {}", plan.seed).unwrap();
    for ev in plan.events() {
        match ev.kind {
            FaultKind::Link { u, v } => writeln!(buf, "link {} {u} {v}", ev.time).unwrap(),
            FaultKind::Switch { node } => writeln!(buf, "switch {} {node}", ev.time).unwrap(),
        }
    }
    out.write_all(buf.as_bytes())
}

/// Errors from [`read_plan`].
#[derive(Debug)]
pub enum PlanReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file, with a line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for PlanReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanReadError::Io(e) => write!(f, "i/o error: {e}"),
            PlanReadError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for PlanReadError {}

impl From<io::Error> for PlanReadError {
    fn from(e: io::Error) -> Self {
        PlanReadError::Io(e)
    }
}

/// Parses a v1 text file back into a [`FaultPlan`].
pub fn read_plan<R: BufRead>(input: R) -> Result<FaultPlan, PlanReadError> {
    let mut lines = input.lines().enumerate();
    let bad = |line: usize, message: String| PlanReadError::Parse { line, message };

    let (ln, header) = match lines.next() {
        Some((i, l)) => (i + 1, l?),
        None => return Err(bad(0, "missing header".into())),
    };
    if header.trim() != HEADER {
        return Err(bad(ln, format!("bad header {header:?}")));
    }
    let (ln, seed_line) = match lines.next() {
        Some((i, l)) => (i + 1, l?),
        None => return Err(bad(0, "missing seed line".into())),
    };
    let seed: u64 = seed_line
        .strip_prefix("seed ")
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| bad(ln, "bad seed line".into()))?;

    let mut plan = FaultPlan { seed, events: Vec::new() };
    for (i, line) in lines {
        let ln = i + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let tag = fields.next().unwrap();
        let mut num = |what: &str| -> Result<u64, PlanReadError> {
            fields
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(ln, format!("bad {what} in {line:?}")))
        };
        match tag {
            "link" => {
                let time = num("time")?;
                let u = num("endpoint")? as NodeId;
                let v = num("endpoint")? as NodeId;
                if u == v {
                    return Err(bad(ln, format!("self-loop link fault {u}")));
                }
                plan.add_link_failure(time, u, v);
            }
            "switch" => {
                let time = num("time")?;
                let node = num("node")? as NodeId;
                plan.add_switch_failure(time, node);
            }
            _ => return Err(bad(ln, format!("unrecognized line {line:?}"))),
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrg::{build_rrg, ConstructionMethod, RrgParams};

    fn graph() -> Graph {
        build_rrg(RrgParams::new(16, 8, 5), ConstructionMethod::Incremental, 7).unwrap()
    }

    #[test]
    fn plan_events_stay_sorted() {
        let mut plan = FaultPlan::new();
        plan.add_link_failure(30, 2, 3);
        plan.add_switch_failure(10, 5);
        plan.add_link_failure(20, 0, 1);
        let times: Vec<u64> = plan.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn random_links_is_deterministic_and_sized() {
        let g = graph();
        let a = FaultPlan::random_links(&g, 0.1, 0, 42);
        let b = FaultPlan::random_links(&g, 0.1, 0, 42);
        let c = FaultPlan::random_links(&g, 0.1, 0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), (0.1 * g.num_edges() as f64).round() as usize);
        // Sampled without replacement: all distinct.
        let mut seen = std::collections::HashSet::new();
        for ev in a.events() {
            assert!(seen.insert(ev.kind), "duplicate fault {:?}", ev.kind);
        }
    }

    #[test]
    fn degraded_view_masks_failed_links() {
        let g = graph();
        let (u, v) = g.edges().next().unwrap();
        let mut view = DegradedGraph::new(&g);
        assert_eq!(view.num_failed_edges(), 0);
        view.fail_link(u, v);
        view.fail_link(u, v); // idempotent
        assert_eq!(view.num_failed_edges(), 1);
        let fwd = g.link_id(u, v).unwrap();
        let rev = g.link_id(v, u).unwrap();
        assert!(!view.link_is_live(fwd));
        assert!(!view.link_is_live(rev));
        assert_eq!(view.live_degree(u), g.degree(u) - 1);
        assert!(!view.live_neighbors(u).any(|n| n == v));
        assert!(!view.path_is_live(&[u, v]));
    }

    #[test]
    fn switch_failure_kills_all_incident_links() {
        let g = graph();
        let node = 3;
        let view = {
            let mut plan = FaultPlan::new();
            plan.add_switch_failure(0, node);
            DegradedGraph::at_time(&g, &plan, 0)
        };
        assert!(!view.node_is_live(node));
        assert_eq!(view.live_degree(node), 0);
        assert_eq!(view.num_failed_edges(), g.degree(node));
        for &v in g.neighbors(node) {
            assert!(view.live_neighbors(v).all(|n| n != node));
        }
    }

    #[test]
    fn at_time_respects_event_times() {
        let g = graph();
        let (u, v) = g.edges().next().unwrap();
        let mut plan = FaultPlan::new();
        plan.add_link_failure(100, u, v);
        let before = DegradedGraph::at_time(&g, &plan, 99);
        let after = DegradedGraph::at_time(&g, &plan, 100);
        assert_eq!(before.num_failed_edges(), 0);
        assert_eq!(after.num_failed_edges(), 1);
    }

    #[test]
    fn materialize_preserves_node_ids() {
        let g = graph();
        let plan = FaultPlan::random_links(&g, 0.15, 0, 11);
        let view = DegradedGraph::at_time(&g, &plan, 0);
        let m = view.materialize();
        assert_eq!(m.num_nodes(), g.num_nodes());
        assert_eq!(m.num_edges(), g.num_edges() - view.num_failed_edges());
        for (u, v) in m.edges() {
            let l = g.link_id(u, v).unwrap();
            assert!(view.link_is_live(l));
        }
    }

    #[test]
    fn plan_text_round_trip() {
        let g = graph();
        let mut plan = FaultPlan::random_links(&g, 0.1, 0, 5);
        plan.add_switch_failure(250, 7);
        plan.add_link_failure(100, 0, g.neighbors(0)[0]);
        let mut buf = Vec::new();
        write_plan(&plan, &mut buf).unwrap();
        let loaded = read_plan(buf.as_slice()).unwrap();
        assert_eq!(loaded, plan);
    }

    #[test]
    fn read_plan_rejects_garbage() {
        assert!(read_plan("nope\n".as_bytes()).is_err());
        assert!(read_plan("jellyfish-faults v1\nseed x\n".as_bytes()).is_err());
        let bad_tag = "jellyfish-faults v1\nseed 1\nfrob 1 2\n";
        assert!(read_plan(bad_tag.as_bytes()).is_err());
        let self_loop = "jellyfish-faults v1\nseed 1\nlink 0 3 3\n";
        assert!(read_plan(self_loop.as_bytes()).is_err());
    }
}
