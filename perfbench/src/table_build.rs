//! `table_build`: cold all-pairs path tables for the paper's four path
//! selections on a prebuilt RRG(64, 11, 8).
//!
//! One operation builds all four tables (KSP, rKSP, EDKSP, rEDKSP with
//! k = 8) for one table seed; the per-selection times fall in separate
//! clusters, their sum does not. Table seeds cycle through a small pool
//! so that every later use of a seed must reproduce the digest of its
//! first use.

use crate::check::{table_is_valid, Adjacency};
use crate::stats::{median, mix, Fnv, Rng};
use crate::{DigestBook, HostSpeed, Metric, OpLog, Outcome, RunArgs};
use jellyfish::JellyfishNetwork;
use jellyfish_routing::cache::{encode_table, CacheKey};
use jellyfish_routing::workspace::DijkstraWorkspace;
use jellyfish_routing::{
    bfs, edge_disjoint_paths_with, k_shortest_paths_with, Mask, PairSet, PathSelection, PathTable,
    TieBreak,
};
use jellyfish_topology::{Graph, NodeId, RrgParams};
use std::time::Instant;

/// Paths per pair.
pub(crate) const K: usize = 8;
/// The four selections of one operation, in build order.
pub(crate) const SELECTIONS: [PathSelection; 4] = [
    PathSelection::Ksp(K),
    PathSelection::RKsp(K),
    PathSelection::EdKsp(K),
    PathSelection::REdKsp(K),
];
/// Metric names of the per-selection build times, in [`SELECTIONS`] order.
const TABLE_METRICS: [&str; 4] = [
    "routing.table.ksp_ms",
    "routing.table.rksp_ms",
    "routing.table.edksp_ms",
    "routing.table.redksp_ms",
];
/// Distinct table seeds per run.
const SEED_POOL: u64 = 4;
/// Topology builds during set-up; `setup_s` is their median.
const SETUP_BUILDS: usize = 31;
/// Ordered pairs in the per-pair layer probes.
const PROBE_PAIRS: usize = 256;

fn params() -> RrgParams {
    RrgParams::new(64, 11, 8)
}

/// The fixed fabric: RRG(64, 11, 8) with [`crate::FABRIC_SEED`].
pub(crate) fn fabric() -> Result<JellyfishNetwork, String> {
    JellyfishNetwork::build(params(), crate::FABRIC_SEED).map_err(|e| e.to_string())
}

/// One run's state: the graph, the digests seen, the timings so far.
struct TableRun<'a> {
    graph: &'a Graph,
    host: HostSpeed,
    adj: Adjacency,
    seed: u64,
    ops: u64,
    book: DigestBook,
    log: OpLog,
    /// Build times per selection, in [`SELECTIONS`] order.
    split: [Vec<f64>; 4],
    resident_bytes: usize,
}

impl TableRun<'_> {
    /// One operation: the four tables for the next pool seed, then the
    /// digest and validity checks (outside the timed region).
    fn op(&mut self, outcome: &mut Outcome) {
        let n = self.graph.num_nodes();
        let table_seed = mix(self.seed, 100 + self.ops % SEED_POOL);
        let graph = self.graph;
        let mut split = [0.0; 4];
        let (tables, t) = self.host.time(|| {
            SELECTIONS
                .iter()
                .zip(&mut split)
                .map(|(sel, ms)| {
                    let t0 = Instant::now();
                    let table = PathTable::compute(graph, *sel, &PairSet::AllPairs, table_seed);
                    *ms = t0.elapsed().as_secs_f64() * 1e3;
                    table
                })
                .collect::<Vec<_>>()
        });
        for (all, ms) in self.split.iter_mut().zip(split) {
            all.push(ms * t.scale);
        }
        self.log.record(t, (SELECTIONS.len() * n * (n - 1)) as f64);
        outcome.attempted += 1;
        // Path validity is checked on each seed's first build; later
        // builds must then reproduce that build's digest.
        let first_use = self.ops < SEED_POOL;
        let mut ok = true;
        for (sel, table) in SELECTIONS.iter().zip(&tables) {
            let key = CacheKey::new(self.graph, *sel, &PairSet::AllPairs, table_seed);
            let mut h = Fnv::default();
            h.write(&encode_table(table, &key));
            ok &= self.book.check(format!("{}@{table_seed:016x}", sel.name()), h.finish());
            if first_use && !table_is_valid(table, &self.adj, K) {
                outcome.notes.push(format!("error {} has an invalid path set", sel.name()));
                ok = false;
            }
        }
        self.resident_bytes = tables.iter().map(PathTable::resident_bytes).sum();
        outcome.ok += u64::from(ok);
        self.ops += 1;
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    // Set-up: the fabric, built several times.
    let mut host = HostSpeed::default();
    let base_rss = crate::own_rss_mb();
    let mut builds = Vec::new();
    let mut net = None;
    for _ in 0..SETUP_BUILDS {
        let (built, t) = host.time(fabric);
        builds.push(t.ms() / 1e3);
        net = Some(built?);
    }
    let net = net.expect("built at least once");
    let setup_s = median(&builds);
    let mut b = TableRun {
        graph: net.graph(),
        host,
        adj: Adjacency::new(net.graph()),
        seed: args.seed,
        ops: 0,
        book: DigestBook::default(),
        log: OpLog::default(),
        split: Default::default(),
        resident_bytes: 0,
    };
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        b.op(&mut outcome);
    }
    if !args.trace {
        let rss = crate::own_peak_rss_mb(&mut outcome, base_rss);
        crate::end_to_end(&mut outcome, setup_s, &b.log, b.log.work_per_s(), rss)?;
    } else {
        let plain = std::mem::take(&mut b.log);
        let per_sel: Vec<f64> = b.split.iter().map(|v| median(v)).collect();
        // Traced half: the routing layer's per-pair spans are recorded,
        // and the rings drained after every operation.
        jellyfish_obs::trace::enable(jellyfish_obs::trace::TraceConfig::default());
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            b.op(&mut outcome);
            drop(jellyfish_obs::trace::take());
        }
        jellyfish_obs::trace::disable();
        drop(jellyfish_obs::trace::take());
        for (name, ms) in TABLE_METRICS.iter().zip(per_sel) {
            outcome.metrics.push(Metric::new(name, ms, "ms"));
        }
        let (yen, rf, bfs) = probe_pairs(b.graph, args.seed);
        let resident_mb = b.resident_bytes as f64 / (1 << 20) as f64;
        let m = &mut outcome.metrics;
        m.push(Metric::new("routing.yen_us", yen, "us"));
        m.push(Metric::new("routing.remove_find_us", rf, "us"));
        m.push(Metric::new("routing.bfs_us", bfs, "us"));
        m.push(Metric::new("routing.table.resident_mb", resident_mb, "MiB"));
        m.push(Metric::new("topology.build_ms", setup_s * 1e3, "ms"));
        crate::traced_summary(&mut outcome, &plain, &b.log);
    }
    outcome.notes.push(b.host.summary());
    outcome.notes.extend(b.book.lines());
    outcome.notes.push(format!(
        "table_build: {} operations of 4 tables, {} repeated table digests matched",
        outcome.attempted, b.book.repeats
    ));
    Ok(outcome)
}

/// Mean microseconds per pair of Yen (k = 8), Remove-Find (k = 8) and
/// one BFS shortest path, on a fixed seeded pair sample with the
/// deterministic tie-break; the median of five passes.
fn probe_pairs(graph: &Graph, seed: u64) -> (f64, f64, f64) {
    let n = graph.num_nodes() as u64;
    let mut rng = Rng::new(mix(seed, 3));
    let pairs: Vec<(NodeId, NodeId)> = (0..PROBE_PAIRS)
        .map(|_| {
            let s = rng.below(n);
            (s as NodeId, ((s + 1 + rng.below(n - 1)) % n) as NodeId)
        })
        .collect();
    let mut ws = DijkstraWorkspace::for_graph(graph);
    let mask = Mask::new(graph);
    let mut sp_buf = bfs::SpScratch::for_graph(graph);
    let time = |f: &mut dyn FnMut(NodeId, NodeId)| {
        let passes: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                for &(s, d) in &pairs {
                    f(s, d);
                }
                t0.elapsed().as_nanos() as f64 / 1e3 / pairs.len() as f64
            })
            .collect();
        median(&passes)
    };
    let yen = time(&mut |s, d| {
        std::hint::black_box(k_shortest_paths_with(
            graph,
            s,
            d,
            K,
            &mut TieBreak::Deterministic,
            &mut ws,
        ));
    });
    let rf = time(&mut |s, d| {
        std::hint::black_box(edge_disjoint_paths_with(
            graph,
            s,
            d,
            K,
            &mut TieBreak::Deterministic,
            &mut ws,
        ));
    });
    let bfs = time(&mut |s, d| {
        std::hint::black_box(bfs::shortest_path_with(
            graph,
            s,
            d,
            &mask,
            &mut TieBreak::Deterministic,
            &mut sp_buf,
        ));
    });
    (yen, rf, bfs)
}
