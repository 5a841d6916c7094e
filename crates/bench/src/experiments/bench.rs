//! The `jellytool bench` performance suite and its regression gate.
//!
//! Every workload is a self-contained closure over prebuilt state (the
//! network, tables, traffic) so the timed region covers exactly the
//! operation named by the workload. Each workload runs `runs` times;
//! the report keeps every raw sample plus the median and the
//! interquartile range, written as one `BENCH_<name>.json` per workload
//! in the versioned `jellyfish-bench v1` schema:
//!
//! ```json
//! {
//!   "schema": "jellyfish-bench v1",
//!   "name": "path_rksp",
//!   "params": "all-pairs rKSP(8) on RRG(64,11,8) seed 7",
//!   "runs": 5,
//!   "samples_ns": [31202125, 30925458, ...],
//!   "median_ns": 31202125,
//!   "iqr_ns": 276667,
//!   "extra": {"cycles_per_sec": 1.1e6},   // workload-specific gauges
//!   "note": "..."                          // optional provenance
//! }
//! ```
//!
//! The regression gate ([`compare_to_baseline`]) reads committed
//! baseline files back (a single file or a directory of
//! `BENCH_*.json`), matches them to fresh results by `name`, and flags
//! any workload whose median exceeds the baseline median by more than
//! the tolerance. Medians (not means) make the gate robust to one-off
//! scheduler hiccups; the tolerance absorbs machine-to-machine noise.
//! Workloads with no committed baseline are reported as new, never as
//! failures, so adding a workload does not break CI.

use crate::Scale;
use jellyfish::prelude::*;
use jellyfish::JellyfishNetwork;
use jellyfish_obs::json::{parse_json, JsonValue};
use jellyfish_routing::{PairSet, PathCache, PathTable};
use jellyfish_topology::{
    build_rrg, expand_rrg, ConstructionMethod, DegradedGraph, FaultPlan, Graph,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Schema tag written into (and required of) every bench JSON file.
pub const SCHEMA: &str = "jellyfish-bench v1";

/// Which part of the suite runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The CI tier: every workload on the small RRG(64,11,8) fabric.
    Quick,
    /// Quick plus the heavier variants (bigger fabric, paper-length
    /// simulation) for local deep-dives.
    Full,
}

/// One timed repetition: elapsed nanoseconds plus any workload-specific
/// gauges (cycles/sec, speedups, ...).
pub struct RunSample {
    /// Wall time of the timed region.
    pub ns: u64,
    /// Extra named gauges; aggregated by median across runs.
    pub extra: Vec<(String, f64)>,
}

impl From<u64> for RunSample {
    fn from(ns: u64) -> Self {
        RunSample { ns, extra: Vec::new() }
    }
}

/// A named workload: prebuilt state captured in the closure, the timed
/// region inside it.
pub struct Workload {
    /// Workload name; the report file is `BENCH_<name>.json`.
    pub name: &'static str,
    /// Human-readable description of instance and parameters.
    pub params: String,
    /// Optional provenance note carried into the JSON.
    pub note: Option<String>,
    run: Box<dyn FnMut() -> RunSample>,
}

/// The aggregated result of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Workload name.
    pub name: String,
    /// Workload description (instance, parameters).
    pub params: String,
    /// Number of repetitions.
    pub runs: usize,
    /// Raw per-run wall times, in run order.
    pub samples_ns: Vec<u64>,
    /// Median wall time.
    pub median_ns: u64,
    /// Interquartile range (Q3 - Q1) of the wall times.
    pub iqr_ns: u64,
    /// Workload-specific gauges, median across runs, sorted by name.
    pub extra: BTreeMap<String, f64>,
    /// Optional provenance note.
    pub note: Option<String>,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    // Linear interpolation between closest ranks; `sorted` is non-empty.
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    (sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * frac).round() as u64
}

fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite gauge"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

impl BenchResult {
    /// Aggregates raw run samples into a result.
    pub fn from_samples(
        name: &str,
        params: &str,
        note: Option<String>,
        samples: Vec<RunSample>,
    ) -> Self {
        assert!(!samples.is_empty(), "a workload needs at least one run");
        let samples_ns: Vec<u64> = samples.iter().map(|s| s.ns).collect();
        let mut sorted = samples_ns.clone();
        sorted.sort_unstable();
        let median_ns = percentile(&sorted, 0.5);
        let iqr_ns = percentile(&sorted, 0.75) - percentile(&sorted, 0.25);
        let mut by_key: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &samples {
            for (k, v) in &s.extra {
                by_key.entry(k.clone()).or_default().push(*v);
            }
        }
        let extra = by_key.into_iter().map(|(k, mut vs)| (k, median_f64(&mut vs))).collect();
        Self {
            name: name.to_string(),
            params: params.to_string(),
            runs: samples.len(),
            samples_ns,
            median_ns,
            iqr_ns,
            extra,
            note,
        }
    }

    /// Renders the `jellyfish-bench v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        writeln!(out, "  \"schema\": \"{SCHEMA}\",").unwrap();
        writeln!(out, "  \"name\": \"{}\",", self.name).unwrap();
        writeln!(out, "  \"params\": \"{}\",", self.params).unwrap();
        writeln!(out, "  \"runs\": {},", self.runs).unwrap();
        let samples: Vec<String> = self.samples_ns.iter().map(u64::to_string).collect();
        writeln!(out, "  \"samples_ns\": [{}],", samples.join(", ")).unwrap();
        writeln!(out, "  \"median_ns\": {},", self.median_ns).unwrap();
        write!(out, "  \"iqr_ns\": {}", self.iqr_ns).unwrap();
        if !self.extra.is_empty() {
            let fields: Vec<String> =
                self.extra.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            write!(out, ",\n  \"extra\": {{{}}}", fields.join(", ")).unwrap();
        }
        if let Some(note) = &self.note {
            write!(out, ",\n  \"note\": \"{}\"", note.replace('"', "\\\"")).unwrap();
        }
        out.push_str("\n}\n");
        out
    }

    /// The report file name, `BENCH_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// Runs one workload `runs` times and aggregates.
pub fn run_workload(mut w: Workload, runs: usize) -> BenchResult {
    let samples: Vec<RunSample> = (0..runs).map(|_| (w.run)()).collect();
    BenchResult::from_samples(w.name, &w.params, w.note.take(), samples)
}

fn time<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64, r)
}

/// The suite instance every path/cache/sim workload runs on: the same
/// RRG(64, 11, 8) seed-7 fabric the original `BENCH_path_cache.json`
/// criterion numbers were recorded on, so the trajectory stays
/// comparable across the schema migration.
pub fn suite_params() -> (RrgParams, u64) {
    (RrgParams::new(64, 11, 8), 7)
}

fn build_net(params: RrgParams, seed: u64) -> JellyfishNetwork {
    JellyfishNetwork::build(params, seed).expect("suite RRG is buildable")
}

fn path_workload(name: &'static str, sel: PathSelection) -> Workload {
    let (params, seed) = suite_params();
    // Setup is lazy (first run) so building the suite *list* costs
    // nothing; only the region inside `time` is ever measured.
    let mut net: Option<JellyfishNetwork> = None;
    Workload {
        name,
        params: format!("all-pairs {} on RRG(64,11,8) seed {seed}", sel.name()),
        note: None,
        run: Box::new(move || {
            let net = net.get_or_insert_with(|| build_net(params, seed));
            let (ns, table) =
                time(|| PathTable::compute(net.graph(), sel, &PairSet::AllPairs, seed));
            assert!(table.num_pairs() > 0);
            ns.into()
        }),
    }
}

fn topo_workload() -> Workload {
    let (params, seed) = suite_params();
    Workload {
        name: "topo_build",
        params: format!("RRG(64,11,8) seed {seed}: build + connectivity checks"),
        note: None,
        run: Box::new(move || {
            let (ns, net) = time(|| build_net(params, seed));
            assert_eq!(net.graph().num_nodes(), 64);
            ns.into()
        }),
    }
}

fn cache_workload() -> Workload {
    let (params, seed) = suite_params();
    let mut net_slot: Option<JellyfishNetwork> = None;
    let sel = PathSelection::RKsp(4);
    let dir = std::env::temp_dir().join(format!("jellytool-bench-cache-{}", std::process::id()));
    Workload {
        name: "path_cache",
        params: format!("all-pairs rKSP(4) on RRG(64,11,8) seed {seed}, cold store + warm loads"),
        note: Some(
            "schema migration: earlier trajectory entries for this workload were \
             hand-recorded criterion numbers (results_us_per_iter); from this file on, \
             samples_ns/median_ns follow jellyfish-bench v1 and time the warm disk load, \
             with cold compute+store and warm in-memory hits in extra"
                .to_string(),
        ),
        run: Box::new(move || {
            let net = net_slot.get_or_insert_with(|| build_net(params, seed));
            let _ = std::fs::remove_dir_all(&dir);
            let cold_cache = PathCache::new(&dir).expect("create bench cache dir");
            let (cold_ns, t1) =
                time(|| cold_cache.load_or_compute(net.graph(), sel, &PairSet::AllPairs, seed));
            // A fresh instance drops the in-memory LRU: the next load is
            // served from disk.
            let disk_cache = PathCache::new(&dir).expect("open bench cache dir");
            let (warm_disk_ns, t2) =
                time(|| disk_cache.load_or_compute(net.graph(), sel, &PairSet::AllPairs, seed));
            let (warm_mem_ns, t3) =
                time(|| disk_cache.load_or_compute(net.graph(), sel, &PairSet::AllPairs, seed));
            assert!(t1.num_pairs() == t2.num_pairs() && t2.num_pairs() == t3.num_pairs());
            let _ = std::fs::remove_dir_all(&dir);
            RunSample {
                ns: warm_disk_ns,
                extra: vec![
                    ("cold_ns".to_string(), cold_ns as f64),
                    ("warm_mem_ns".to_string(), warm_mem_ns as f64),
                    ("warm_disk_speedup_vs_cold".to_string(), cold_ns as f64 / warm_disk_ns as f64),
                ],
            }
        }),
    }
}

fn sim_workload(name: &'static str, scale: Scale) -> Workload {
    let (params, seed) = suite_params();
    let mut state: Option<(JellyfishNetwork, PathTable)> = None;
    let cfg = scale.sim_config();
    let total_cycles = cfg.total_cycles();
    Workload {
        name,
        params: format!(
            "rEDKSP(8) adaptive, uniform load 0.20, {total_cycles} cycles on RRG(64,11,8) seed {seed}"
        ),
        note: None,
        run: Box::new(move || {
            let (net, table) = state.get_or_insert_with(|| {
                let net = build_net(params, seed);
                let table = PathTable::compute(
                    net.graph(),
                    PathSelection::REdKsp(8),
                    &PairSet::AllPairs,
                    seed,
                );
                (net, table)
            });
            let mut sim = jellyfish_flitsim::Simulator::new(
                net.graph(),
                params,
                table,
                None,
                Mechanism::KspAdaptive,
                PacketDestinations::Uniform { num_hosts: params.num_hosts() },
                0.20,
                cfg,
            );
            let (ns, result) = time(|| sim.run());
            // Load 0.20 is far below saturation: the run must complete
            // its full schedule or cycles/sec is meaningless.
            assert!(!result.saturated, "bench sim saturated at load 0.20");
            RunSample {
                ns,
                extra: vec![(
                    "cycles_per_sec".to_string(),
                    f64::from(total_cycles) / (ns as f64 / 1e9),
                )],
            }
        }),
    }
}

/// The simulator at a fixed two shards on the exact `sim_cycles`
/// instance, so the two baselines are directly comparable: the sharding
/// overhead (or gain) is
/// `sim_cycles_parallel.cycles_per_sec / sim_cycles.cycles_per_sec`.
/// The shard count is a constant, not the host's core count, so every
/// host measures the same workload; it is recorded in the `threads`
/// gauge.
fn sim_parallel_workload(scale: Scale) -> Workload {
    let (params, seed) = suite_params();
    let mut state: Option<(JellyfishNetwork, PathTable)> = None;
    let cfg = scale.sim_config();
    let total_cycles = cfg.total_cycles();
    let threads = 2;
    Workload {
        name: "sim_cycles_parallel",
        params: format!(
            "rEDKSP(8) adaptive, uniform load 0.20, {total_cycles} cycles on RRG(64,11,8) \
             seed {seed}, {threads} shard thread(s)"
        ),
        note: None,
        run: Box::new(move || {
            let (net, table) = state.get_or_insert_with(|| {
                let net = build_net(params, seed);
                let table = PathTable::compute(
                    net.graph(),
                    PathSelection::REdKsp(8),
                    &PairSet::AllPairs,
                    seed,
                );
                (net, table)
            });
            let mut sim = jellyfish_flitsim::Simulator::new(
                net.graph(),
                params,
                table,
                None,
                Mechanism::KspAdaptive,
                PacketDestinations::Uniform { num_hosts: params.num_hosts() },
                0.20,
                cfg,
            )
            .with_threads(threads);
            let (ns, result) = time(|| sim.run());
            assert!(!result.saturated, "bench sim saturated at load 0.20");
            RunSample {
                ns,
                extra: vec![
                    ("cycles_per_sec".to_string(), f64::from(total_cycles) / (ns as f64 / 1e9)),
                    ("threads".to_string(), threads as f64),
                ],
            }
        }),
    }
}

/// Dynamic-traffic scenario runs on the suite fabric, timing a full
/// simulation with the flow ledger active — per-flow packet
/// generation, completion detection, and FCT recording. `sim_flows` is
/// Poisson arrivals with bounded-Pareto sizes over a uniform matrix;
/// `sim_hotspot` is an incast hotspot matrix with a mid-run shift to
/// steady permutation traffic (the scenario engine's phase machinery
/// is part of the timed region).
fn scenario_workload(
    name: &'static str,
    label: &'static str,
    make_plan: fn(u64) -> jellyfish_traffic::ScenarioPlan,
) -> Workload {
    let (params, seed) = suite_params();
    type State = (JellyfishNetwork, PathTable, jellyfish_traffic::ScenarioPlan);
    let mut state: Option<State> = None;
    let cfg = Scale::Quick.sim_config();
    let total_cycles = cfg.total_cycles();
    Workload {
        name,
        params: format!(
            "{label}, rEDKSP(8) adaptive, {total_cycles} cycles on RRG(64,11,8) seed {seed}"
        ),
        note: None,
        run: Box::new(move || {
            let (net, table, plan) = state.get_or_insert_with(|| {
                let net = build_net(params, seed);
                let table = PathTable::compute(
                    net.graph(),
                    PathSelection::REdKsp(8),
                    &PairSet::AllPairs,
                    seed,
                );
                (net, table, make_plan(seed))
            });
            let mut sim = jellyfish_flitsim::Simulator::new(
                net.graph(),
                params,
                table,
                None,
                Mechanism::KspAdaptive,
                PacketDestinations::Uniform { num_hosts: params.num_hosts() },
                0.0,
                cfg,
            )
            .with_scenario(plan);
            let (ns, result) = time(|| sim.run());
            assert!(!result.saturated, "bench scenario load must stay below saturation");
            let flows = sim.flow_stats().expect("scenario attached");
            assert!(flows.generated > 0, "scenario must generate flows");
            assert_eq!(flows.generated, flows.completed + flows.live + flows.dropped);
            RunSample {
                ns,
                extra: vec![
                    ("cycles_per_sec".to_string(), f64::from(total_cycles) / (ns as f64 / 1e9)),
                    ("flows_completed".to_string(), flows.completed as f64),
                ],
            }
        }),
    }
}

fn flows_plan(seed: u64) -> jellyfish_traffic::ScenarioPlan {
    use jellyfish_traffic::{FlowSize, Matrix, ScenarioPlan};
    let mut plan = ScenarioPlan::new(seed);
    plan.add_flows(0, 0.008, FlowSize { min: 1, max: 64, alpha: 1.4 }, Matrix::Uniform);
    plan
}

fn hotspot_plan(seed: u64) -> jellyfish_traffic::ScenarioPlan {
    use jellyfish_traffic::{FlowSize, HotspotKind, Matrix, ScenarioPlan};
    let mut plan = ScenarioPlan::new(seed);
    plan.add_flows(
        0,
        0.004,
        FlowSize { min: 1, max: 32, alpha: 1.4 },
        Matrix::Hotspot { hot: 8, fraction: 0.6, kind: HotspotKind::Incast, seed },
    );
    plan.add_steady(1500, 0.1, Matrix::Permutation { seed });
    plan
}

/// The scale-axis fabric: the paper's production-sized RRG(1024, 24, 19).
fn scale_params() -> (RrgParams, u64) {
    (RrgParams::new(1024, 24, 19), 7)
}

/// Incremental construction at N=1024. This is the instance where the
/// Phase-2 swap-repair used to scan all O(E) edges per stall; the
/// workload pins the sampled-candidate rewrite.
fn topo_build_1024_workload() -> Workload {
    let (params, seed) = scale_params();
    Workload {
        name: "topo_build_1024",
        params: format!("RRG(1024,24,19) seed {seed}: incremental build + connectivity"),
        note: Some(
            "first recorded after the Phase-2 repair switched from an O(E) edge scan per \
             stalled placement to bounded random candidate sampling; the scan variant is \
             quadratic in fabric size on this instance"
                .to_string(),
        ),
        run: Box::new(move || {
            let (ns, g) = time(|| {
                build_rrg(params, ConstructionMethod::Incremental, seed)
                    .expect("RRG(1024,24,19) is buildable")
            });
            assert_eq!(g.num_nodes(), 1024);
            ns.into()
        }),
    }
}

/// Streaming all-pairs shortest-path table at N=1024 (~1.05M pairs),
/// compacted block by block so the table never holds the flat
/// representation of more than one row block. The `resident_bytes`
/// gauge tracks the compact table's memory footprint.
fn path_table_1024_workload() -> Workload {
    let (params, seed) = scale_params();
    let mut graph: Option<Graph> = None;
    Workload {
        name: "path_table_1024",
        params: format!(
            "streaming all-pairs shortest on RRG(1024,24,19) seed {seed}, 64-row blocks, compact"
        ),
        note: None,
        run: Box::new(move || {
            let g = graph.get_or_insert_with(|| {
                build_rrg(params, ConstructionMethod::Incremental, seed)
                    .expect("RRG(1024,24,19) is buildable")
            });
            let (ns, table) =
                time(|| PathTable::compute_streaming(g, PathSelection::SinglePath, seed, 64));
            assert!(table.is_compact());
            assert_eq!(table.num_pairs(), 1024 * 1023);
            RunSample {
                ns,
                extra: vec![("resident_bytes".to_string(), table.resident_bytes() as f64)],
            }
        }),
    }
}

/// Prebuilt state for [`expand_repair_workload`]: the base table, the
/// grown fabric, and the recabling's removed edges.
type ExpandState = (PathTable, Graph, Vec<(u32, u32)>);

/// Incremental expansion repair: grow RRG(128,24,19) by 16 switches and
/// extend the EDKSP(4) all-pairs table in place. The timed region is
/// clone + extend; the `repaired_pairs` gauge records how much of the
/// table the recabling actually invalidated.
fn expand_repair_workload() -> Workload {
    let params = RrgParams::new(128, 24, 19);
    let seed = 7u64;
    let mut state: Option<ExpandState> = None;
    Workload {
        name: "expand_repair",
        params: format!(
            "extend EDKSP(4) all-pairs table across RRG(128,24,19) -> 144 switches, seed {seed}"
        ),
        note: None,
        run: Box::new(move || {
            let (table, grown, removed) = state.get_or_insert_with(|| {
                let base = build_rrg(params, ConstructionMethod::Incremental, seed)
                    .expect("RRG(128,24,19) is buildable");
                let table =
                    PathTable::compute(&base, PathSelection::EdKsp(4), &PairSet::AllPairs, seed);
                let (grown, _, plan) =
                    expand_rrg(&base, params, 16, seed ^ 0xE0).expect("expansion succeeds");
                let removed = plan.removed_edges();
                (table, grown, removed)
            });
            let (ns, report) = time(|| {
                let mut t = table.clone();
                t.extend(grown, removed, seed)
            });
            assert!(report.new_pairs > 0, "expansion must add pairs");
            RunSample { ns, extra: vec![("repaired_pairs".to_string(), report.repaired() as f64)] }
        }),
    }
}

fn serve_query_workload() -> Workload {
    use crate::serve::soak::{run_soak, SoakConfig};
    use crate::serve::ServeState;

    let (params, seed) = suite_params();
    let mut state: Option<ServeState> = None;
    let cfg = SoakConfig::default();
    Workload {
        name: "serve_query",
        params: format!(
            "soak: {} /paths queries x{} threads, {} interleaved {:.0}% fault+repair cycles, \
             rEDKSP(8) on RRG(64,11,8) seed {seed}",
            cfg.queries,
            cfg.threads,
            cfg.churn_cycles,
            cfg.fault_rate * 100.0,
        ),
        note: Some(
            "ns is the p50 per-query dispatch latency over the soak; the full p90/p99/p999 \
             block, qps, peak RSS and RSS growth ride in extra. The run itself fails (panics \
             the suite) if any query errors or RSS growth exceeds the long-running memory \
             budget"
                .to_string(),
        ),
        run: Box::new(move || {
            let st = state.get_or_insert_with(|| {
                ServeState::new(params, seed, PathSelection::REdKsp(8)).expect("build serve state")
            });
            let report = run_soak(st, &cfg);
            report.check().expect("serve soak: memory budget / query errors");
            assert!(report.churn_cycles > 0, "churn thread never ran");
            let (p50, p90, p99, p999) = report.percentiles_ns();
            RunSample {
                ns: p50,
                extra: vec![
                    ("p90_ns".to_string(), p90 as f64),
                    ("p99_ns".to_string(), p99 as f64),
                    ("p999_ns".to_string(), p999 as f64),
                    ("qps".to_string(), report.qps()),
                    ("queries".to_string(), report.queries as f64),
                    ("churn_cycles".to_string(), report.churn_cycles as f64),
                    ("peak_rss_bytes".to_string(), report.rss_peak.unwrap_or(0) as f64),
                    ("rss_growth_bytes".to_string(), report.rss_growth_bytes() as f64),
                ],
            }
        }),
    }
}

fn repair_workload() -> Workload {
    let (params, seed) = suite_params();
    let mut state: Option<(JellyfishNetwork, PathTable, FaultPlan)> = None;
    Workload {
        name: "fault_repair",
        params: format!(
            "mask + repair of rEDKSP(8) after 2% link failures on RRG(64,11,8) seed {seed}"
        ),
        note: None,
        run: Box::new(move || {
            let (net, table, plan) = state.get_or_insert_with(|| {
                let net = build_net(params, seed);
                let table = PathTable::compute(
                    net.graph(),
                    PathSelection::REdKsp(8),
                    &PairSet::AllPairs,
                    seed,
                );
                let plan = FaultPlan::random_links(net.graph(), 0.02, 0, seed ^ 0xFA);
                (net, table, plan)
            });
            let mut t = table.clone();
            let view = DegradedGraph::at_time(net.graph(), plan, 0);
            let (ns, reconnected) = time(|| {
                let report = t.apply_faults(&view);
                t.repair(&view, &report.affected_pairs(), seed)
            });
            assert!(reconnected > 0, "2% faults must affect some pairs");
            ns.into()
        }),
    }
}

/// Builds the suite for a tier. Quick covers every subsystem the
/// ROADMAP's perf trajectory cares about: topology build, all-pairs
/// path precomputation per scheme, the path-table cache, the cycle
/// simulator, fault repair, the serve data plane under fault/repair
/// churn (the soak harness), and the N=1024 scale axis (incremental
/// build, streaming compact table, expansion repair).
pub fn workloads(tier: Tier) -> Vec<Workload> {
    let mut list = vec![
        topo_workload(),
        path_workload("path_ksp", PathSelection::Ksp(8)),
        path_workload("path_rksp", PathSelection::RKsp(8)),
        path_workload("path_edksp", PathSelection::EdKsp(8)),
        path_workload("path_redksp", PathSelection::REdKsp(8)),
        cache_workload(),
        sim_workload("sim_cycles", Scale::Quick),
        sim_parallel_workload(Scale::Quick),
        scenario_workload(
            "sim_flows",
            "Poisson flow arrivals (0.008/host/cycle, Pareto 1-64 pkts)",
            flows_plan,
        ),
        scenario_workload(
            "sim_hotspot",
            "incast hotspot flows (8 hot hosts, 60%) with mid-run shift to steady permutation",
            hotspot_plan,
        ),
        repair_workload(),
        serve_query_workload(),
        topo_build_1024_workload(),
        path_table_1024_workload(),
        expand_repair_workload(),
    ];
    if tier == Tier::Full {
        list.push(sim_workload("sim_cycles_paper", Scale::Paper));
    }
    list
}

/// Runs the tier's workloads (optionally filtered by substring) `runs`
/// times each, logging progress to stderr.
pub fn run_suite(tier: Tier, runs: usize, filter: Option<&str>) -> Vec<BenchResult> {
    let mut results = Vec::new();
    for w in workloads(tier) {
        if let Some(f) = filter {
            if !w.name.contains(f) {
                continue;
            }
        }
        eprintln!("bench: {} ({} runs) ...", w.name, runs);
        let r = run_workload(w, runs);
        eprintln!("bench: {:<16} median {:>12} ns  iqr {:>10} ns", r.name, r.median_ns, r.iqr_ns);
        results.push(r);
    }
    results
}

/// One workload's baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload name.
    pub name: String,
    /// Committed median.
    pub baseline_ns: u64,
    /// Freshly measured median.
    pub current_ns: u64,
    /// Relative change in percent (positive = slower).
    pub delta_pct: f64,
    /// Whether the change exceeds the tolerance.
    pub regressed: bool,
}

/// Reads one `jellyfish-bench v1` file into `(name, median_ns)`.
pub fn read_bench_file(path: &Path) -> Result<(String, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => {
            return Err(format!(
                "{}: schema {s:?} is not {SCHEMA:?} (regenerate with `jellytool bench`)",
                path.display()
            ))
        }
        None => {
            return Err(format!(
                "{}: missing \"schema\" (pre-v1 file? regenerate with `jellytool bench`)",
                path.display()
            ))
        }
    }
    let name = doc
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{}: missing \"name\"", path.display()))?
        .to_string();
    let median = doc
        .get("median_ns")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{}: missing \"median_ns\"", path.display()))?;
    Ok((name, median as u64))
}

/// Loads a baseline: a single bench file, or every `BENCH_*.json` in a
/// directory.
pub fn read_baseline(path: &Path) -> Result<BTreeMap<String, u64>, String> {
    let mut map = BTreeMap::new();
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect();
        entries.sort();
        for file in entries {
            let (name, median) = read_bench_file(&file)?;
            map.insert(name, median);
        }
    } else {
        let (name, median) = read_bench_file(path)?;
        map.insert(name, median);
    }
    Ok(map)
}

/// Compares fresh results to a baseline map. `tolerance_pct` is the
/// allowed slowdown in percent; only named workloads present in the
/// baseline are compared.
pub fn compare_to_baseline(
    results: &[BenchResult],
    baseline: &BTreeMap<String, u64>,
    tolerance_pct: f64,
) -> Vec<Comparison> {
    results
        .iter()
        .filter_map(|r| {
            let &base = baseline.get(&r.name)?;
            let delta_pct = if base == 0 {
                f64::INFINITY
            } else {
                (r.median_ns as f64 / base as f64 - 1.0) * 100.0
            };
            Some(Comparison {
                name: r.name.clone(),
                baseline_ns: base,
                current_ns: r.median_ns,
                delta_pct,
                regressed: delta_pct > tolerance_pct,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, samples: Vec<u64>) -> BenchResult {
        BenchResult::from_samples(
            name,
            "test workload",
            None,
            samples.into_iter().map(RunSample::from).collect(),
        )
    }

    #[test]
    fn median_and_iqr_are_order_free() {
        let r = result("m", vec![50, 10, 40, 20, 30]);
        assert_eq!(r.median_ns, 30);
        assert_eq!(r.iqr_ns, 20); // Q3 = 40, Q1 = 20
        assert_eq!(r.samples_ns, vec![50, 10, 40, 20, 30], "raw order preserved");
        let single = result("s", vec![7]);
        assert_eq!(single.median_ns, 7);
        assert_eq!(single.iqr_ns, 0);
    }

    #[test]
    fn json_round_trips_through_the_reader() {
        let mut r = result("rt", vec![100, 200, 300]);
        r.extra.insert("cycles_per_sec".to_string(), 1.5e6);
        r.note = Some("a \"quoted\" note".to_string());
        let json = r.to_json();
        let doc = parse_json(&json).expect("bench JSON parses");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(doc.get("name").unwrap().as_str(), Some("rt"));
        assert_eq!(doc.get("median_ns").unwrap().as_f64(), Some(200.0));
        assert_eq!(doc.get("runs").unwrap().as_f64(), Some(3.0));
        assert_eq!(doc.get("extra").unwrap().get("cycles_per_sec").unwrap().as_f64(), Some(1.5e6));
        assert_eq!(doc.get("note").unwrap().as_str(), Some("a \"quoted\" note"));
    }

    #[test]
    fn extra_gauges_aggregate_by_median() {
        let samples = vec![
            RunSample { ns: 10, extra: vec![("g".to_string(), 1.0)] },
            RunSample { ns: 20, extra: vec![("g".to_string(), 9.0)] },
            RunSample { ns: 30, extra: vec![("g".to_string(), 2.0)] },
        ];
        let r = BenchResult::from_samples("e", "p", None, samples);
        assert_eq!(r.extra["g"], 2.0);
    }

    #[test]
    fn gate_flags_only_out_of_tolerance_regressions() {
        let results = vec![result("a", vec![120]), result("b", vec![130]), result("c", vec![80])];
        let baseline: BTreeMap<String, u64> =
            [("a".to_string(), 100), ("b".to_string(), 100), ("c".to_string(), 100)].into();
        let cmp = compare_to_baseline(&results, &baseline, 25.0);
        assert_eq!(cmp.len(), 3);
        assert!(!cmp[0].regressed, "+20% is inside a 25% tolerance");
        assert!(cmp[1].regressed, "+30% is outside");
        assert!(!cmp[2].regressed, "speedups never regress");
        assert!((cmp[1].delta_pct - 30.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_workloads_are_skipped_not_failed() {
        let results = vec![result("brand_new", vec![500])];
        let baseline: BTreeMap<String, u64> = [("old".to_string(), 100)].into();
        assert!(compare_to_baseline(&results, &baseline, 25.0).is_empty());
    }

    #[test]
    fn baseline_reader_rejects_pre_v1_files() {
        let dir = std::env::temp_dir().join(format!("bench-schema-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("BENCH_old.json");
        std::fs::write(&file, "{\"bench\": \"path_cache\", \"results_us_per_iter\": {}}").unwrap();
        let err = read_bench_file(&file).unwrap_err();
        assert!(err.contains("pre-v1"), "{err}");
        std::fs::write(&file, "{\"schema\": \"jellyfish-bench v0\", \"name\": \"x\"}").unwrap();
        let err = read_bench_file(&file).unwrap_err();
        assert!(err.contains("not"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quick_tier_covers_at_least_four_workloads() {
        let names: Vec<&str> = workloads(Tier::Quick).iter().map(|w| w.name).collect();
        assert!(names.len() >= 4, "{names:?}");
        assert!(names.contains(&"topo_build"));
        assert!(names.contains(&"path_cache"));
        assert!(names.contains(&"sim_cycles"));
        assert!(names.contains(&"sim_cycles_parallel"));
        assert!(names.contains(&"sim_flows"));
        assert!(names.contains(&"sim_hotspot"));
        assert!(names.contains(&"fault_repair"));
        assert!(names.contains(&"topo_build_1024"));
        assert!(names.contains(&"path_table_1024"));
        assert!(names.contains(&"expand_repair"));
        assert!(workloads(Tier::Full).len() > names.len());
    }
}
