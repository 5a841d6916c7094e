//! `jellytool` — command-line utilities around the library.
//!
//! ```text
//! jellytool topo  --switches N --ports X --net-ports Y [--seed S] [--dot FILE]
//!     print Table-I style metrics (and optionally export Graphviz DOT)
//!
//! jellytool paths --switches N --ports X --net-ports Y --src A --dst B
//!                 [--seed S] [--k K]
//!     print the paths every selection scheme computes for one pair
//!
//! jellytool table --switches N --ports X --net-ports Y --selection NAME
//!                 --out FILE [--seed S] [--k K]
//!     compute an all-pairs path table and save it (text format)
//!
//! jellytool faults --switches N --ports X --net-ports Y [--seed S]
//!                  [--fault-seed F] [--k K] [--mech NAME] [--rates CSV]
//!                  [--pattern perm|uniform] [--paper true] [--audit true]
//!                  [--threads T] [--out FILE] [--metrics FILE]
//!     sweep link-failure rates (default 0-5%) across KSP/rKSP/EDKSP/
//!     rEDKSP and emit per-scheme saturation throughput as JSON
//!
//! jellytool stats --switches N --ports X --net-ports Y [--seed S] [--k K]
//!                 [--selection NAME] [--mech NAME] [--rate R]
//!                 [--pattern perm|uniform] [--paper true] [--stride C]
//!                 [--audit true] [--threads T] [--out FILE] [--metrics FILE]
//!     run one simulation and emit a JSON observability report: latency
//!     percentiles (p50/p90/p99/p999) always; the per-link utilization
//!     heatmap and occupancy/credit-stall time series when built with
//!     `--features obs`
//!
//! jellytool scenario --switches N --ports X --net-ports Y [--seed S] [--k K]
//!                    [--scenario steady|flows|hotspot|shift] [--plan FILE]
//!                    [--plan-out FILE] [--rate-min A] [--rate-max B]
//!                    [--rate-step C] [--paper true] [--audit true]
//!                    [--threads T] [--out FILE] [--metrics FILE]
//!     run a dynamic traffic scenario (Poisson flow arrivals with
//!     bounded-Pareto sizes, hotspot matrices, mid-run demand shifts —
//!     a built-in plan or a `jellyfish-scenario v1` file) across
//!     KSP/rKSP/EDKSP/rEDKSP (+ UGAL) over a load grid, and emit flow
//!     counts and FCT percentiles (p50/p99) per scheme as JSON.
//!     `--plan-out FILE` writes the materialized plan text
//!
//! jellytool expand --switches N --ports X --net-ports Y --add M [--seed S]
//!                  [--expand-seed E] [--selection NAME] [--k K]
//!                  [--plan FILE] [--out FILE]
//!     grow an RRG by M switches with bounded recabling (the Jellyfish
//!     incremental-expansion procedure), extend-and-repair the all-pairs
//!     path table, and report the recable plan, repair cost, and
//!     path-quality drift (hop inflation, path-count deficit) of
//!     grow-and-repair versus a fresh rebuild, as deterministic JSON
//!
//! jellytool cache warm  --cache-dir DIR --switches N --ports X --net-ports Y
//!                       [--seed S] [--selection NAME|all] [--k K]
//! jellytool cache stats --cache-dir DIR
//! jellytool cache clear --cache-dir DIR
//!     manage the content-addressed path-table cache (`jellyfish-ptab v2`
//!     files keyed on graph fingerprint, scheme, pair set and seed)
//!
//! jellytool bench [--quick|--full] [--runs N] [--filter SUBSTR]
//!                 [--out-dir DIR] [--baseline FILE|DIR] [--tolerance PCT]
//!                 [--threads T]
//!     run the built-in performance suite (topology build, all-pairs
//!     path precomputation per scheme, cache cold/warm, simulator
//!     cycles/s, fault repair); each workload runs N times and writes
//!     `BENCH_<name>.json` (`jellyfish-bench v1`: median + IQR + raw
//!     samples). With --baseline, compares medians and exits nonzero
//!     on any regression beyond the tolerance (default 25%)
//!
//! jellytool serve --switches N --ports X --net-ports Y [--seed S]
//!                 [--selection NAME] [--k K] [--addr HOST:PORT]
//!                 [--cache-dir DIR] [--cache-max-files F] [--cache-max-mb M]
//!     run the routing-as-a-service daemon: load the RRG + path table
//!     (through the disk cache when --cache-dir is given — bounded by
//!     default for daemons) and serve GET /paths/{src}/{dst},
//!     POST /faults, POST /repair, GET /metrics, GET /trace,
//!     GET /events (long-poll cursor or chunked streaming),
//!     GET /healthz and POST /shutdown over HTTP/1.1. `--addr` with
//!     port 0 binds an ephemeral port (printed to stderr)
//!
//! jellytool tail [--addr HOST:PORT] [--since SEQ] [--wait-ms MS]
//!                [--count N] [--out FILE] [--until-idle] [--follow]
//!     tail a running daemon's structured event journal: long-polls
//!     GET /events from cursor SEQ (default 0 = from the oldest
//!     retained event), prints `jellyfish-events v1` lines to stdout,
//!     and with --out also writes the full captured document to FILE.
//!     --until-idle exits on the first empty poll (CI capture mode);
//!     --count N stops after at least N events; --follow switches to
//!     the server's chunked streaming mode and relays it verbatim
//!     until shutdown
//!
//! jellytool soak  --switches N --ports X --net-ports Y [--seed S]
//!                 [--selection NAME] [--k K] [--queries Q] [--threads T]
//!                 [--churn C] [--fault-rate R] [--rss-budget-mb B]
//!                 [--cache-dir DIR] [--out FILE] [--metrics FILE]
//!     drive the serve dispatch path in-process: Q path queries
//!     (default 1M) from T threads with C interleaved fault+repair
//!     cycles; emits latency percentiles, QPS and RSS as JSON and
//!     exits nonzero if any query fails or RSS growth exceeds the
//!     budget (default 64 MiB)
//! ```
//!
//! `table`, `faults`, `stats`, `cache` and `bench` accept `--trace FILE`:
//! hierarchical tracing is then enabled for the whole command, the
//! timeline is written to FILE as Chrome Trace Event Format JSON (load
//! in `chrome://tracing` or Perfetto), and a flame summary with
//! self-time attribution is printed to stderr.
//!
//! `table`, `faults` and `stats` additionally accept `--cache-dir DIR`:
//! path tables are then loaded from (and stored into) the cache instead
//! of being recomputed. Results are bit-identical either way.
//!
//! `faults` and `stats` accept `--audit true` (builds with `--features
//! audit`): every simulation then runs under the per-cycle invariant
//! auditor, which panics with a structured diagnostic on the first
//! conservation, routing, or forward-progress violation. Results are
//! bit-identical with and without the auditor.
//!
//! `faults`, `stats` and `bench` accept `--threads T`: every simulation
//! then runs on the sharded parallel engine with T worker threads.
//! Results are byte-identical to serial runs for the same seed — the
//! flag trades cores for wall clock, nothing else.
//!
//! Unknown flags are rejected (against a per-subcommand allowlist), as
//! are duplicate flags and flag-like values: `--out --seed` is a missing
//! value, not a file named `--seed`. `--metrics FILE` dumps the global
//! registry (timing spans, run counters) as `jellyfish-metrics v1` text.

use jellyfish::prelude::*;
use jellyfish::routing::save_table;
use jellyfish::topology::analysis::{distance_histogram, estimate_bisection, to_dot};
use jellyfish::JellyfishNetwork;
use jellyfish_bench::experiments::faults as faults_exp;
use jellyfish_bench::Scale;
use jellyfish_routing::{DiskBudget, PairSet, PathCache, PathTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt::Write as _;

fn usage() -> ! {
    eprintln!(
        "usage:\n  jellytool topo  --switches N --ports X --net-ports Y [--seed S] [--dot FILE]\n  \
         jellytool paths --switches N --ports X --net-ports Y --src A --dst B [--seed S] [--k K]\n  \
         jellytool table --switches N --ports X --net-ports Y --selection <sp|ksp|rksp|edksp|redksp> --out FILE [--seed S] [--k K]\n  \
         jellytool faults --switches N --ports X --net-ports Y [--seed S] [--fault-seed F] [--k K] [--mech <sp|random|rr|ugal|ksp-ugal|adaptive>] [--rates CSV] [--pattern perm|uniform] [--paper true] [--audit true] [--threads T] [--out FILE] [--metrics FILE]\n  \
         jellytool stats --switches N --ports X --net-ports Y [--seed S] [--k K] [--selection NAME] [--mech NAME] [--rate R] [--pattern perm|uniform] [--paper true] [--stride C] [--audit true] [--threads T] [--out FILE] [--metrics FILE]\n  \
         jellytool scenario --switches N --ports X --net-ports Y [--seed S] [--k K] [--scenario steady|flows|hotspot|shift] [--plan FILE] [--plan-out FILE] [--rate-min A] [--rate-max B] [--rate-step C] [--paper true] [--audit true] [--threads T] [--out FILE] [--metrics FILE]\n  \
         jellytool expand --switches N --ports X --net-ports Y --add M [--seed S] [--expand-seed E] [--selection NAME] [--k K] [--plan FILE] [--out FILE]\n  \
         jellytool cache <warm|stats|clear> --cache-dir DIR [--switches N --ports X --net-ports Y] [--seed S] [--selection NAME|all] [--k K]\n  \
         jellytool bench [--quick|--full] [--runs N] [--filter SUBSTR] [--out-dir DIR] [--baseline FILE|DIR] [--tolerance PCT] [--threads T]\n  \
         jellytool serve --switches N --ports X --net-ports Y [--seed S] [--selection NAME] [--k K] [--addr HOST:PORT] [--cache-dir DIR] [--cache-max-files F] [--cache-max-mb M]\n  \
         jellytool soak  --switches N --ports X --net-ports Y [--seed S] [--selection NAME] [--k K] [--queries Q] [--threads T] [--churn C] [--fault-rate R] [--rss-budget-mb B] [--cache-dir DIR] [--out FILE] [--metrics FILE]\n  \
         jellytool tail  [--addr HOST:PORT] [--since SEQ] [--wait-ms MS] [--count N] [--out FILE] [--until-idle] [--follow]\n\
         (table/faults/stats also accept --cache-dir DIR to reuse cached path tables;\n\
          table/faults/stats/cache/bench accept --trace FILE for a Chrome-trace timeline;\n\
          faults/stats/bench accept --threads T for the sharded parallel engine — byte-identical results)"
    );
    std::process::exit(2);
}

const COMMON_FLAGS: [&str; 4] = ["switches", "ports", "net-ports", "seed"];

/// Parses `--name value` pairs, rejecting anything not in `allowed`,
/// duplicates, and flag-like values (a following `--x` is a missing
/// value, not a value). Names in `bools` are valueless switches
/// (`--quick`) stored as `"true"`.
fn try_parse_flags(
    args: &[String],
    allowed: &[&str],
    bools: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got {flag:?}"));
        };
        let value = if bools.contains(&name) {
            "true".to_string()
        } else if allowed.contains(&name) {
            let Some(value) = it.next() else {
                return Err(format!("--{name} needs a value"));
            };
            if value.starts_with("--") {
                return Err(format!("--{name} needs a value, got flag {value:?}"));
            }
            value.clone()
        } else {
            return Err(format!("unknown flag --{name}"));
        };
        if map.insert(name.to_string(), value).is_some() {
            return Err(format!("duplicate flag --{name}"));
        }
    }
    Ok(map)
}

fn parse_flags(args: &[String], extra: &[&str]) -> HashMap<String, String> {
    parse_flags_with_bools(args, extra, &[])
}

fn parse_flags_with_bools(
    args: &[String],
    extra: &[&str],
    bools: &[&str],
) -> HashMap<String, String> {
    let allowed: Vec<&str> = COMMON_FLAGS.iter().chain(extra).copied().collect();
    try_parse_flags(args, &allowed, bools).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    })
}

fn num<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> Option<T> {
    flags.get(key).and_then(|v| v.parse().ok())
}

fn required<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> T {
    num(flags, key).unwrap_or_else(|| {
        eprintln!("missing or invalid --{key}");
        usage()
    })
}

fn network(flags: &HashMap<String, String>) -> (RrgParams, JellyfishNetwork, u64) {
    let params = RrgParams::new(
        required(flags, "switches"),
        required(flags, "ports"),
        required(flags, "net-ports"),
    );
    let seed: u64 = num(flags, "seed").unwrap_or(1);
    match JellyfishNetwork::build(params, seed) {
        Ok(net) => (params, net, seed),
        Err(e) => {
            eprintln!("cannot build RRG: {e}");
            std::process::exit(1);
        }
    }
}

fn selection(name: &str, k: usize) -> PathSelection {
    match name {
        "sp" => PathSelection::SinglePath,
        "ksp" => PathSelection::Ksp(k),
        "rksp" => PathSelection::RKsp(k),
        "edksp" => PathSelection::EdKsp(k),
        "redksp" => PathSelection::REdKsp(k),
        other => {
            eprintln!("unknown selection {other:?}");
            usage()
        }
    }
}

fn mechanism(name: &str) -> Mechanism {
    match name {
        "sp" => Mechanism::SinglePath,
        "random" => Mechanism::Random,
        "rr" => Mechanism::RoundRobin,
        "ugal" => Mechanism::VanillaUgal,
        "ksp-ugal" => Mechanism::KspUgal,
        "adaptive" => Mechanism::KspAdaptive,
        other => {
            eprintln!("unknown mechanism {other:?}");
            usage()
        }
    }
}

/// Installs the process-wide path-table cache if `--cache-dir DIR` was
/// given; `JellyfishNetwork::paths` then loads/stores tables through it.
fn install_cache(flags: &HashMap<String, String>) {
    if let Some(dir) = flags.get("cache-dir") {
        match PathCache::new(dir) {
            Ok(cache) => jellyfish_routing::cache::install_global(cache),
            Err(e) => {
                eprintln!("cannot open cache dir {dir}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Installs the process-wide invariant auditor if `--audit true` was
/// given: every simulation the command runs then executes under the
/// per-cycle conservation, routing, and forward-progress checks and
/// panics with a flight-recorder diagnostic on the first violation.
fn enable_audit(flags: &HashMap<String, String>) {
    if flags.contains_key("audit") {
        #[cfg(feature = "audit")]
        jellyfish_flitsim::audit::install_global(jellyfish_flitsim::AuditConfig::default());
        #[cfg(not(feature = "audit"))]
        eprintln!("note: --audit has no effect without --features audit");
    }
}

/// Installs the process-wide worker-thread count if `--threads T` was
/// given: every simulation the command runs (directly or inside a
/// sweep) then uses the sharded parallel engine. Results are
/// byte-identical to serial for the same seed.
fn install_threads_flag(flags: &HashMap<String, String>) {
    if let Some(v) = flags.get("threads") {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => jellyfish_flitsim::install_threads(n),
            _ => {
                eprintln!("error: --threads must be an integer >= 1");
                usage()
            }
        }
    }
}

/// Dumps the global metrics registry (and resets it) as
/// `jellyfish-metrics v1` text if `--metrics FILE` was given.
fn dump_metrics(flags: &HashMap<String, String>) {
    if let Some(path) = flags.get("metrics") {
        let registry = jellyfish_obs::take_global();
        let mut buf = Vec::new();
        jellyfish_obs::write_metrics(&registry, &mut buf).expect("serialize metrics");
        std::fs::write(path, buf).expect("write metrics file");
        eprintln!("wrote metrics to {path}");
    }
}

/// Turns hierarchical tracing on if `--trace FILE` was given. Must run
/// before any instrumented work so the timeline starts at the root.
fn enable_trace(flags: &HashMap<String, String>) {
    if flags.contains_key("trace") {
        jellyfish_obs::trace::enable(jellyfish_obs::trace::TraceConfig::default());
    }
}

/// If tracing was enabled, drains the trace, writes Chrome Trace Event
/// Format JSON to the `--trace` file, and prints the flame summary
/// (self-time attribution per span name) to stderr.
fn dump_trace(flags: &HashMap<String, String>) {
    if let Some(path) = flags.get("trace") {
        jellyfish_obs::trace::disable();
        let trace = jellyfish_obs::trace::take();
        std::fs::write(path, trace.to_chrome_json()).expect("write trace file");
        eprint!("{}", trace.render_flame());
        eprintln!("wrote trace to {path} ({} events)", trace.len());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { usage() };
    match cmd.as_str() {
        "topo" => topo(&parse_flags(rest, &["dot"])),
        "paths" => paths(&parse_flags(rest, &["src", "dst", "k"])),
        "table" => table(&parse_flags(rest, &["selection", "out", "k", "cache-dir", "trace"])),
        "faults" => faults(&parse_flags(
            rest,
            &[
                "fault-seed",
                "k",
                "mech",
                "rates",
                "pattern",
                "paper",
                "audit",
                "threads",
                "out",
                "metrics",
                "cache-dir",
                "trace",
            ],
        )),
        "stats" => stats(&parse_flags(
            rest,
            &[
                "k",
                "selection",
                "mech",
                "rate",
                "pattern",
                "paper",
                "stride",
                "audit",
                "threads",
                "out",
                "metrics",
                "cache-dir",
                "trace",
            ],
        )),
        "scenario" => scenario_cmd(&parse_flags(
            rest,
            &[
                "k",
                "scenario",
                "plan",
                "plan-out",
                "rate-min",
                "rate-max",
                "rate-step",
                "paper",
                "audit",
                "threads",
                "out",
                "metrics",
                "cache-dir",
                "trace",
            ],
        )),
        "expand" => expand(&parse_flags(
            rest,
            &["add", "expand-seed", "selection", "k", "plan", "out", "trace"],
        )),
        "cache" => {
            let Some((action, rest)) = rest.split_first() else { usage() };
            cache_cmd(action, &parse_flags(rest, &["cache-dir", "selection", "k", "trace"]));
        }
        "bench" => bench_cmd(&parse_flags_with_bools(
            rest,
            &["runs", "out-dir", "baseline", "tolerance", "filter", "trace", "threads"],
            &["quick", "full"],
        )),
        "serve" => serve_cmd(&parse_flags(
            rest,
            &["addr", "selection", "k", "cache-dir", "cache-max-files", "cache-max-mb"],
        )),
        "tail" => tail_cmd(&parse_flags_with_bools(
            rest,
            &["addr", "since", "wait-ms", "count", "out"],
            &["until-idle", "follow"],
        )),
        "soak" => soak_cmd(&parse_flags(
            rest,
            &[
                "selection",
                "k",
                "queries",
                "threads",
                "churn",
                "fault-rate",
                "rss-budget-mb",
                "cache-dir",
                "out",
                "metrics",
            ],
        )),
        _ => usage(),
    }
}

fn topo(flags: &HashMap<String, String>) {
    let (params, net, seed) = network(flags);
    let stats = net.stats();
    println!(
        "RRG({}, {}, {}) seed {seed}: {} hosts, {} switch links",
        params.switches,
        params.ports,
        params.network_ports,
        params.num_hosts(),
        net.graph().num_edges()
    );
    println!(
        "avg shortest path {:.3} hops, diameter {}",
        stats.avg_shortest_path_len, stats.diameter
    );
    let hist = distance_histogram(net.graph());
    for (d, &c) in hist.counts.iter().enumerate().skip(1) {
        println!("  {d}-hop pairs: {c} ({:.1}% cumulative)", hist.cumulative_fraction(d) * 100.0);
    }
    let bis = estimate_bisection(net.graph(), 8, seed);
    println!(
        "bisection estimate: {} edges ({:.0}% of edges)",
        bis.min_cut_edges,
        bis.min_cut_edges as f64 / net.graph().num_edges() as f64 * 100.0
    );
    if let Some(path) = flags.get("dot") {
        std::fs::write(path, to_dot(net.graph(), "jellyfish")).expect("write DOT file");
        println!("wrote {path}");
    }
}

fn paths(flags: &HashMap<String, String>) {
    let (_, net, seed) = network(flags);
    let src: u32 = required(flags, "src");
    let dst: u32 = required(flags, "dst");
    let k: usize = num(flags, "k").unwrap_or(8);
    for sel in [
        PathSelection::Ksp(k),
        PathSelection::RKsp(k),
        PathSelection::EdKsp(k),
        PathSelection::REdKsp(k),
    ] {
        let found = sel.paths_for_pair(net.graph(), src, dst, seed);
        println!("{} ({} paths):", sel.name(), found.len());
        for p in &found {
            let hops = p.len() - 1;
            let nodes: Vec<String> = p.iter().map(u32::to_string).collect();
            println!("  [{hops} hops] {}", nodes.join(" -> "));
        }
    }
}

fn cache_cmd(action: &str, flags: &HashMap<String, String>) {
    enable_trace(flags);
    let dir = flags.get("cache-dir").unwrap_or_else(|| {
        eprintln!("cache requires --cache-dir DIR");
        usage()
    });
    let cache = PathCache::new(dir).unwrap_or_else(|e| {
        eprintln!("cannot open cache dir {dir}: {e}");
        std::process::exit(1);
    });
    match action {
        "warm" => {
            let (_, net, seed) = network(flags);
            let k: usize = num(flags, "k").unwrap_or(8);
            let sel_name = flags.get("selection").map(String::as_str).unwrap_or("redksp");
            let sels = if sel_name == "all" {
                vec![
                    PathSelection::Ksp(k),
                    PathSelection::RKsp(k),
                    PathSelection::EdKsp(k),
                    PathSelection::REdKsp(k),
                ]
            } else {
                vec![selection(sel_name, k)]
            };
            for sel in sels {
                let t0 = std::time::Instant::now();
                let table = cache.load_or_compute(net.graph(), sel, &PairSet::AllPairs, seed);
                println!(
                    "warmed {} ({} pairs, max {} hops) in {:.1?}",
                    sel.name(),
                    table.num_pairs(),
                    table.max_hops(),
                    t0.elapsed()
                );
            }
        }
        "stats" => {
            let s = cache.stats().expect("read cache dir");
            println!("{dir}: {} file(s), {} bytes", s.files, s.bytes);
            for entry in cache.manifest().expect("read cache dir") {
                match entry.key {
                    Ok(key) => println!(
                        "  {}  {:>10} B  {} n={} seed={} {}",
                        entry.file,
                        entry.bytes,
                        key.selection().map(|s| s.name()).unwrap_or_else(|| "?".into()),
                        key.num_switches(),
                        key.seed(),
                        key.pairs_summary()
                    ),
                    Err(e) => println!("  {}  {:>10} B  INVALID: {e}", entry.file, entry.bytes),
                }
            }
        }
        "clear" => {
            let removed = cache.clear().expect("clear cache dir");
            println!("removed {removed} file(s) from {dir}");
        }
        other => {
            eprintln!("unknown cache action {other:?} (use warm|stats|clear)");
            usage()
        }
    }
    dump_trace(flags);
}

fn faults(flags: &HashMap<String, String>) {
    install_cache(flags);
    enable_audit(flags);
    install_threads_flag(flags);
    enable_trace(flags);
    let params = RrgParams::new(
        required(flags, "switches"),
        required(flags, "ports"),
        required(flags, "net-ports"),
    );
    let seed: u64 = num(flags, "seed").unwrap_or(1);
    let fault_seed: u64 = num(flags, "fault-seed").unwrap_or(2021);
    let k: usize = num(flags, "k").unwrap_or(8);
    let mech = mechanism(flags.get("mech").map(String::as_str).unwrap_or("adaptive"));
    let rates: Vec<f64> = match flags.get("rates") {
        None => faults_exp::default_rates(),
        Some(csv) => csv
            .split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|_| {
                    eprintln!("bad rate {s:?} in --rates");
                    usage()
                })
            })
            .collect(),
    };
    let traffic = match flags.get("pattern").map(String::as_str).unwrap_or("perm") {
        "perm" => faults_exp::FaultTraffic::Permutation,
        "uniform" => faults_exp::FaultTraffic::Uniform,
        other => {
            eprintln!("unknown pattern {other:?} (use perm|uniform)");
            usage()
        }
    };
    let scale = if flags.contains_key("paper") { Scale::Paper } else { Scale::Quick };
    let fig = faults_exp::fault_sweep(params, k, mech, traffic, &rates, scale, seed, fault_seed);
    faults_exp::print_fault_figure(&fig);
    let json = faults_exp::to_json(&fig);
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &json).expect("write JSON file");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
    dump_metrics(flags);
    dump_trace(flags);
}

fn table(flags: &HashMap<String, String>) {
    install_cache(flags);
    enable_trace(flags);
    let (_, net, seed) = network(flags);
    let k: usize = num(flags, "k").unwrap_or(8);
    let sel_name = flags.get("selection").map(String::as_str).unwrap_or_else(|| usage());
    let out = flags.get("out").unwrap_or_else(|| usage());
    let sel = selection(sel_name, k);
    let t0 = std::time::Instant::now();
    let table = net.paths(sel, &PairSet::AllPairs, seed);
    save_table(&table, std::path::Path::new(out)).expect("write table");
    println!(
        "computed {} ({} pairs, max {} hops) in {:.1?}; saved to {out}",
        sel.name(),
        table.num_pairs(),
        table.max_hops(),
        t0.elapsed()
    );
    dump_trace(flags);
}

/// Grows an RRG by `--add` switches with bounded recabling, extends the
/// all-pairs path table over the grown fabric, and reports the repair
/// cost plus the path-quality drift of grow-and-repair versus a fresh
/// rebuild. The JSON written to `--out` (or stdout) is byte-deterministic
/// for fixed flags — wall-clock timings go to stderr only — so CI can
/// diff two runs to pin replay determinism.
fn expand(flags: &HashMap<String, String>) {
    use jellyfish::topology::{expand_rrg, write_recable_plan};
    enable_trace(flags);
    let (params, net, seed) = network(flags);
    let added: usize = required(flags, "add");
    let expand_seed: u64 = num(flags, "expand-seed").unwrap_or(2021);
    let k: usize = num(flags, "k").unwrap_or(4);
    let sel = selection(flags.get("selection").map(String::as_str).unwrap_or("edksp"), k);

    let (grown, grown_params, plan) = match expand_rrg(net.graph(), params, added, expand_seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot expand RRG: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = flags.get("plan") {
        let file = std::fs::File::create(path).expect("create recable plan file");
        write_recable_plan(&plan, std::io::BufWriter::new(file)).expect("write recable plan");
        eprintln!("wrote recable plan to {path}");
    }

    let t0 = std::time::Instant::now();
    let base_table = PathTable::compute(net.graph(), sel, &PairSet::AllPairs, seed);
    let base_elapsed = t0.elapsed();
    let removed = plan.removed_edges();
    let mut extended = base_table.clone();
    let t1 = std::time::Instant::now();
    let report = extended.extend(&grown, &removed, seed);
    let extend_elapsed = t1.elapsed();
    let t2 = std::time::Instant::now();
    let fresh = PathTable::compute(&grown, sel, &PairSet::AllPairs, seed);
    let fresh_elapsed = t2.elapsed();
    eprintln!(
        "base table {base_elapsed:.1?}; extend {extend_elapsed:.1?} \
         ({} of {} pairs repaired); fresh rebuild {fresh_elapsed:.1?}",
        report.repaired(),
        grown.num_nodes() * (grown.num_nodes() - 1),
    );

    // Drift of grow-and-repair vs fresh rebuild, over every ordered pair
    // of the grown fabric: untouched pairs kept still-valid routes that
    // the recabling may have made non-shortest (hop inflation) or that
    // the richer grown fabric could outnumber (path-count deficit).
    let n = grown.num_nodes() as u32;
    let mut pairs = 0usize;
    let mut inflated_pairs = 0usize;
    let mut total_extra_hops = 0usize;
    let mut max_extra_hops = 0usize;
    let mut set_inflated_pairs = 0usize;
    let mut total_extra_set_hops = 0usize;
    let mut deficit_pairs = 0usize;
    let mut total_missing_paths = 0usize;
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            pairs += 1;
            let e = extended.get(s, d).expect("extended covers all pairs");
            let f = fresh.get(s, d).expect("fresh covers all pairs");
            if !e.is_empty() && !f.is_empty() {
                // Shortest-route inflation: the kept route is no longer a
                // shortest path on the grown fabric.
                let eh = e.hops(e.shortest_index());
                let fh = f.hops(f.shortest_index());
                if eh > fh {
                    inflated_pairs += 1;
                    total_extra_hops += eh - fh;
                    max_extra_hops = max_extra_hops.max(eh - fh);
                }
                // Whole-set inflation over the common path count: kept
                // sets cannot exploit the new switches, so their later
                // (e.g. edge-disjoint) paths tend to run longer than a
                // fresh rebuild's.
                let common = e.len().min(f.len());
                let esum: usize = (0..common).map(|i| e.hops(i)).sum();
                let fsum: usize = (0..common).map(|i| f.hops(i)).sum();
                if esum > fsum {
                    set_inflated_pairs += 1;
                    total_extra_set_hops += esum - fsum;
                }
            }
            if e.len() < f.len() {
                deficit_pairs += 1;
                total_missing_paths += f.len() - e.len();
            }
        }
    }

    let mut out = String::from("{\n");
    writeln!(
        out,
        "  \"base\": \"RRG({},{},{})\",",
        params.switches, params.ports, params.network_ports
    )
    .unwrap();
    writeln!(
        out,
        "  \"grown\": \"RRG({},{},{})\",",
        grown_params.switches, grown_params.ports, grown_params.network_ports
    )
    .unwrap();
    writeln!(out, "  \"seed\": {seed},").unwrap();
    writeln!(out, "  \"expand_seed\": {expand_seed},").unwrap();
    writeln!(out, "  \"selection\": \"{}\",", sel.name()).unwrap();
    writeln!(
        out,
        "  \"recable\": {{\"added_switches\": {}, \"removed_edges\": {}, \"added_edges\": {}}},",
        plan.added_switches(),
        plan.num_removed(),
        plan.num_added()
    )
    .unwrap();
    writeln!(
        out,
        "  \"repair\": {{\"affected_pairs\": {}, \"new_pairs\": {}, \"repaired\": {}, \
         \"reconnected\": {}}},",
        report.affected_pairs,
        report.new_pairs,
        report.repaired(),
        report.reconnected
    )
    .unwrap();
    writeln!(
        out,
        "  \"drift\": {{\"pairs\": {pairs}, \"inflated_pairs\": {inflated_pairs}, \
         \"total_extra_hops\": {total_extra_hops}, \"max_extra_hops\": {max_extra_hops}, \
         \"avg_extra_hops\": {}, \"set_inflated_pairs\": {set_inflated_pairs}, \
         \"total_extra_set_hops\": {total_extra_set_hops}, \
         \"deficit_pairs\": {deficit_pairs}, \
         \"total_missing_paths\": {total_missing_paths}}}",
        json_num((total_extra_hops as f64 / pairs as f64 * 1e6).round() / 1e6)
    )
    .unwrap();
    out.push_str("}\n");

    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &out).expect("write JSON file");
            eprintln!("wrote {path}");
        }
        None => print!("{out}"),
    }
    dump_trace(flags);
}

/// One JSON number token (`null` for NaN/Inf — JSON has no such
/// literals).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn stats(flags: &HashMap<String, String>) {
    install_cache(flags);
    enable_audit(flags);
    install_threads_flag(flags);
    enable_trace(flags);
    let (params, net, seed) = network(flags);
    let k: usize = num(flags, "k").unwrap_or(8);
    let sel = selection(flags.get("selection").map(String::as_str).unwrap_or("redksp"), k);
    let mech = mechanism(flags.get("mech").map(String::as_str).unwrap_or("adaptive"));
    let rate: f64 = num(flags, "rate").unwrap_or(0.3);
    let scale = if flags.contains_key("paper") { Scale::Paper } else { Scale::Quick };
    let stride: u32 = num(flags, "stride").unwrap_or(64);
    // Validate here, not deep inside the simulator's observer, so a bad
    // value is a usage error rather than a panic.
    if stride == 0 {
        eprintln!("error: --stride must be >= 1 (sampling every stride-th cycle)");
        usage()
    }
    #[cfg(not(feature = "obs"))]
    if flags.contains_key("stride") {
        eprintln!("note: --stride has no effect without --features obs");
    }

    // Traffic: one uniform or one seeded permutation instance; the
    // table is pair-restricted for permutations, as in the figures.
    let (pairs, pattern) = match flags.get("pattern").map(String::as_str).unwrap_or("uniform") {
        "uniform" => {
            (PairSet::AllPairs, PacketDestinations::Uniform { num_hosts: params.num_hosts() })
        }
        "perm" => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x22);
            let flows = random_permutation(params.num_hosts(), &mut rng);
            (
                PairSet::Pairs(switch_pairs(&flows, &params)),
                PacketDestinations::from_flows(params.num_hosts(), &flows),
            )
        }
        other => {
            eprintln!("unknown pattern {other:?} (use perm|uniform)");
            usage()
        }
    };
    let table = net.paths(sel, &pairs, seed);
    let sp_table = if mech.needs_sp_table() {
        Some(PathTable::all_pairs_shortest(net.graph(), true, seed ^ 0x11))
    } else {
        None
    };

    // Same seed, same run: results are byte-identical at any shard
    // count, so --threads only changes how many workers execute it.
    #[cfg_attr(not(feature = "obs"), allow(unused_mut))]
    let mut sim = jellyfish_flitsim::Simulator::new(
        net.graph(),
        params,
        &table,
        sp_table.as_ref(),
        mech,
        pattern,
        rate,
        scale.sim_config(),
    )
    .with_threads(jellyfish_flitsim::resolve_threads(None));
    #[cfg(feature = "obs")]
    {
        sim = sim.with_observer(jellyfish_flitsim::ObserveConfig { stride });
    }
    let span = jellyfish_obs::span("jellytool.stats.run");
    let result = sim.run();
    span.finish();
    #[cfg(feature = "obs")]
    let telemetry = sim.take_metrics().expect("observer was attached").to_json();
    #[cfg(not(feature = "obs"))]
    let _ = stride;

    let mut out = String::from("{\n");
    writeln!(
        out,
        "  \"topology\": \"RRG({},{},{})\",",
        params.switches, params.ports, params.network_ports
    )
    .unwrap();
    writeln!(out, "  \"selection\": \"{}\",", sel.name()).unwrap();
    writeln!(out, "  \"mechanism\": \"{}\",", mech.name()).unwrap();
    writeln!(out, "  \"offered\": {},", json_num(result.offered)).unwrap();
    writeln!(out, "  \"accepted\": {},", json_num(result.accepted)).unwrap();
    writeln!(out, "  \"avg_latency\": {},", json_num(result.avg_latency)).unwrap();
    writeln!(out, "  \"saturated\": {},", result.saturated).unwrap();
    writeln!(out, "  \"measured_cycles\": {},", result.measured_cycles).unwrap();
    writeln!(
        out,
        "  \"latency\": {{\"min\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
         \"p999\": {}, \"max\": {}}},",
        result.min_latency,
        result.p50_latency,
        result.p90_latency,
        result.p99_latency,
        result.p999_latency,
        result.max_latency
    )
    .unwrap();
    writeln!(out, "  \"mean_link_utilization\": {},", json_num(result.mean_link_utilization))
        .unwrap();
    #[cfg(feature = "obs")]
    {
        writeln!(out, "  \"max_link_utilization\": {},", json_num(result.max_link_utilization))
            .unwrap();
        // Indent the nested object to keep the report readable.
        let indented = telemetry.trim_end().replace('\n', "\n  ");
        writeln!(out, "  \"telemetry\": {indented}").unwrap();
    }
    #[cfg(not(feature = "obs"))]
    writeln!(out, "  \"max_link_utilization\": {}", json_num(result.max_link_utilization)).unwrap();
    out.push_str("}\n");

    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &out).expect("write JSON file");
            eprintln!("wrote {path}");
        }
        None => print!("{out}"),
    }
    dump_metrics(flags);
    dump_trace(flags);
}

/// Built-in scenario plans, seeded from the topology seed so a fixed
/// command line is fully deterministic. Phase starts fit the Quick
/// schedule (500-cycle warmup + 5×500-cycle windows).
fn builtin_plan(name: &str, num_hosts: usize, seed: u64) -> jellyfish_traffic::ScenarioPlan {
    use jellyfish_traffic::{FlowSize, HotspotKind, Matrix, ScenarioPlan};
    let hot = (num_hosts / 8).clamp(1, 8) as u32;
    let mut plan = ScenarioPlan::new(seed);
    match name {
        "steady" => plan.add_steady(0, 0.2, Matrix::Permutation { seed }),
        "flows" => {
            plan.add_flows(0, 0.004, FlowSize { min: 1, max: 64, alpha: 1.4 }, Matrix::Uniform);
        }
        "hotspot" => plan.add_flows(
            0,
            0.003,
            FlowSize { min: 1, max: 32, alpha: 1.4 },
            Matrix::Hotspot { hot, fraction: 0.6, kind: HotspotKind::Incast, seed },
        ),
        "shift" => {
            plan.add_flows(0, 0.004, FlowSize { min: 1, max: 64, alpha: 1.4 }, Matrix::Uniform);
            plan.add_steady(1000, 0.15, Matrix::Permutation { seed });
            plan.add_flows(
                2000,
                0.003,
                FlowSize::fixed(8),
                Matrix::Hotspot { hot, fraction: 0.5, kind: HotspotKind::Incast, seed },
            );
        }
        other => {
            eprintln!("unknown scenario {other:?} (use steady|flows|hotspot|shift)");
            usage()
        }
    }
    plan
}

/// One scenario run: serial or sharded-parallel engine (byte-identical
/// for the same seed), returning the run result and the flow ledger.
fn scenario_run(
    net: &JellyfishNetwork,
    table: &PathTable,
    sp_table: Option<&PathTable>,
    mech: Mechanism,
    plan: &jellyfish_traffic::ScenarioPlan,
    cfg: jellyfish_flitsim::SimConfig,
    threads: usize,
) -> (jellyfish_flitsim::RunResult, jellyfish_flitsim::FlowStats) {
    let params = *net.params();
    let pattern = PacketDestinations::Uniform { num_hosts: params.num_hosts() };
    let span = jellyfish_obs::span("jellytool.scenario.run");
    let mut sim = jellyfish_flitsim::Simulator::new(
        net.graph(),
        params,
        table,
        sp_table,
        mech,
        pattern,
        0.0,
        cfg,
    )
    .with_threads(threads)
    .with_scenario(plan);
    let result = sim.run();
    span.finish();
    (result, sim.flow_stats().expect("scenario attached"))
}

/// Sweeps a dynamic traffic scenario across the four path-selection
/// schemes (KSP-adaptive routing) plus UGAL, over a multiplicative load
/// grid (`plan.scaled(factor)`), and emits flow counts and FCT
/// percentiles per scheme as deterministic JSON.
fn scenario_cmd(flags: &HashMap<String, String>) {
    use jellyfish_traffic::scenario::{read_plan, write_plan};

    install_cache(flags);
    enable_audit(flags);
    install_threads_flag(flags);
    enable_trace(flags);

    // Validate the load grid at flag-parse time, like --stride: a
    // descending or zero-step grid is a usage error, not a silently
    // empty sweep.
    let rate_min: f64 = num(flags, "rate-min").unwrap_or(0.5);
    let rate_max: f64 = num(flags, "rate-max").unwrap_or(1.0);
    let rate_step: f64 = num(flags, "rate-step").unwrap_or(0.25);
    if !rate_step.is_finite() || rate_step <= 0.0 {
        eprintln!("error: --rate-step must be > 0");
        usage()
    }
    if !rate_min.is_finite() || !rate_max.is_finite() || rate_min <= 0.0 {
        eprintln!("error: --rate-min and --rate-max must be finite and > 0");
        usage()
    }
    if rate_max < rate_min {
        eprintln!(
            "error: --rate-max ({rate_max}) < --rate-min ({rate_min}) — the load grid would be \
             empty"
        );
        usage()
    }
    let steps = ((rate_max - rate_min) / rate_step + 1e-9).floor() as usize;
    let factors: Vec<f64> =
        (0..=steps).map(|i| ((rate_min + i as f64 * rate_step) * 1e6).round() / 1e6).collect();

    let (params, net, seed) = network(flags);
    let k: usize = num(flags, "k").unwrap_or(8);
    let scale = if flags.contains_key("paper") { Scale::Paper } else { Scale::Quick };
    let threads = jellyfish_flitsim::resolve_threads(None);

    if flags.contains_key("plan") && flags.contains_key("scenario") {
        eprintln!("error: --plan and --scenario are mutually exclusive");
        usage()
    }
    let (scenario_name, plan) = match flags.get("plan") {
        Some(path) => {
            let file = std::fs::File::open(path).unwrap_or_else(|e| {
                eprintln!("cannot open plan {path}: {e}");
                std::process::exit(1);
            });
            let plan = read_plan(std::io::BufReader::new(file)).unwrap_or_else(|e| {
                eprintln!("cannot parse plan {path}: {e}");
                std::process::exit(1);
            });
            (format!("file:{path}"), plan)
        }
        None => {
            let name = flags.get("scenario").map(String::as_str).unwrap_or("shift");
            (name.to_string(), builtin_plan(name, params.num_hosts(), seed))
        }
    };
    if let Some(path) = flags.get("plan-out") {
        let mut buf = Vec::new();
        write_plan(&plan, &mut buf).expect("serialize plan");
        std::fs::write(path, buf).expect("write plan file");
        eprintln!("wrote plan to {path}");
    }

    let schemes: [(&str, PathSelection, Mechanism); 5] = [
        ("ksp", PathSelection::Ksp(k), Mechanism::KspAdaptive),
        ("rksp", PathSelection::RKsp(k), Mechanism::KspAdaptive),
        ("edksp", PathSelection::EdKsp(k), Mechanism::KspAdaptive),
        ("redksp", PathSelection::REdKsp(k), Mechanism::KspAdaptive),
        ("ugal", PathSelection::REdKsp(k), Mechanism::VanillaUgal),
    ];
    let sp_table = if schemes.iter().any(|(_, _, m)| m.needs_sp_table()) {
        Some(PathTable::all_pairs_shortest(net.graph(), true, seed ^ 0x11))
    } else {
        None
    };

    let mut out = String::from("{\n");
    writeln!(
        out,
        "  \"topology\": \"RRG({},{},{})\",",
        params.switches, params.ports, params.network_ports
    )
    .unwrap();
    writeln!(out, "  \"scenario\": \"{scenario_name}\",").unwrap();
    writeln!(out, "  \"seed\": {seed},").unwrap();
    let factor_list: Vec<String> = factors.iter().map(|f| json_num(*f)).collect();
    writeln!(out, "  \"factors\": [{}],", factor_list.join(", ")).unwrap();
    out.push_str("  \"schemes\": {\n");
    for (si, (name, sel, mech)) in schemes.iter().enumerate() {
        let table = net.paths(*sel, &PairSet::AllPairs, seed);
        writeln!(out, "    \"{name}\": [").unwrap();
        for (fi, factor) in factors.iter().enumerate() {
            let scaled = plan.scaled(*factor);
            let (r, flows) = scenario_run(
                &net,
                &table,
                sp_table.as_ref(),
                *mech,
                &scaled,
                scale.sim_config(),
                threads,
            );
            let (p50, _p90, p99, _p999) = flows.fct_hist.percentiles();
            writeln!(
                out,
                "      {{\"factor\": {}, \"accepted\": {}, \"avg_latency\": {}, \
                 \"saturated\": {}, \"flows\": {{\"generated\": {}, \"completed\": {}, \
                 \"dropped\": {}, \"live\": {}}}, \"fct\": {{\"mean\": {}, \"p50\": {p50}, \
                 \"p99\": {p99}}}}}{}",
                json_num(*factor),
                json_num(r.accepted),
                json_num(r.avg_latency),
                r.saturated,
                flows.generated,
                flows.completed,
                flows.dropped,
                flows.live,
                json_num(flows.mean_fct()),
                if fi + 1 == factors.len() { "" } else { "," }
            )
            .unwrap();
        }
        writeln!(out, "    ]{}", if si + 1 == schemes.len() { "" } else { "," }).unwrap();
    }
    out.push_str("  }\n}\n");

    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &out).expect("write JSON file");
            eprintln!("wrote {path}");
        }
        None => print!("{out}"),
    }
    dump_metrics(flags);
    dump_trace(flags);
}

fn bench_cmd(flags: &HashMap<String, String>) {
    use jellyfish_bench::experiments::bench as bench_exp;

    install_threads_flag(flags);
    enable_trace(flags);
    if flags.contains_key("quick") && flags.contains_key("full") {
        eprintln!("error: --quick and --full are mutually exclusive");
        usage()
    }
    let tier =
        if flags.contains_key("full") { bench_exp::Tier::Full } else { bench_exp::Tier::Quick };
    let runs: usize = num(flags, "runs").unwrap_or(5);
    if runs == 0 {
        eprintln!("error: --runs must be >= 1");
        usage()
    }
    let tolerance: f64 = num(flags, "tolerance").unwrap_or(25.0);
    if tolerance.is_nan() || tolerance < 0.0 {
        eprintln!("error: --tolerance must be a percentage >= 0");
        usage()
    }
    let out_dir = std::path::PathBuf::from(flags.get("out-dir").map(String::as_str).unwrap_or("."));
    std::fs::create_dir_all(&out_dir).expect("create --out-dir");

    let results = bench_exp::run_suite(tier, runs, flags.get("filter").map(String::as_str));
    if results.is_empty() {
        eprintln!("error: no workload matches --filter {:?}", flags.get("filter").unwrap());
        std::process::exit(2);
    }
    for r in &results {
        let path = out_dir.join(r.file_name());
        std::fs::write(&path, r.to_json()).expect("write bench report");
        eprintln!("wrote {}", path.display());
    }

    let mut failed = false;
    if let Some(base_path) = flags.get("baseline") {
        let baseline =
            bench_exp::read_baseline(std::path::Path::new(base_path)).unwrap_or_else(|e| {
                eprintln!("error: cannot read baseline: {e}");
                std::process::exit(2);
            });
        let comparisons = bench_exp::compare_to_baseline(&results, &baseline, tolerance);
        println!(
            "{:<18} {:>14} {:>14} {:>9}  verdict (tolerance {tolerance}%)",
            "workload", "baseline ns", "current ns", "delta"
        );
        for c in &comparisons {
            println!(
                "{:<18} {:>14} {:>14} {:>+8.1}%  {}",
                c.name,
                c.baseline_ns,
                c.current_ns,
                c.delta_pct,
                if c.regressed { "REGRESSION" } else { "ok" }
            );
            failed |= c.regressed;
        }
        for r in &results {
            if !baseline.contains_key(&r.name) {
                println!("{:<18} {:>14} {:>14}     new    no baseline", r.name, "-", r.median_ns);
            }
        }
    }
    dump_trace(flags);
    if failed {
        eprintln!("bench: performance regression detected");
        std::process::exit(1);
    }
}

/// Installs the global path-table cache for the daemon commands.
/// Unlike [`install_cache`], the disk store is bounded by default
/// (64 files / 1 GiB, overridable with `--cache-max-files` /
/// `--cache-max-mb`): a long-running service under fault and expansion
/// churn must not leak disk without bound.
fn install_serve_cache(flags: &HashMap<String, String>) {
    if let Some(dir) = flags.get("cache-dir") {
        let max_files: usize = num(flags, "cache-max-files").unwrap_or(64);
        let max_mb: u64 = num(flags, "cache-max-mb").unwrap_or(1024);
        match PathCache::new(dir) {
            Ok(cache) => jellyfish_routing::cache::install_global(
                cache.with_disk_budget(DiskBudget::bounded(max_files, max_mb << 20)),
            ),
            Err(e) => {
                eprintln!("cannot open cache dir {dir}: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn serve_cmd(flags: &HashMap<String, String>) {
    install_serve_cache(flags);
    let params = RrgParams::new(
        required(flags, "switches"),
        required(flags, "ports"),
        required(flags, "net-ports"),
    );
    let seed: u64 = num(flags, "seed").unwrap_or(1);
    let k: usize = num(flags, "k").unwrap_or(8);
    let sel = selection(flags.get("selection").map(String::as_str).unwrap_or("redksp"), k);
    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7380");

    // One journal serves both roles: the daemon's `/events` stream and
    // the process-global sink library layers publish into. Installing
    // BEFORE the table is built means startup-time cache/topology
    // events land in the stream too.
    let journal = std::sync::Arc::new(jellyfish_obs::journal::Journal::new());
    jellyfish_obs::journal::install_global(std::sync::Arc::clone(&journal));
    let state = jellyfish_bench::serve::ServeState::with_journal(params, seed, sel, journal)
        .unwrap_or_else(|e| {
            eprintln!("cannot build network: {e}");
            std::process::exit(1);
        });
    let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    // Stderr (stdout stays clean) and includes the resolved port so
    // `--addr 127.0.0.1:0` callers learn where to connect.
    eprintln!(
        "serving RRG({}, {}, {}) seed {seed} {} on http://{}",
        params.switches,
        params.ports,
        params.network_ports,
        sel.name(),
        listener.local_addr().expect("listener has a local addr"),
    );
    if let Err(e) = jellyfish_bench::serve::run(std::sync::Arc::new(state), listener) {
        eprintln!("serve: {e}");
        std::process::exit(1);
    }
    eprintln!("serve: clean shutdown");
}

/// One plain HTTP/1.1 GET against `addr`, returning the response body.
/// `Connection: close` keeps the client trivial — one connection per
/// poll is plenty for an event tailer.
fn http_get_body(addr: &str, target: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(stream, "GET {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("send request: {e}"))?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("read response: {e}"))?;
    let (head, body) =
        raw.split_once("\r\n\r\n").ok_or_else(|| "malformed HTTP response".to_string())?;
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.starts_with("HTTP/1.1 200") {
        return Err(format!("GET {target}: {status_line}"));
    }
    Ok(body.to_string())
}

/// `jellytool tail` — poll (or stream) a running daemon's `/events`
/// journal and print it as `jellyfish-events v1` text.
fn tail_cmd(flags: &HashMap<String, String>) {
    use jellyfish_obs::journal::{read_events, render_event, write_events, Event, EVENTS_HEADER};

    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7380");
    let mut cursor: u64 = num(flags, "since").unwrap_or(0);
    let wait_ms: u64 = num(flags, "wait-ms").unwrap_or(2_000);
    let count: u64 = num(flags, "count").unwrap_or(u64::MAX);
    let until_idle = flags.contains_key("until-idle");
    if flags.contains_key("follow") {
        if until_idle || flags.contains_key("count") || flags.contains_key("out") {
            eprintln!("tail: --follow relays the server's stream verbatim and cannot combine with --until-idle, --count or --out");
            std::process::exit(2);
        }
        if let Err(e) = tail_follow(addr, cursor) {
            eprintln!("tail: {e}");
            std::process::exit(1);
        }
        return;
    }

    let mut all: Vec<Event> = Vec::new();
    let mut missed_total: u64 = 0;
    println!("{EVENTS_HEADER}");
    let mut line = String::new();
    while (all.len() as u64) < count {
        let target = format!("/events?since={cursor}&wait_ms={wait_ms}");
        let body = http_get_body(addr, &target).unwrap_or_else(|e| {
            eprintln!("tail: {e}");
            std::process::exit(1);
        });
        let (missed, events) = read_events(&body).unwrap_or_else(|e| {
            eprintln!("tail: bad /events document: {e}");
            std::process::exit(1);
        });
        missed_total += missed;
        if events.is_empty() {
            if until_idle {
                break;
            }
            continue;
        }
        cursor = events.last().expect("non-empty").seq;
        for ev in &events {
            line.clear();
            render_event(ev, &mut line);
            print!("{line}");
        }
        all.extend(events);
    }
    if let Some(path) = flags.get("out") {
        // The file gets the canonical document — header, a single
        // folded `missed` line, every event captured — so two captures
        // of deterministic daemons can be byte-compared directly.
        let mut text = String::new();
        write_events(missed_total, &all, &mut text);
        std::fs::write(path, &text).expect("write events capture");
        eprintln!("wrote {path} ({} events, {missed_total} missed)", all.len());
    }
}

/// `tail --follow`: opens the daemon's chunked streaming mode and
/// relays decoded chunk payloads to stdout until the server ends the
/// stream (shutdown) or the connection drops.
fn tail_follow(addr: &str, since: u64) -> Result<(), String> {
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
    write!(
        writer,
        "GET /events?since={since}&follow=1 HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send request: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| format!("read status: {e}"))?;
    if !line.starts_with("HTTP/1.1 200") {
        return Err(format!("GET /events?follow=1: {}", line.trim_end()));
    }
    loop {
        line.clear();
        reader.read_line(&mut line).map_err(|e| format!("read headers: {e}"))?;
        if line == "\r\n" || line == "\n" || line.is_empty() {
            break;
        }
    }
    let mut stdout = std::io::stdout();
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| format!("read chunk size: {e}"))? == 0 {
            break; // connection dropped without a terminator — still a clean exit for a tailer
        }
        let size = usize::from_str_radix(line.trim_end(), 16)
            .map_err(|_| format!("bad chunk size line {:?}", line.trim_end()))?;
        if size == 0 {
            break; // terminating chunk: server shut the stream down
        }
        let mut payload = vec![0u8; size + 2]; // chunk body + trailing CRLF
        reader.read_exact(&mut payload).map_err(|e| format!("read chunk: {e}"))?;
        payload.truncate(size);
        stdout.write_all(&payload).map_err(|e| format!("stdout: {e}"))?;
        stdout.flush().map_err(|e| format!("stdout: {e}"))?;
    }
    Ok(())
}

fn soak_cmd(flags: &HashMap<String, String>) {
    use jellyfish_bench::serve::soak::{run_soak, SoakConfig};

    install_serve_cache(flags);
    let params = RrgParams::new(
        required(flags, "switches"),
        required(flags, "ports"),
        required(flags, "net-ports"),
    );
    let seed: u64 = num(flags, "seed").unwrap_or(1);
    let k: usize = num(flags, "k").unwrap_or(8);
    let sel = selection(flags.get("selection").map(String::as_str).unwrap_or("redksp"), k);
    let defaults = SoakConfig::default();
    let cfg = SoakConfig {
        queries: num(flags, "queries").unwrap_or(defaults.queries),
        threads: num(flags, "threads").unwrap_or(defaults.threads),
        churn_cycles: num(flags, "churn").unwrap_or(defaults.churn_cycles),
        fault_rate: num(flags, "fault-rate").unwrap_or(defaults.fault_rate),
        rss_growth_budget: num::<u64>(flags, "rss-budget-mb")
            .map(|mb| mb << 20)
            .unwrap_or(defaults.rss_growth_budget),
    };

    // Same journal wiring as `serve`, so a soak exercises the exact
    // event-publishing path the daemon runs in production.
    let journal = std::sync::Arc::new(jellyfish_obs::journal::Journal::new());
    jellyfish_obs::journal::install_global(std::sync::Arc::clone(&journal));
    let state = jellyfish_bench::serve::ServeState::with_journal(params, seed, sel, journal)
        .unwrap_or_else(|e| {
            eprintln!("cannot build network: {e}");
            std::process::exit(1);
        });
    let report = run_soak(&state, &cfg);
    let (p50, p90, p99, p999) = report.percentiles_ns();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\n  \"queries\": {},\n  \"errors\": {},\n  \"churn_cycles\": {},\n  \
         \"elapsed_s\": {},\n  \"qps\": {},\n  \"latency_ns\": {{ \"p50\": {p50}, \"p90\": {p90}, \
         \"p99\": {p99}, \"p999\": {p999} }},\n  \"rss_before_bytes\": {},\n  \
         \"rss_after_bytes\": {},\n  \"rss_peak_bytes\": {},\n  \"rss_growth_bytes\": {},\n  \
         \"rss_growth_budget_bytes\": {}\n}}",
        report.queries,
        report.errors,
        report.churn_cycles,
        json_num(report.elapsed.as_secs_f64()),
        json_num(report.qps()),
        report.rss_before.map_or("null".into(), |v| v.to_string()),
        report.rss_after.map_or("null".into(), |v| v.to_string()),
        report.rss_peak.map_or("null".into(), |v| v.to_string()),
        report.rss_growth_bytes(),
        report.rss_growth_budget,
    );
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &out).expect("write soak report");
            eprintln!("wrote {path}");
        }
        None => print!("{out}"),
    }
    dump_metrics(flags);
    if let Err(e) = report.check() {
        eprintln!("soak: FAILED: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "soak: ok — {} queries, {} churn cycles, p99 {p99} ns, RSS growth {} B",
        report.queries,
        report.churn_cycles,
        report.rss_growth_bytes(),
    );
}

#[cfg(test)]
mod tests {
    use super::try_parse_flags;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    const ALLOWED: [&str; 3] = ["switches", "seed", "out"];

    #[test]
    fn accepts_known_flags() {
        let flags = try_parse_flags(&args(&["--switches", "12", "--out", "x.json"]), &ALLOWED, &[])
            .unwrap();
        assert_eq!(flags["switches"], "12");
        assert_eq!(flags["out"], "x.json");
    }

    #[test]
    fn rejects_unknown_flags() {
        let err = try_parse_flags(&args(&["--bogus", "1"]), &ALLOWED, &[]).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
    }

    #[test]
    fn rejects_flag_as_value() {
        // `--out --seed` must not silently consume `--seed` as the file
        // name.
        let err = try_parse_flags(&args(&["--out", "--seed"]), &ALLOWED, &[]).unwrap_err();
        assert!(err.contains("--out needs a value"), "{err}");
    }

    #[test]
    fn rejects_missing_value_and_duplicates() {
        let err = try_parse_flags(&args(&["--seed"]), &ALLOWED, &[]).unwrap_err();
        assert!(err.contains("--seed needs a value"), "{err}");
        let err =
            try_parse_flags(&args(&["--seed", "1", "--seed", "2"]), &ALLOWED, &[]).unwrap_err();
        assert!(err.contains("duplicate flag --seed"), "{err}");
    }

    #[test]
    fn rejects_bare_words() {
        let err = try_parse_flags(&args(&["seed", "1"]), &ALLOWED, &[]).unwrap_err();
        assert!(err.contains("expected a --flag"), "{err}");
    }

    #[test]
    fn negative_like_values_are_fine() {
        // A single leading dash is a value, not a flag.
        let flags = try_parse_flags(&args(&["--out", "-"]), &ALLOWED, &[]).unwrap();
        assert_eq!(flags["out"], "-");
    }

    #[test]
    fn bool_flags_take_no_value() {
        // `--quick` consumes nothing: the next token is still parsed as
        // a flag of its own.
        let flags =
            try_parse_flags(&args(&["--quick", "--seed", "3"]), &ALLOWED, &["quick"]).unwrap();
        assert_eq!(flags["quick"], "true");
        assert_eq!(flags["seed"], "3");
        let err =
            try_parse_flags(&args(&["--quick", "--quick"]), &ALLOWED, &["quick"]).unwrap_err();
        assert!(err.contains("duplicate flag --quick"), "{err}");
    }
}
