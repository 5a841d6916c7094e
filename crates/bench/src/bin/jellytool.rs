//! `jellytool` — the command-line front end of the library: topology
//! inspection, path queries and tables, fault and scenario sweeps, the
//! routing daemon and its load tests, and the paper's tables and figures
//! (`jellytool repro <experiment>`).
//!
//! Every command, its one-line synopsis and its flags are declared once,
//! in [`COMMANDS`]. The parser, the usage text printed on a usage error
//! (exit 2), `jellytool help` and `jellytool <command> --help` (exit 0)
//! are all generated from that table. Unknown and duplicate flags,
//! flag-like values (`--out --seed` is a missing value, not a file named
//! `--seed`) and values that do not parse are usage errors.
//!
//! A flag shared between commands is one [`Flag`] value, and the side
//! effects of the shared flags run in one place for every command
//! ([`Flags::setup`], [`Flags::finish`]). None of them changes a result:
//! output is byte-identical with and without the path-table cache or the
//! invariant auditor, and at any simulator shard count.

use jellyfish::prelude::*;
use jellyfish::routing::save_table;
use jellyfish::topology::analysis::{distance_histogram, estimate_bisection, to_dot};
use jellyfish::JellyfishNetwork;
use jellyfish_bench::experiments::{
    ablation, collective, faults as faults_exp, latency, model, properties, saturation, stencil,
};
use jellyfish_bench::serve::ServeState;
use jellyfish_bench::Scale;
use jellyfish_routing::{DiskBudget, PairSet, PathCache, PathTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One flag: `--name` followed by a value, or a valueless switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flag {
    name: &'static str,
    /// Placeholder for the value in help text; `None` for a switch.
    meta: Option<&'static str>,
    help: &'static str,
}

const fn value(name: &'static str, meta: &'static str, help: &'static str) -> Flag {
    Flag { name, meta: Some(meta), help }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag { name, meta: None, help }
}

impl Flag {
    /// `--name META`, or `--name` for a switch.
    fn synopsis(&self) -> String {
        match self.meta {
            Some(meta) => format!("--{} {meta}", self.name),
            None => format!("--{}", self.name),
        }
    }
}

/// One subcommand and everything the parser and the help text need.
struct Command {
    name: &'static str,
    about: &'static str,
    /// Placeholder and accepted values of a leading positional operand.
    operand: Option<(&'static str, &'static [&'static str])>,
    /// Flag groups, so shared groups are written once.
    flags: &'static [&'static [Flag]],
    /// Runs the command; `Err` is printed and exits 1 after the shared
    /// flags' outputs are written.
    run: fn(&Flags) -> Result<(), String>,
}

const TOPO: &[Flag] = &[
    value("switches", "N", "switches in the RRG (required)"),
    value("ports", "X", "ports per switch (required)"),
    value("net-ports", "Y", "switch-to-switch ports per switch (required)"),
    value("seed", "S", "topology seed (default 1)"),
];
const K: Flag = value("k", "K", "paths per switch pair (default 8)");
const SELECTION: Flag =
    value("selection", "NAME", "path selection: sp|ksp|rksp|edksp|redksp (default redksp)");
const MECH: Flag =
    value("mech", "NAME", "routing: sp|random|rr|ugal|ksp-ugal|adaptive (default adaptive)");
const OUT: Flag = value("out", "FILE", "write the JSON report to FILE instead of stdout");
const CACHE_DIR: Flag =
    value("cache-dir", "DIR", "load and store path tables through this content-addressed cache");
/// The daemons' cache: the same flag, but its disk store is bounded by
/// default, since a long-running service must not leak disk.
const DAEMON_CACHE_DIR: Flag =
    value("cache-dir", "DIR", "path-table cache, bounded to 64 files / 1 GiB unless overridden");
const THREADS: Flag =
    value("threads", "T", "simulator shards per run (byte-identical results at any count)");
const METRICS: Flag =
    value("metrics", "FILE", "write timing spans and run counters as jellyfish-metrics v1 text");
const TRACE: Flag =
    value("trace", "FILE", "write a Chrome-trace timeline to FILE and a flame summary to stderr");
/// What every simulating command accepts.
const SIM: &[Flag] = &[
    switch("paper", "paper-scale instance counts and simulation windows"),
    switch("audit", "check every simulation's invariants each cycle (--features audit)"),
    THREADS,
    METRICS,
    CACHE_DIR,
    TRACE,
];

/// Every experiment `repro` accepts. `all` runs the first [`PAPER_RUNS`],
/// one per table and figure of the paper (`properties` prints Tables
/// II-IV in one pass); `ablations` runs every `ablation-*` in order.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "properties",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table5",
    "table6",
    "table2",
    "table3",
    "table4",
    "collectives",
    "ablation-k",
    "ablation-llskr",
    "ablation-construction",
    "ablation-ugal-bias",
    "ablation-estimate",
    "ablation-flits",
    "ablation-injection",
    "ablations",
    "faults",
    "all",
];
const PAPER_RUNS: usize = 14;

/// The one source of truth for commands and their flags.
const COMMANDS: &[Command] = &[
    Command {
        name: "topo",
        about: "print Table-I style metrics of one RRG",
        operand: None,
        flags: &[TOPO, &[value("dot", "FILE", "also write the topology as Graphviz DOT")]],
        run: topo,
    },
    Command {
        name: "paths",
        about: "print the paths every selection scheme computes for one switch pair",
        operand: None,
        flags: &[
            TOPO,
            &[
                value("src", "A", "source switch (required)"),
                value("dst", "B", "destination switch (required)"),
                K,
            ],
        ],
        run: paths,
    },
    Command {
        name: "table",
        about: "compute an all-pairs path table and save it in the text format",
        operand: None,
        flags: &[
            TOPO,
            &[
                value("selection", "NAME", "path selection: sp|ksp|rksp|edksp|redksp (required)"),
                value("out", "FILE", "where to save the table (required)"),
                K,
                CACHE_DIR,
                TRACE,
            ],
        ],
        run: table,
    },
    Command {
        name: "faults",
        about: "sweep link-failure rates; saturation throughput per selection scheme as JSON",
        operand: None,
        flags: &[
            TOPO,
            &[
                value("fault-seed", "F", "fault-plan seed (default 2021)"),
                K,
                MECH,
                value("rates", "CSV", "link-failure rates (default 0 to 5%)"),
                value("pattern", "perm|uniform", "traffic pattern (default perm)"),
                OUT,
            ],
            SIM,
        ],
        run: faults,
    },
    Command {
        name: "stats",
        about: "run one simulation; latency percentiles and telemetry as JSON",
        operand: None,
        flags: &[
            TOPO,
            &[
                K,
                SELECTION,
                MECH,
                value("rate", "R", "offered load per host (default 0.3)"),
                value("pattern", "uniform|perm", "traffic pattern (default uniform)"),
                value("stride", "C", "telemetry sampling stride in cycles (default 64)"),
                OUT,
            ],
            SIM,
        ],
        run: stats,
    },
    Command {
        name: "scenario",
        about: "sweep a traffic scenario over a load grid; flows and FCT per scheme as JSON",
        operand: None,
        flags: &[
            TOPO,
            &[
                K,
                value("scenario", "NAME", "steady|flows|hotspot|shift (default shift)"),
                value("plan", "FILE", "run this jellyfish-scenario v1 plan instead"),
                value("plan-out", "FILE", "write the plan text that was run"),
                value("rate-min", "A", "smallest load factor (default 0.5)"),
                value("rate-max", "B", "largest load factor (default 1.0)"),
                value("rate-step", "C", "load-factor step (default 0.25)"),
                OUT,
            ],
            SIM,
        ],
        run: scenario_cmd,
    },
    Command {
        name: "expand",
        about: "grow an RRG with bounded recabling; repair cost and path drift as JSON",
        operand: None,
        flags: &[
            TOPO,
            &[
                value("add", "M", "switches to add (required)"),
                value("expand-seed", "E", "expansion seed (default 2021)"),
                value("selection", "NAME", "path selection (default edksp)"),
                value("k", "K", "paths per switch pair (default 4)"),
                value("plan", "FILE", "write the recable plan to FILE"),
                OUT,
                TRACE,
            ],
        ],
        run: expand,
    },
    Command {
        name: "cache",
        about: "warm, list or clear a path-table cache directory",
        operand: Some(("ACTION", &["warm", "stats", "clear"])),
        flags: &[
            TOPO,
            &[
                CACHE_DIR,
                value("selection", "NAME", "scheme to warm, or all (default redksp)"),
                K,
                TRACE,
            ],
        ],
        run: cache_cmd,
    },
    Command {
        name: "serve",
        about: "serve paths, faults, repair, metrics, trace and events over HTTP/1.1",
        operand: None,
        flags: &[
            TOPO,
            &[
                SELECTION,
                K,
                value("addr", "HOST:PORT", "bind address, port 0 = any (default 127.0.0.1:7380)"),
                DAEMON_CACHE_DIR,
                value("cache-max-files", "F", "cache file budget (default 64)"),
                value("cache-max-mb", "M", "cache size budget in MiB (default 1024)"),
            ],
        ],
        run: serve_cmd,
    },
    Command {
        name: "soak",
        about: "load-test the daemon's dispatch in-process under fault churn; report as JSON",
        operand: None,
        flags: &[
            TOPO,
            &[
                SELECTION,
                K,
                value("queries", "Q", "path queries in total (default 1000000)"),
                value("threads", "T", "query threads (default 4)"),
                value("churn", "C", "fault+repair cycles interleaved with the queries"),
                value("fault-rate", "R", "link-failure rate of each churn cycle"),
                value("rss-budget-mb", "B", "allowed RSS growth in MiB (default 64)"),
                DAEMON_CACHE_DIR,
                OUT,
                METRICS,
            ],
        ],
        run: soak_cmd,
    },
    Command {
        name: "tail",
        about: "print a running daemon's event journal as jellyfish-events v1 text",
        operand: None,
        flags: &[&[
            value("addr", "HOST:PORT", "daemon address (default 127.0.0.1:7380)"),
            value("since", "SEQ", "start after this event (default 0: the oldest retained)"),
            value("wait-ms", "MS", "long-poll wait per request (default 2000)"),
            value("count", "N", "stop after at least N events"),
            value("out", "FILE", "also write the whole capture to FILE"),
            switch("until-idle", "stop at the first empty poll"),
            switch("follow", "relay the daemon's chunked stream until it shuts down"),
        ]],
        run: tail_cmd,
    },
    Command {
        name: "repro",
        about: "regenerate one of the paper's tables or figures (quick scale by default)",
        operand: Some(("EXPERIMENT", EXPERIMENTS)),
        flags: &[&[value("seed", "N", "base seed (default 2021)")], SIM],
        run: repro,
    },
];

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// Parses `[OPERAND] --flag [value]...`, rejecting an operand outside
    /// the declared values, flags the command does not declare,
    /// duplicates, and flag-like values.
    fn parse(&'static self, args: &[String]) -> Result<Flags, String> {
        let mut args = args.iter();
        let mut operand = String::new();
        if let Some((meta, choices)) = self.operand {
            match args.next() {
                Some(word) if choices.contains(&word.as_str()) => operand.clone_from(word),
                Some(word) if !word.starts_with("--") => {
                    return Err(format!("{word:?} is not a valid {meta}"))
                }
                _ => return Err(format!("missing {meta}")),
            }
        }
        let mut values = HashMap::new();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("expected a --flag, got {arg:?}"));
            };
            let Some(flag) = self.flags().find(|f| f.name == name) else {
                return Err(format!("unknown flag --{name}"));
            };
            let value = match flag.meta.map(|_| args.next()) {
                None => String::new(),
                Some(None) => return Err(format!("--{name} needs a value")),
                Some(Some(v)) if v.starts_with("--") => {
                    return Err(format!("--{name} needs a value, got flag {v:?}"))
                }
                Some(Some(v)) => v.clone(),
            };
            if values.insert(flag.name, value).is_some() {
                return Err(format!("duplicate flag --{name}"));
            }
        }
        Ok(Flags { cmd: self, operand, values })
    }

    /// `jellytool <command> --help`: the synopsis, the operand's values
    /// and one line per flag. `jellytool help` prints every command's.
    fn help(&self) -> String {
        let operand = self.operand.map(|(meta, _)| format!(" {meta}")).unwrap_or_default();
        let mut s = format!("usage: jellytool {}{operand} [flags]\n  {}\n", self.name, self.about);
        if let Some((meta, choices)) = self.operand {
            writeln!(s, "{meta} is one of:").unwrap();
            for line in choices.chunks(7) {
                writeln!(s, "    {}", line.join(" ")).unwrap();
            }
        }
        for f in self.flags() {
            writeln!(s, "  {:<24} {}", f.synopsis(), f.help).unwrap();
        }
        s
    }
}

/// Prints `error: MSG` and the usage of `cmd` (or the list of commands)
/// to stderr, then exits 2.
fn fail(cmd: Option<&Command>, msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    match cmd {
        Some(cmd) => eprint!("{}", cmd.help()),
        None => {
            let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
            eprintln!(
                "usage: jellytool <{}> [flags]\n`jellytool help` lists every flag",
                names.join("|")
            );
        }
    }
    std::process::exit(2)
}

/// A parsed command line.
struct Flags {
    cmd: &'static Command,
    /// The positional operand; empty for commands without one.
    operand: String,
    /// Given flags by name; switches map to an empty value.
    values: HashMap<&'static str, String>,
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// True if the switch (or flag) `--name` was given.
    fn on(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// `--name` parsed as `T`. A value that does not parse is a usage
    /// error, never a silent fallback to the default.
    fn num<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let v = self.get(name)?;
        Some(v.parse().unwrap_or_else(|_| self.fail(&format!("cannot parse --{name} {v:?}"))))
    }

    fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.num(name).unwrap_or(default)
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> T {
        self.num(name).unwrap_or_else(|| self.fail(&format!("missing --{name}")))
    }

    fn fail(&self, msg: &str) -> ! {
        fail(Some(self.cmd), msg)
    }

    /// True if the command declares exactly this flag (name and meaning).
    fn declares(&self, flag: &Flag) -> bool {
        self.cmd.flags().any(|f| f == flag)
    }

    /// Side effects of the shared flags, before the command runs:
    /// `--cache-dir` installs the process-wide path-table cache, `--audit`
    /// the per-cycle invariant auditor, `--threads` the simulator shard
    /// count, and `--trace` turns hierarchical tracing on so the timeline
    /// starts at the root.
    fn setup(&self) {
        if let Some(dir) = self.get("cache-dir") {
            let mut cache = PathCache::new(dir).unwrap_or_else(|e| {
                eprintln!("cannot open cache dir {dir}: {e}");
                std::process::exit(1);
            });
            if self.declares(&DAEMON_CACHE_DIR) {
                let files = self.num_or("cache-max-files", 64);
                let mb: u64 = self.num_or("cache-max-mb", 1024);
                cache = cache.with_disk_budget(DiskBudget::bounded(files, mb << 20));
            }
            jellyfish_routing::cache::install_global(cache);
        }
        if self.on("audit") {
            #[cfg(feature = "audit")]
            jellyfish_flitsim::audit::install_global(jellyfish_flitsim::AuditConfig::default());
            #[cfg(not(feature = "audit"))]
            eprintln!("note: --audit has no effect without --features audit");
        }
        if self.declares(&THREADS) {
            if let Some(n) = self.num::<usize>("threads") {
                if n == 0 {
                    self.fail("--threads must be an integer >= 1");
                }
                jellyfish_flitsim::install_threads(n);
            }
        }
        if self.on("trace") {
            jellyfish_obs::trace::enable(jellyfish_obs::trace::TraceConfig::default());
        }
    }

    /// Outputs of the shared flags, after the command ran: `--metrics`
    /// drains the global registry as `jellyfish-metrics v1` text, and
    /// `--trace` writes Chrome Trace Event Format JSON plus a flame
    /// summary (self-time per span name) on stderr.
    fn finish(&self) {
        if let Some(path) = self.get("metrics") {
            let registry = jellyfish_obs::take_global();
            let mut buf = Vec::new();
            jellyfish_obs::write_metrics(&registry, &mut buf).expect("serialize metrics");
            std::fs::write(path, buf).expect("write metrics file");
            eprintln!("wrote metrics to {path}");
        }
        if let Some(path) = self.get("trace") {
            jellyfish_obs::trace::disable();
            let trace = jellyfish_obs::trace::take();
            std::fs::write(path, trace.to_chrome_json()).expect("write trace file");
            eprint!("{}", trace.render_flame());
            eprintln!("wrote trace to {path} ({} events)", trace.len());
        }
    }
}

fn main() {
    exit_quietly_on_broken_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else { fail(None, "missing command") };
    if name == "help" || name == "--help" {
        COMMANDS.iter().for_each(|c| println!("{}", c.help()));
        return;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        fail(None, &format!("unknown command {name:?}"))
    };
    if rest.iter().any(|a| a == "--help") {
        print!("{}", cmd.help());
        return;
    }
    let flags = cmd.parse(rest).unwrap_or_else(|e| fail(Some(cmd), &e));
    flags.setup();
    let result = (cmd.run)(&flags);
    flags.finish();
    if let Err(e) = result {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

/// A reader that closes stdout early (`jellytool help | head -3`) has
/// taken all the output it wants, so the command ends there with exit
/// status 0. `print!` reports the broken pipe by panicking; this hook
/// turns exactly that panic into the quiet exit, and leaves every other
/// panic to the default hook.
fn exit_quietly_on_broken_stdout() {
    #[cfg(unix)]
    {
        /// `EPIPE` on Linux, macOS and the BSDs.
        const EPIPE: i32 = 32;
        let broken =
            format!("failed printing to stdout: {}", std::io::Error::from_raw_os_error(EPIPE));
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload_as_str() == Some(broken.as_str()) {
                std::process::exit(0);
            }
            default(info);
        }));
    }
}

fn topo_params(flags: &Flags) -> RrgParams {
    RrgParams::new(flags.required("switches"), flags.required("ports"), flags.required("net-ports"))
}

fn network(flags: &Flags) -> Result<(RrgParams, JellyfishNetwork, u64), String> {
    let params = topo_params(flags);
    let seed = flags.num_or("seed", 1);
    let net =
        JellyfishNetwork::build(params, seed).map_err(|e| format!("cannot build RRG: {e}"))?;
    Ok((params, net, seed))
}

fn selection(flags: &Flags, name: &str, k: usize) -> PathSelection {
    match name {
        "sp" => PathSelection::SinglePath,
        "ksp" => PathSelection::Ksp(k),
        "rksp" => PathSelection::RKsp(k),
        "edksp" => PathSelection::EdKsp(k),
        "redksp" => PathSelection::REdKsp(k),
        other => flags.fail(&format!("unknown selection {other:?}")),
    }
}

/// The four multi-path selection schemes the paper compares.
fn schemes(k: usize) -> [PathSelection; 4] {
    [
        PathSelection::Ksp(k),
        PathSelection::RKsp(k),
        PathSelection::EdKsp(k),
        PathSelection::REdKsp(k),
    ]
}

fn mechanism(flags: &Flags) -> Mechanism {
    match flags.get("mech").unwrap_or("adaptive") {
        "sp" => Mechanism::SinglePath,
        "random" => Mechanism::Random,
        "rr" => Mechanism::RoundRobin,
        "ugal" => Mechanism::VanillaUgal,
        "ksp-ugal" => Mechanism::KspUgal,
        "adaptive" => Mechanism::KspAdaptive,
        other => flags.fail(&format!("unknown mechanism {other:?}")),
    }
}

fn scale(flags: &Flags) -> Scale {
    if flags.on("paper") {
        Scale::Paper
    } else {
        Scale::Quick
    }
}

/// Writes a command's report to `--out FILE`, or to stdout without it.
fn emit(flags: &Flags, report: &str) {
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, report).expect("write report file");
            eprintln!("wrote {path}");
        }
        None => print!("{report}"),
    }
}

/// `jellytool repro`: prints one of the paper's tables or figures (or a
/// group of them) on stdout and its wall time on stderr.
fn repro(flags: &Flags) -> Result<(), String> {
    let t0 = Instant::now();
    run_experiment(&flags.operand, scale(flags), flags.num_or("seed", 2021));
    eprintln!("\n[{}] done in {:.1?}", flags.operand, t0.elapsed());
    Ok(())
}

fn run_experiment(what: &str, scale: Scale, seed: u64) {
    match what {
        "table1" => properties::print_table1(&properties::table1(seed)),
        "table2" | "table3" | "table4" | "properties" => {
            let cells = properties::property_cells(scale, seed);
            properties::print_property_tables(&cells);
        }
        "fig4" | "fig5" | "fig6" => {
            let which: u8 = what[3..].parse().expect("figure index");
            model::print_model_figure(&model::figure(which, scale, seed));
        }
        "fig7" | "fig8" | "fig9" | "fig10" => {
            let which: u8 = what[3..].parse().expect("figure index");
            saturation::print_saturation_figure(&saturation::figure(which, scale, seed));
        }
        "fig11" | "fig12" | "fig13" => {
            let which: u8 = what[3..].parse().expect("figure index");
            latency::print_latency_figure(&latency::figure(which, scale, seed));
        }
        "ablation-k" => ablation::ablation_k(scale, seed),
        "ablation-llskr" => ablation::ablation_llskr(scale, seed),
        "ablation-construction" => ablation::ablation_construction(seed),
        "ablation-ugal-bias" => ablation::ablation_ugal_bias(scale, seed),
        "ablation-injection" => ablation::ablation_injection(scale, seed),
        "ablation-estimate" => ablation::ablation_estimate(scale, seed),
        "ablation-flits" => ablation::ablation_flits(scale, seed),
        "collectives" => collective::print_collectives(&collective::collectives(scale, seed)),
        "faults" => {
            let params = RrgParams::new(64, 11, 8);
            let fig = faults_exp::fault_sweep(
                params,
                8,
                Mechanism::KspAdaptive,
                faults_exp::FaultTraffic::Permutation,
                &faults_exp::default_rates(),
                scale,
                seed,
                seed ^ 0xFA,
            );
            faults_exp::print_fault_figure(&fig);
        }
        "ablations" => {
            for (i, exp) in EXPERIMENTS.iter().filter(|e| e.starts_with("ablation-")).enumerate() {
                if i > 0 {
                    println!();
                }
                run_experiment(exp, scale, seed);
            }
        }
        "table5" => stencil::print_stencil_table(&stencil::table(true, scale, seed), true),
        "table6" => stencil::print_stencil_table(&stencil::table(false, scale, seed), false),
        "all" => {
            for exp in &EXPERIMENTS[..PAPER_RUNS] {
                let t = Instant::now();
                println!("=== {exp} ===");
                run_experiment(exp, scale, seed);
                println!("--- {exp} finished in {:.1?} ---\n", t.elapsed());
            }
        }
        other => unreachable!("experiment {other:?} is in EXPERIMENTS but has no arm"),
    }
}

fn topo(flags: &Flags) -> Result<(), String> {
    let (params, net, seed) = network(flags)?;
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
    Ok(())
}

fn paths(flags: &Flags) -> Result<(), String> {
    let (_, net, seed) = network(flags)?;
    let src: u32 = flags.required("src");
    let dst: u32 = flags.required("dst");
    let k: usize = flags.num_or("k", 8);
    for sel in schemes(k) {
        let found = sel.paths_for_pair(net.graph(), src, dst, seed);
        println!("{} ({} paths):", sel.name(), found.len());
        for p in &found {
            let hops = p.len() - 1;
            let nodes: Vec<String> = p.iter().map(u32::to_string).collect();
            println!("  [{hops} hops] {}", nodes.join(" -> "));
        }
    }
    Ok(())
}

/// `jellytool cache ACTION` works on the cache `--cache-dir` installed.
fn cache_cmd(flags: &Flags) -> Result<(), String> {
    let Some(dir) = flags.get("cache-dir") else { flags.fail("cache requires --cache-dir DIR") };
    let cache = jellyfish_routing::cache::global_cache().expect("--cache-dir installs the cache");
    match flags.operand.as_str() {
        "warm" => {
            let (_, net, seed) = network(flags)?;
            let k: usize = flags.num_or("k", 8);
            let sel_name = flags.get("selection").unwrap_or("redksp");
            let sels = if sel_name == "all" {
                schemes(k).to_vec()
            } else {
                vec![selection(flags, sel_name, k)]
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
        other => unreachable!("cache action {other:?} is declared but has no arm"),
    }
    Ok(())
}

fn faults(flags: &Flags) -> Result<(), String> {
    let params = topo_params(flags);
    let seed: u64 = flags.num_or("seed", 1);
    let fault_seed: u64 = flags.num_or("fault-seed", 2021);
    let k: usize = flags.num_or("k", 8);
    let mech = mechanism(flags);
    let rates: Vec<f64> = match flags.get("rates") {
        None => faults_exp::default_rates(),
        Some(csv) => csv
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| flags.fail(&format!("bad rate {s:?} in --rates")))
            })
            .collect(),
    };
    let traffic = match flags.get("pattern").unwrap_or("perm") {
        "perm" => faults_exp::FaultTraffic::Permutation,
        "uniform" => faults_exp::FaultTraffic::Uniform,
        other => flags.fail(&format!("unknown pattern {other:?} (use perm|uniform)")),
    };
    let fig =
        faults_exp::fault_sweep(params, k, mech, traffic, &rates, scale(flags), seed, fault_seed);
    faults_exp::print_fault_figure(&fig);
    emit(flags, &faults_exp::to_json(&fig));
    Ok(())
}

fn table(flags: &Flags) -> Result<(), String> {
    let (_, net, seed) = network(flags)?;
    let k: usize = flags.num_or("k", 8);
    let sel = selection(flags, &flags.required::<String>("selection"), k);
    let out: String = flags.required("out");
    let t0 = std::time::Instant::now();
    let table = net.paths(sel, &PairSet::AllPairs, seed);
    save_table(&table, std::path::Path::new(&out)).expect("write table");
    println!(
        "computed {} ({} pairs, max {} hops) in {:.1?}; saved to {out}",
        sel.name(),
        table.num_pairs(),
        table.max_hops(),
        t0.elapsed()
    );
    Ok(())
}

/// Grows an RRG by `--add` switches with bounded recabling, extends the
/// all-pairs path table over the grown fabric, and reports the repair
/// cost plus the path-quality drift of grow-and-repair versus a fresh
/// rebuild. The JSON written to `--out` (or stdout) is byte-deterministic
/// for fixed flags — wall-clock timings go to stderr only — so CI can
/// diff two runs to pin replay determinism.
fn expand(flags: &Flags) -> Result<(), String> {
    use jellyfish::topology::{expand_rrg, write_recable_plan};
    let (params, net, seed) = network(flags)?;
    let added: usize = flags.required("add");
    let expand_seed: u64 = flags.num_or("expand-seed", 2021);
    let k: usize = flags.num_or("k", 4);
    let sel = selection(flags, flags.get("selection").unwrap_or("edksp"), k);

    let (grown, grown_params, plan) = expand_rrg(net.graph(), params, added, expand_seed)
        .map_err(|e| format!("cannot expand RRG: {e}"))?;
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
    emit(flags, &out);
    Ok(())
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

fn stats(flags: &Flags) -> Result<(), String> {
    let (params, net, seed) = network(flags)?;
    let k: usize = flags.num_or("k", 8);
    let sel = selection(flags, flags.get("selection").unwrap_or("redksp"), k);
    let mech = mechanism(flags);
    let rate: f64 = flags.num_or("rate", 0.3);
    let stride: u32 = flags.num_or("stride", 64);
    // Validate here, not deep inside the simulator's observer, so a bad
    // value is a usage error rather than a panic.
    if stride == 0 {
        flags.fail("--stride must be >= 1 (sampling every stride-th cycle)");
    }
    #[cfg(not(feature = "obs"))]
    if flags.on("stride") {
        eprintln!("note: --stride has no effect without --features obs");
    }

    // Traffic: one uniform or one seeded permutation instance; the
    // table is pair-restricted for permutations, as in the figures.
    let (pairs, pattern) = match flags.get("pattern").unwrap_or("uniform") {
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
        other => flags.fail(&format!("unknown pattern {other:?} (use perm|uniform)")),
    };
    let table = net.paths(sel, &pairs, seed);
    let sp_table = mech
        .needs_sp_table()
        .then(|| PathTable::all_pairs_shortest(net.graph(), true, seed ^ 0x11));

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
        scale(flags).sim_config(),
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
    emit(flags, &out);
    Ok(())
}

/// Built-in scenario plans, seeded from the topology seed so a fixed
/// command line is fully deterministic. Phase starts fit the Quick
/// schedule (500-cycle warmup + 5×500-cycle windows).
fn builtin_plan(
    name: &str,
    num_hosts: usize,
    seed: u64,
) -> Option<jellyfish_traffic::ScenarioPlan> {
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
        _ => return None,
    }
    Some(plan)
}

/// Sweeps a dynamic traffic scenario across the four path-selection
/// schemes (KSP-adaptive routing) plus UGAL, over a multiplicative load
/// grid (`plan.scaled(factor)`), and emits flow counts and FCT
/// percentiles per scheme as deterministic JSON.
fn scenario_cmd(flags: &Flags) -> Result<(), String> {
    use jellyfish_traffic::scenario::{read_plan, write_plan};

    // Validate the load grid at flag-parse time, like --stride: a
    // descending or zero-step grid is a usage error, not a silently
    // empty sweep.
    let rate_min: f64 = flags.num_or("rate-min", 0.5);
    let rate_max: f64 = flags.num_or("rate-max", 1.0);
    let rate_step: f64 = flags.num_or("rate-step", 0.25);
    if !rate_step.is_finite() || rate_step <= 0.0 {
        flags.fail("--rate-step must be > 0");
    }
    if !rate_min.is_finite() || !rate_max.is_finite() || rate_min <= 0.0 {
        flags.fail("--rate-min and --rate-max must be finite and > 0");
    }
    if rate_max < rate_min {
        flags.fail(&format!(
            "--rate-max ({rate_max}) < --rate-min ({rate_min}) — the load grid would be empty"
        ));
    }
    let steps = ((rate_max - rate_min) / rate_step + 1e-9).floor() as usize;
    let factors: Vec<f64> =
        (0..=steps).map(|i| ((rate_min + i as f64 * rate_step) * 1e6).round() / 1e6).collect();

    let (params, net, seed) = network(flags)?;
    let k: usize = flags.num_or("k", 8);
    let threads = jellyfish_flitsim::resolve_threads(None);

    if flags.on("plan") && flags.on("scenario") {
        flags.fail("--plan and --scenario are mutually exclusive");
    }
    let (scenario_name, plan) = match flags.get("plan") {
        Some(path) => {
            let file =
                std::fs::File::open(path).map_err(|e| format!("cannot open plan {path}: {e}"))?;
            let plan = read_plan(std::io::BufReader::new(file))
                .map_err(|e| format!("cannot parse plan {path}: {e}"))?;
            (format!("file:{path}"), plan)
        }
        None => {
            let name = flags.get("scenario").unwrap_or("shift");
            let plan = builtin_plan(name, params.num_hosts(), seed).unwrap_or_else(|| {
                flags.fail(&format!("unknown scenario {name:?} (use steady|flows|hotspot|shift)"))
            });
            (name.to_string(), plan)
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
    let sp_table = schemes
        .iter()
        .any(|(_, _, m)| m.needs_sp_table())
        .then(|| PathTable::all_pairs_shortest(net.graph(), true, seed ^ 0x11));

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
            // Same seed, same run: byte-identical at any shard count.
            let scaled = plan.scaled(*factor);
            let span = jellyfish_obs::span("jellytool.scenario.run");
            let mut sim = jellyfish_flitsim::Simulator::new(
                net.graph(),
                params,
                &table,
                sp_table.as_ref(),
                *mech,
                PacketDestinations::Uniform { num_hosts: params.num_hosts() },
                0.0,
                scale(flags).sim_config(),
            )
            .with_threads(threads)
            .with_scenario(&scaled);
            let r = sim.run();
            span.finish();
            let flows = sim.flow_stats().expect("scenario attached");
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
    emit(flags, &out);
    Ok(())
}

/// The daemon state `serve` and `soak` share. One journal serves both
/// roles: the daemon's `/events` stream and the process-global sink
/// library layers publish into. Installing it BEFORE the table is built
/// means startup-time cache/topology events land in the stream too, and
/// a soak exercises the exact event-publishing path of the daemon.
fn serve_state(flags: &Flags) -> Result<ServeState, String> {
    let sel = selection(flags, flags.get("selection").unwrap_or("redksp"), flags.num_or("k", 8));
    let journal = Arc::new(jellyfish_obs::journal::Journal::new());
    jellyfish_obs::journal::install_global(Arc::clone(&journal));
    ServeState::with_journal(topo_params(flags), flags.num_or("seed", 1), sel, journal)
        .map_err(|e| format!("cannot build network: {e}"))
}

fn serve_cmd(flags: &Flags) -> Result<(), String> {
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7380");
    let state = serve_state(flags)?;
    let params = topo_params(flags);
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    // Stderr (stdout stays clean) and includes the resolved port so
    // `--addr 127.0.0.1:0` callers learn where to connect.
    eprintln!(
        "serving RRG({}, {}, {}) seed {} {} on http://{}",
        params.switches,
        params.ports,
        params.network_ports,
        flags.num_or::<u64>("seed", 1),
        state.selection().name(),
        listener.local_addr().expect("listener has a local addr"),
    );
    jellyfish_bench::serve::run(Arc::new(state), listener).map_err(|e| format!("serve: {e}"))?;
    eprintln!("serve: clean shutdown");
    Ok(())
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
fn tail_cmd(flags: &Flags) -> Result<(), String> {
    use jellyfish_obs::journal::{read_events, render_event, write_events, Event, EVENTS_HEADER};

    let addr = flags.get("addr").unwrap_or("127.0.0.1:7380");
    let mut cursor: u64 = flags.num_or("since", 0);
    let wait_ms: u64 = flags.num_or("wait-ms", 2_000);
    let count: u64 = flags.num_or("count", u64::MAX);
    let until_idle = flags.on("until-idle");
    if flags.on("follow") {
        if until_idle || flags.on("count") || flags.on("out") {
            flags.fail(
                "--follow relays the server's stream verbatim and cannot combine with \
                 --until-idle, --count or --out",
            );
        }
        return tail_follow(addr, cursor).map_err(|e| format!("tail: {e}"));
    }

    let mut all: Vec<Event> = Vec::new();
    let mut missed_total: u64 = 0;
    println!("{EVENTS_HEADER}");
    let mut line = String::new();
    while (all.len() as u64) < count {
        let target = format!("/events?since={cursor}&wait_ms={wait_ms}");
        let body = http_get_body(addr, &target).map_err(|e| format!("tail: {e}"))?;
        let (missed, events) =
            read_events(&body).map_err(|e| format!("tail: bad /events document: {e}"))?;
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
    Ok(())
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
        match stdout.write_all(&payload).and_then(|()| stdout.flush()) {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => break, // the reader left
            written => written.map_err(|e| format!("stdout: {e}"))?,
        }
    }
    Ok(())
}

fn soak_cmd(flags: &Flags) -> Result<(), String> {
    use jellyfish_bench::serve::soak::{run_soak, SoakConfig};

    let defaults = SoakConfig::default();
    let cfg = SoakConfig {
        queries: flags.num_or("queries", defaults.queries),
        threads: flags.num_or("threads", defaults.threads),
        churn_cycles: flags.num_or("churn", defaults.churn_cycles),
        fault_rate: flags.num_or("fault-rate", defaults.fault_rate),
        rss_growth_budget: flags
            .num::<u64>("rss-budget-mb")
            .map(|mb| mb << 20)
            .unwrap_or(defaults.rss_growth_budget),
    };
    let report = run_soak(&serve_state(flags)?, &cfg);
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
    emit(flags, &out);
    report.check().map_err(|e| format!("soak: FAILED: {e}"))?;
    eprintln!(
        "soak: ok — {} queries, {} churn cycles, p99 {p99} ns, RSS growth {} B",
        report.queries,
        report.churn_cycles,
        report.rss_growth_bytes(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{Flags, COMMANDS};

    fn parse(name: &str, list: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        COMMANDS.iter().find(|c| c.name == name).expect("command in the table").parse(&args)
    }

    fn parse_err(name: &str, list: &[&str]) -> String {
        match parse(name, list) {
            Ok(_) => panic!("{name} {list:?} must be rejected"),
            Err(e) => e,
        }
    }

    #[test]
    fn values_switches_and_operands_parse() {
        let flags = parse("table", &["--switches", "12", "--out", "-"]).unwrap();
        // A single leading dash is a value, not a flag.
        assert_eq!((flags.get("switches"), flags.get("out")), (Some("12"), Some("-")));
        // `--until-idle` consumes nothing: the next token is a flag of its own.
        let flags = parse("tail", &["--until-idle", "--count", "3"]).unwrap();
        assert!(flags.on("until-idle"));
        assert_eq!(flags.get("count"), Some("3"));
        assert_eq!(parse("repro", &["table1", "--paper"]).unwrap().operand, "table1");
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        for (name, args, expect) in [
            ("topo", &["--bogus", "1"][..], "unknown flag --bogus"),
            // `--out --seed` must not consume `--seed` as the file name.
            ("table", &["--out", "--seed"], "--out needs a value"),
            ("topo", &["--seed"], "--seed needs a value"),
            ("topo", &["--seed", "1", "--seed", "2"], "duplicate flag --seed"),
            ("stats", &["--paper", "--paper"], "duplicate flag --paper"),
            ("topo", &["seed", "1"], "expected a --flag"),
            // A switch takes no value, so `--paper false` is a stray word.
            ("stats", &["--paper", "false"], "expected a --flag, got \"false\""),
            ("repro", &["table7"], "not a valid EXPERIMENT"),
            ("repro", &["--paper"], "missing EXPERIMENT"),
            ("cache", &["--cache-dir", "d"], "missing ACTION"),
        ] {
            let err = parse_err(name, args);
            assert!(err.contains(expect), "{name} {args:?}: {err}");
        }
    }

    /// The table is the one source of truth: each command's help lists
    /// every flag it declares, declares no name twice, and its parser
    /// accepts each of them and rejects every other flag, including those
    /// of other commands.
    #[test]
    fn help_and_parser_follow_the_table_for_every_command() {
        let all: Vec<&str> = COMMANDS.iter().flat_map(|c| c.flags().map(|f| f.name)).collect();
        for c in COMMANDS {
            let help = c.help();
            let operand: Vec<&str> = c.operand.map(|(_, values)| values[0]).into_iter().collect();
            let mut names: Vec<&str> = c.flags().map(|f| f.name).collect();
            for f in c.flags() {
                assert!(help.contains(&format!("  {} ", f.synopsis())), "{}: {help}", f.name);
                let arg = format!("--{}", f.name);
                let mut args = operand.clone();
                args.push(&arg);
                if f.meta.is_some() {
                    args.push("1");
                }
                assert!(parse(c.name, &args).is_ok(), "{} {args:?}", c.name);
            }
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), c.flags().count(), "{} declares a flag twice", c.name);
            for other in all.iter().filter(|n| !names.contains(n)).chain(&["no-such-flag"]) {
                let arg = format!("--{other}");
                let mut args = operand.clone();
                args.extend([arg.as_str(), "1"]);
                let err = parse_err(c.name, &args);
                assert!(err.contains(&format!("unknown flag --{other}")), "{}: {err}", c.name);
            }
        }
    }
}
