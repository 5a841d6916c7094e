//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--jellytool PATH] [--root DIR]`
//!
//! Runs one workload and prints, as its last line, the result object
//! (`correct`, `attempted`, `failed`, `metrics`). Untraced runs report
//! the end-to-end metrics, traced runs the per-layer ones. Exits 2 on a
//! usage error and 1 when the workload cannot run; a run whose outputs
//! fail their checks still prints its result, with `correct: false`.

use jellyfish_perfbench::{
    bursty_flows, provenance, result_json, sat_sweep, serve_paths, table_build, Metric, RunArgs,
    END_TO_END, PER_LAYER, WORKLOADS,
};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--jellytool PATH] [--root DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (RunArgs, PathBuf) {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut jellytool = None;
    let mut root = PathBuf::from(".");
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().unwrap_or_else(|_| usage("bad --seconds")))
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--jellytool" => jellytool = Some(PathBuf::from(value)),
            "--root" => root = PathBuf::from(value),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let jellytool = jellytool.unwrap_or_else(|| {
        let target =
            std::env::var_os("CARGO_TARGET_DIR").map_or(root.join("target"), PathBuf::from);
        target.join("release").join("jellytool")
    });
    let run = RunArgs {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        jellytool,
    };
    (run, root)
}

fn main() {
    let (args, root) = parse_args();
    let result = match args.workload.as_str() {
        "serve_paths" => serve_paths::run(&args),
        "table_build" => table_build::run(&args),
        "sat_sweep" => sat_sweep::run(&args),
        "bursty_flows" => bursty_flows::run(&args),
        _ => unreachable!("workload names are checked when parsing"),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} cannot run: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let correct = outcome.attempted > 0 && outcome.ok == outcome.attempted;
    let ok_frac = outcome.ok as f64 / outcome.attempted.max(1) as f64;
    outcome.metrics.push(Metric::new("ok_frac", ok_frac, "ratio"));
    println!("{}", provenance(&args, &root));
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_json(&outcome, correct, declared));
}
