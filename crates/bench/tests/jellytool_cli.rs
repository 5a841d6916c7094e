//! End-to-end CLI contracts for `jellytool`: the `--stride 0` usage
//! error (regression test for the old divide-by-zero panic), the
//! `scenario` load-grid validation (a descending or zero-step grid is
//! a usage error, not a silent empty sweep), flag values that do not
//! parse and stray words after switches (usage errors, never a silent
//! default), the generated help, a quiet exit when stdout's reader has
//! gone, and (under `--features audit`) the audit counters in an
//! audited run's `--metrics` file.

use std::path::PathBuf;
use std::process::{Command, Output};

fn jellytool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jellytool")).args(args).output().expect("spawn jellytool")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jellytool-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `stats --stride 0` used to panic with a divide-by-zero deep inside
/// the observer; it must be a flag-validation usage error instead.
#[test]
fn stats_stride_zero_is_a_usage_error_not_a_panic() {
    let out = jellytool(&[
        "stats",
        "--switches",
        "10",
        "--ports",
        "6",
        "--net-ports",
        "4",
        "--stride",
        "0",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "usage error exit code; stderr: {stderr}");
    assert!(stderr.contains("--stride must be >= 1"), "actionable message: {stderr}");
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}

/// A load grid that could never produce a sweep point — `--rate-max`
/// below `--rate-min`, or a non-positive `--rate-step` — must be
/// rejected at flag-parse time with a usage error (exit 2), not run a
/// silently empty sweep or panic.
#[test]
fn scenario_descending_or_degenerate_load_grid_is_a_usage_error() {
    let topo = ["--switches", "10", "--ports", "6", "--net-ports", "4"];
    for (extra, expect) in [
        (["--rate-min", "0.3", "--rate-max", "0.1"], "--rate-max (0.1) < --rate-min (0.3)"),
        (["--rate-step", "0", "--rate-max", "1"], "--rate-step must be > 0"),
        (["--rate-step", "-0.5", "--rate-max", "1"], "--rate-step must be > 0"),
        (["--rate-min", "0", "--rate-max", "1"], "--rate-min and --rate-max must be finite"),
    ] {
        let args: Vec<&str> = std::iter::once("scenario").chain(topo).chain(extra).collect();
        let out = jellytool(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "usage error for {extra:?}; stderr: {stderr}");
        assert!(stderr.contains(expect), "actionable message for {extra:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
    }
}

/// A value that does not parse is a usage error naming the flag, not a
/// silent fall-back to the default (`--seed abc` used to build seed 1).
#[test]
fn unparsable_flag_values_are_usage_errors() {
    let topo = ["--switches", "10", "--ports", "6", "--net-ports", "4"];
    for (args, flag) in [
        ([&["topo"][..], &topo, &["--seed", "abc"]].concat(), "--seed"),
        ([&["paths"][..], &topo, &["--src", "0", "--dst", "3", "--k", "banana"]].concat(), "--k"),
        ([&["stats"][..], &topo, &["--rate", "abc"]].concat(), "--rate"),
    ] {
        let out = jellytool(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "usage error for {args:?}; stderr: {stderr}");
        assert!(stderr.contains(flag), "names {flag}: {stderr}");
    }
}

/// `--paper` and `--audit` are switches: a following `false` is a stray
/// word and a usage error, not a way to turn the feature off (it used
/// to turn it on).
#[test]
fn paper_and_audit_take_no_value() {
    let topo = ["--switches", "10", "--ports", "6", "--net-ports", "4"];
    for switch in ["--paper", "--audit"] {
        let args: Vec<&str> =
            std::iter::once("stats").chain(topo).chain([switch, "false"]).collect();
        let out = jellytool(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}; stderr: {stderr}");
        assert!(stderr.contains("got \"false\""), "{stderr}");
    }
}

/// `help` and `<command> --help` exit 0 on stdout; an unknown or missing
/// `repro` experiment exits 2, and so does an unknown command, such as
/// the retired `bench`.
#[test]
fn help_exits_zero_and_unknown_experiments_exit_two() {
    let out = jellytool(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("jellytool repro EXPERIMENT"), "{stdout}");
    let out = jellytool(&["repro", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--paper") && stdout.contains("ablation-flits"), "{stdout}");
    for args in [&["repro", "table7"][..], &["repro"], &["repro", "--paper"]] {
        let out = jellytool(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: jellytool repro"));
    }
    let out = jellytool(&["bench", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command \"bench\""));
}

/// A reader that has already gone (`jellytool help | head -0`) ends a
/// command quietly: no "failed printing to stdout" panic (exit 101),
/// no backtrace, nothing on stderr.
#[test]
fn closed_stdout_exits_quietly() {
    let topo = ["topo", "--switches", "36", "--ports", "24", "--net-ports", "16"];
    for args in [&["help"][..], &["repro", "--help"], &topo] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader); // every write to stdout now fails with EPIPE
        let out = Command::new(env!("CARGO_BIN_EXE_jellytool"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn jellytool");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}; stderr: {stderr}");
        assert!(stderr.is_empty(), "{args:?}; stderr: {stderr}");
    }
}

/// `--trace FILE` on a stats run writes a parseable Chrome trace with
/// routing spans in it, and prints the flame summary to stderr.
#[test]
fn stats_trace_flag_writes_chrome_json() {
    let out_dir = temp_dir("stats-trace");
    let trace = out_dir.join("t.json");
    let out = jellytool(&[
        "stats",
        "--switches",
        "10",
        "--ports",
        "6",
        "--net-ports",
        "4",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let doc = jellyfish_obs::json::parse_json(&text).expect("chrome trace parses");
    assert_eq!(
        doc.get("otherData").unwrap().get("format").unwrap().as_str(),
        Some("jellyfish-trace v1")
    );
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    assert!(text.contains("routing.pair.compute"), "routing work traced");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wrote trace to"), "{stderr}");
    assert!(stderr.contains("self-time sum"), "flame summary on stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// An audited scenario run's `--metrics` file carries the auditor's
/// counters: they are reported through the always-on registry, so they
/// need no feature beyond `audit`.
#[cfg(feature = "audit")]
#[test]
fn audited_scenario_metrics_count_audited_cycles() {
    let out_dir = temp_dir("audit-metrics");
    let plan = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/bursts_v1.txt");
    let metrics = out_dir.join("m.txt");
    let report = out_dir.join("r.json");
    let out = jellytool(&[
        "scenario",
        "--switches",
        "24",
        "--ports",
        "8",
        "--net-ports",
        "5",
        "--k",
        "4",
        "--plan",
        plan,
        "--rate-min",
        "1",
        "--rate-max",
        "1",
        "--audit",
        "--out",
        report.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let cycles = text
        .lines()
        .find_map(|l| l.strip_prefix("counter flitsim.audit.cycles "))
        .unwrap_or_else(|| panic!("no flitsim.audit.cycles counter in:\n{text}"));
    assert!(cycles.parse::<u64>().unwrap() > 0, "audited cycles: {cycles}");
    let _ = std::fs::remove_dir_all(&out_dir);
}
