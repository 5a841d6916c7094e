//! Contracts for the serve layer: golden JSON bodies per endpoint,
//! malformed input → 4xx (never a panic), byte-deterministic `/paths`
//! across a fault+repair cycle and across fresh daemons, and the real
//! TCP server end to end (keep-alive, malformed request framing, clean
//! shutdown).
//!
//! Everything but the TCP tests drives [`ServeState::dispatch`]
//! directly — the same code path the socket layer and the soak harness
//! use — so these are the daemon's semantics, not just its plumbing.

use jellyfish::JellyfishNetwork;
use jellyfish_bench::serve::soak::{run_soak, SoakConfig};
use jellyfish_bench::serve::{self, ServeState};
use jellyfish_obs::json::parse_json;
use jellyfish_routing::{PairSet, PathSelection};
use jellyfish_topology::RrgParams;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

const PARAMS: RrgParams = RrgParams { switches: 16, ports: 8, network_ports: 5 };
const SEED: u64 = 7;
const SELECTION: PathSelection = PathSelection::REdKsp(4);

fn state() -> ServeState {
    ServeState::new(PARAMS, SEED, SELECTION).expect("build serve state")
}

fn get(state: &ServeState, target: &str) -> (u16, String) {
    let mut out = String::new();
    let resp = state.dispatch("GET", target, "", &mut out);
    (resp.status, out)
}

fn post(state: &ServeState, target: &str, body: &str) -> (u16, String) {
    let mut out = String::new();
    let resp = state.dispatch("POST", target, body, &mut out);
    (resp.status, out)
}

/// `/paths` bodies must match, byte for byte, a rendering built
/// independently from the library's own table — same pair, same
/// selection, same seed.
#[test]
fn paths_body_matches_independently_computed_golden() {
    let st = state();
    let net = JellyfishNetwork::build(PARAMS, SEED).unwrap();
    let table = net.paths(SELECTION, &PairSet::AllPairs, SEED);
    for (src, dst) in [(0u32, 5u32), (3, 14), (15, 0)] {
        let set = table.get(src, dst).expect("pair covered");
        let mut expected = format!(
            "{{\"src\":{src},\"dst\":{dst},\"selection\":\"{}\",\"k\":{},\"paths\":[",
            SELECTION.name(),
            set.len()
        );
        for (i, path) in set.iter().enumerate() {
            if i > 0 {
                expected.push(',');
            }
            expected.push('[');
            for (j, node) in path.iter().enumerate() {
                if j > 0 {
                    expected.push(',');
                }
                let _ = write!(expected, "{node}");
            }
            expected.push(']');
        }
        expected.push_str("]}");

        let (status, body) = get(&st, &format!("/paths/{src}/{dst}"));
        assert_eq!(status, 200);
        assert_eq!(body, expected, "golden mismatch for pair ({src}, {dst})");
    }
}

/// Control-plane bodies: exact strings where the response is fully
/// determined, parsed-field checks where it is environmental.
#[test]
fn control_endpoints_answer_golden_json() {
    let st = state();

    // Repair of a pristine daemon is a no-op with an exact body.
    let (status, body) = post(&st, "/repair", "");
    assert_eq!((status, body.as_str()), (200, "{\"restored\":true,\"cleared_links\":0}"));

    // One explicit link fault: the response accounts for exactly it.
    let u = 0u32;
    let v = st.graph().neighbors(0)[0];
    let (status, body) = post(&st, "/faults", &format!("{{\"links\":[[{u},{v}]]}}"));
    assert_eq!(status, 200, "fault apply failed: {body}");
    let parsed = parse_json(&body).expect("fault response is JSON");
    assert_eq!(parsed.get("new_failed_links").and_then(|v| v.as_f64()), Some(1.0));
    assert_eq!(parsed.get("total_failed_links").and_then(|v| v.as_f64()), Some(1.0));
    assert!(parsed.get("affected_pairs").and_then(|v| v.as_f64()).unwrap() >= 1.0);

    let (status, body) = post(&st, "/repair", "");
    assert_eq!((status, body.as_str()), (200, "{\"restored\":true,\"cleared_links\":1}"));

    // Healthz: structural contract (values depend on the platform).
    let (status, body) = get(&st, "/healthz");
    assert_eq!(status, 200);
    let parsed = parse_json(&body).expect("healthz is JSON");
    assert_eq!(parsed.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert_eq!(parsed.get("switches").and_then(|v| v.as_f64()), Some(16.0));
    assert_eq!(parsed.get("selection").and_then(|v| v.as_str()), Some("rEDKSP(4)"));
    assert_eq!(parsed.get("failed_links").and_then(|v| v.as_f64()), Some(0.0));
    assert!(parsed.get("table_resident_bytes").and_then(|v| v.as_f64()).unwrap() > 0.0);

    // Shutdown: exact body, flag observable.
    let mut out = String::new();
    let resp = st.dispatch("POST", "/shutdown", "", &mut out);
    assert_eq!((resp.status, resp.shutdown, out.as_str()), (200, true, "{\"stopping\":true}"));
    assert!(st.stopping());
}

/// `/metrics` speaks `jellyfish-metrics v1` and carries the
/// per-endpoint spans the dispatcher records.
#[test]
fn metrics_endpoint_reports_per_endpoint_latency() {
    let st = state();
    let (status, _) = get(&st, "/paths/0/1");
    assert_eq!(status, 200);
    let (status, body) = get(&st, "/metrics");
    assert_eq!(status, 200);
    assert!(body.starts_with("jellyfish-metrics v1"), "header: {body:.40}");
    for needle in ["serve.paths.calls", "serve.paths.micros", "serve.table_resident_bytes"] {
        assert!(body.contains(needle), "missing {needle} in metrics:\n{body}");
    }
}

/// `/trace` toggles: first call arms capture, second drains a Chrome
/// trace with the endpoint spans on the timeline.
#[test]
fn trace_endpoint_toggles_capture() {
    let st = state();
    let (status, body) = get(&st, "/trace");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"tracing\":\"started\"}");
    let (status, _) = get(&st, "/paths/2/9");
    assert_eq!(status, 200);
    let (status, body) = get(&st, "/trace");
    assert_eq!(status, 200);
    assert!(body.contains("\"traceEvents\""), "chrome trace envelope: {body:.80}");
    assert!(body.contains("serve.paths"), "endpoint span on the timeline");
}

/// Every malformed request maps to a 4xx with a JSON error body — the
/// daemon must never panic on untrusted input.
#[test]
fn malformed_requests_are_4xx_never_panics() {
    let st = state();
    let cases: &[(&str, &str, &str)] = &[
        ("GET", "/nope", ""),
        ("GET", "/", ""),
        ("GET", "/paths", ""),
        ("GET", "/paths/0", ""),
        ("GET", "/paths/0/0", ""),
        ("GET", "/paths/0/1/2", ""),
        ("GET", "/paths/a/b", ""),
        ("GET", "/paths/0/99999", ""),
        ("GET", "/paths/-1/3", ""),
        ("GET", "/paths/0/3.5", ""),
        ("DELETE", "/paths/0/1", ""),
        ("POST", "/paths/0/1", ""),
        ("POST", "/metrics", ""),
        ("POST", "/healthz", ""),
        ("GET", "/shutdown", ""),
        ("POST", "/faults", ""),
        ("POST", "/faults", "not json"),
        ("POST", "/faults", "{}"),
        ("POST", "/faults", "{\"rate\":2,\"seed\":1}"),
        ("POST", "/faults", "{\"rate\":0.1}"),
        ("POST", "/faults", "{\"links\":5}"),
        ("POST", "/faults", "{\"links\":[[0]]}"),
        ("POST", "/faults", "{\"links\":[[0,0]]}"),
        ("POST", "/faults", "{\"links\":[[0,\"x\"]]}"),
        // /events query-string corpus: bad cursors, bad keys, bad
        // shapes — every one is a 4xx, never a panic or a hang.
        ("POST", "/events", ""),
        ("GET", "/events/1", ""),
        ("GET", "/events?", ""),
        ("GET", "/events?since", ""),
        ("GET", "/events?since=", ""),
        ("GET", "/events?since=abc", ""),
        ("GET", "/events?since=-1", ""),
        ("GET", "/events?since=3.5", ""),
        ("GET", "/events?since=99999999999999999999999", ""),
        ("GET", "/events?since=1&since=2", ""),
        ("GET", "/events?bogus=1", ""),
        ("GET", "/events?since=0&bogus=1", ""),
        ("GET", "/events?wait_ms=abc", ""),
        ("GET", "/events?wait_ms=-5", ""),
        ("GET", "/events?follow=2", ""),
        ("GET", "/events?follow=", ""),
        ("GET", "/events?since=0&&wait_ms=1", ""),
    ];
    let mut out = String::new();
    for &(method, target, body) in cases {
        let resp = st.dispatch(method, target, body, &mut out);
        assert!(
            (400..500).contains(&resp.status),
            "{method} {target} {body:?} answered {} ({out})",
            resp.status
        );
        let parsed = parse_json(&out)
            .unwrap_or_else(|e| panic!("{method} {target}: error body not JSON ({e}): {out}"));
        assert!(parsed.get("error").is_some(), "{method} {target}: no error field: {out}");
    }
    // The daemon still serves after the whole corpus.
    let (status, _) = get(&st, "/paths/0/1");
    assert_eq!(status, 200);
}

/// The determinism contract: for a fixed seed, every `/paths` body is
/// byte-identical before a fault and after the fault+repair cycle, and
/// identical across two freshly built daemons.
#[test]
fn paths_bytes_survive_a_fault_repair_cycle() {
    let st = state();
    let n = st.graph().num_nodes() as u32;
    let mut before = Vec::new();
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                let (status, body) = get(&st, &format!("/paths/{src}/{dst}"));
                assert_eq!(status, 200);
                before.push(body);
            }
        }
    }

    // Fault a real slice of the fabric (and prove it bit), then repair.
    let (status, body) = post(&st, "/faults", "{\"rate\":0.1,\"seed\":3}");
    assert_eq!(status, 200);
    let parsed = parse_json(&body).unwrap();
    assert!(
        parsed.get("affected_pairs").and_then(|v| v.as_f64()).unwrap() > 0.0,
        "fault plan must affect at least one pair: {body}"
    );
    let (status, _) = post(&st, "/repair", "");
    assert_eq!(status, 200);

    let mut i = 0;
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                let (status, body) = get(&st, &format!("/paths/{src}/{dst}"));
                assert_eq!(status, 200);
                assert_eq!(
                    body, before[i],
                    "pair ({src}, {dst}) changed bytes across fault+repair"
                );
                i += 1;
            }
        }
    }

    // And across daemons: a fresh instance renders the same bytes.
    let st2 = state();
    let (_, body) = get(&st2, "/paths/0/5");
    let (_, expected) = get(&st, "/paths/0/5");
    assert_eq!(body, expected, "fresh daemon differs for the same seed");
}

// --- real TCP ---------------------------------------------------------

/// Reads one HTTP/1.1 response off the stream: status code, headers
/// (lower-cased names), and the exact `Content-Length` body bytes.
fn read_response(reader: &mut BufReader<&TcpStream>) -> (u16, Vec<(String, String)>, String) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line.split(' ').nth(1).expect("status code").parse().expect("numeric status");
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).expect("header line");
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let (name, value) = h.split_once(':').expect("header colon");
        let (name, value) = (name.to_ascii_lowercase(), value.trim().to_string());
        if name == "content-length" {
            content_length = value.parse().expect("numeric content-length");
        }
        headers.push((name, value));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, headers, String::from_utf8(body).expect("utf-8 body"))
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

/// The daemon over real sockets: keep-alive request pipelining with
/// byte-identical repeat responses, malformed framing → 400 + close,
/// and a clean accept-loop exit on `POST /shutdown`.
#[test]
fn tcp_server_keepalive_malformed_and_clean_shutdown() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().unwrap();
    let st = Arc::new(state());
    let server = {
        let st = Arc::clone(&st);
        std::thread::spawn(move || serve::run(st, listener))
    };

    // Two identical queries over one keep-alive connection answer with
    // byte-identical bodies.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(&stream);
        for _ in 0..2 {
            (&stream)
                .write_all(b"GET /paths/0/5 HTTP/1.1\r\nHost: x\r\n\r\n")
                .expect("write request");
        }
        let (s1, h1, b1) = read_response(&mut reader);
        let (s2, _, b2) = read_response(&mut reader);
        assert_eq!((s1, s2), (200, 200));
        assert_eq!(header(&h1, "content-type"), Some("application/json"));
        assert_eq!(header(&h1, "connection"), Some("keep-alive"));
        assert_eq!(b1, b2, "keep-alive repeats must be byte-identical");
    }

    // Malformed request line: a 400 JSON error, then the server closes.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(&stream);
        (&stream).write_all(b"garbage\r\n\r\n").expect("write garbage");
        let (status, headers, body) = read_response(&mut reader);
        assert_eq!(status, 400, "{body}");
        assert_eq!(header(&headers, "connection"), Some("close"));
        assert!(parse_json(&body).unwrap().get("error").is_some());
        let mut rest = String::new();
        assert_eq!(reader.read_to_string(&mut rest).expect("read to close"), 0);
    }

    // Oversized body is refused up front (413), not buffered.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(&stream);
        (&stream)
            .write_all(b"POST /faults HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
            .expect("write oversized");
        let (status, _, _) = read_response(&mut reader);
        assert_eq!(status, 413);
    }

    // Shutdown: the accept loop drains and `run` returns.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(&stream);
        (&stream)
            .write_all(b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
            .expect("write shutdown");
        let (status, headers, body) = read_response(&mut reader);
        assert_eq!((status, body.as_str()), (200, "{\"stopping\":true}"));
        assert_eq!(header(&headers, "connection"), Some("close"));
    }
    server.join().expect("server thread").expect("clean shutdown");
    assert!(st.stopping());
}

/// A client that sends `POST /shutdown` and hangs up without reading
/// the answer makes the response write fail. The daemon must still wake
/// its accept loop and return, not block in `accept` forever.
#[test]
fn tcp_shutdown_from_a_client_that_hangs_up_still_stops_the_server() {
    for _ in 0..5 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().unwrap();
        let st = Arc::new(state());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        {
            let st = Arc::clone(&st);
            std::thread::spawn(move || {
                let _ = done_tx.send(serve::run(st, listener).is_ok());
            });
        }
        {
            let stream = TcpStream::connect(addr).expect("connect");
            (&stream)
                .write_all(b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
                .expect("write shutdown");
        }
        let returned = done_rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(returned, Ok(true), "serve::run must return after POST /shutdown");
        assert!(st.stopping());
    }
}

/// The soak harness under fault churn: every query answers 200, the
/// churn thread completes fault+repair cycles while the queries run,
/// and RSS growth stays inside the budget.
#[test]
fn soak_under_churn_answers_every_query_within_the_memory_budget() {
    let cfg = SoakConfig { queries: 50_000, threads: 2, churn_cycles: 2, ..SoakConfig::default() };
    let report = run_soak(&state(), &cfg);
    report.check().expect("no query errors and RSS growth inside the budget");
    assert_eq!(report.latency.count(), cfg.queries);
    assert!(report.churn_cycles > 0, "churn thread never ran");
}
