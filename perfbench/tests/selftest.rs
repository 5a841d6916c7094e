//! Self-tests of the benchmark's own machinery: the tail statistic, the
//! HTTP client's framing, the `/paths` checks (a server that returns one
//! wrong path must pull `ok_frac` below 1), and the metric declarations.

use jellyfish::JellyfishNetwork;
use jellyfish_obs::json::parse_json;
use jellyfish_perfbench::check::{check_paths_body, parse_paths_body, Adjacency};
use jellyfish_perfbench::client::{encode_request, read_response, Conn};
use jellyfish_perfbench::sat_sweep::check_repeat;
use jellyfish_perfbench::serve_paths::{drive, pristine_bodies, DriveConfig};
use jellyfish_perfbench::stats::{median, tail, TAIL_BEYOND};
use jellyfish_perfbench::{DigestBook, END_TO_END, PER_LAYER, WORKLOADS};
use jellyfish_routing::{PairSet, PathSelection, PathTable};
use jellyfish_topology::RrgParams;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::TcpListener;
use std::time::Duration;

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&values).expect("100 samples support a tail");
    assert_eq!(t.samples, 100);
    assert_eq!(t.value, 90.0, "ten samples (91..=100) lie beyond it");
    assert_eq!(t.percentile, 90.0);
    assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);

    let t = tail(&values[..11]).expect("11 samples are the minimum");
    assert_eq!((t.value, t.samples), (1.0, 11));
    assert!(tail(&values[..10]).is_none(), "10 samples leave no percentile with 10 beyond");

    let mut shuffled: Vec<f64> = (0..1000).map(|i| f64::from((i * 7919) % 1000)).collect();
    shuffled.reverse();
    let t = tail(&shuffled).expect("1000 samples");
    assert_eq!((t.value, t.percentile), (989.0, 99.0));
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
}

#[test]
fn responses_are_framed_by_content_length_on_a_kept_alive_stream() {
    let two = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\
                Connection: keep-alive\r\n\r\nhelloHTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\
                Connection: close\r\n\r\n{}";
    let mut r = Cursor::new(&two[..]);
    let mut body = Vec::new();
    let head = read_response(&mut r, &mut body).expect("first response");
    assert_eq!((head.status, head.keep_alive, &body[..]), (200, true, &b"hello"[..]));
    let head = read_response(&mut r, &mut body).expect("second response");
    assert_eq!((head.status, head.keep_alive, &body[..]), (404, false, &b"{}"[..]));
    assert!(read_response(&mut r, &mut body).is_err(), "end of stream");

    let truncated = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort";
    assert!(read_response(&mut Cursor::new(&truncated[..]), &mut body).is_err());
    let unframed = b"HTTP/1.1 200 OK\r\n\r\nbody";
    assert!(read_response(&mut Cursor::new(&unframed[..]), &mut body).is_err());
    let chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
    assert!(read_response(&mut Cursor::new(&chunked[..]), &mut body).is_err());

    let mut req = Vec::new();
    encode_request(&mut req, "POST", "/faults", "{\"rate\":0.02}");
    let text = String::from_utf8(req).expect("ASCII request");
    assert!(text.starts_with("POST /faults HTTP/1.1\r\n"));
    assert!(text.contains("\r\nContent-Length: 13\r\n\r\n{\"rate\":0.02}"));
}

#[test]
fn one_connection_carries_many_requests() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        // Accepts exactly one connection: a client that reconnected
        // would hang here and fail the test.
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(&stream);
        let mut writer = &stream;
        for i in 0..3 {
            let mut line = String::new();
            loop {
                line.clear();
                reader.read_line(&mut line).expect("read");
                if line == "\r\n" {
                    break;
                }
            }
            let body = format!("reply {i}");
            write!(writer, "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}", body.len())
                .expect("write");
        }
    });
    let mut conn = Conn::connect(addr).expect("connect");
    let mut body = Vec::new();
    for i in 0..3 {
        let head = conn.request("GET", "/x", "", &mut body).expect("request");
        assert_eq!(head.status, 200);
        assert_eq!(body, format!("reply {i}").into_bytes());
    }
    server.join().expect("server thread");
}

#[test]
fn paths_bodies_are_checked_against_the_graph() {
    let net = JellyfishNetwork::build(RrgParams::new(64, 11, 8), 1).expect("RRG");
    let table = PathTable::compute(net.graph(), PathSelection::REdKsp(8), &PairSet::AllPairs, 1);
    let adj = Adjacency::new(net.graph());
    let bodies = pristine_bodies(&table, 64);
    let good = &bodies[3 * 64 + 17];
    let parsed = parse_paths_body(good.as_bytes()).expect("pristine body parses");
    assert_eq!((parsed.src, parsed.dst), (3, 17));
    assert!(check_paths_body(good.as_bytes(), 3, 17, "rEDKSP(8)", 8, &adj).is_ok());
    assert!(check_paths_body(good.as_bytes(), 3, 18, "rEDKSP(8)", 8, &adj).is_err(), "wrong pair");
    assert!(check_paths_body(good.as_bytes(), 3, 17, "rEDKSP(8)", 2, &adj).is_err(), "too many");
    let looped = br#"{"src":3,"dst":17,"selection":"rEDKSP(8)","k":1,"paths":[[3,3,17]]}"#;
    assert!(check_paths_body(looped, 3, 17, "rEDKSP(8)", 8, &adj).is_err(), "not simple");
    let miscounted = br#"{"src":3,"dst":17,"selection":"rEDKSP(8)","k":2,"paths":[]}"#;
    assert!(check_paths_body(miscounted, 3, 17, "rEDKSP(8)", 8, &adj).is_err(), "k mismatch");
    assert!(parse_paths_body(b"{\"src\":3}").is_none());
}

/// Serves the daemon's endpoints from pristine bodies on `conns`
/// connections, except that the first `/paths` answer on every
/// connection lists a looping path.
fn stub_server(listener: TcpListener, bodies: Vec<String>, conns: usize) {
    let mut handlers = Vec::new();
    for stream in listener.incoming().take(conns) {
        let stream = stream.expect("accept");
        let bodies = bodies.clone();
        handlers.push(std::thread::spawn(move || {
            let mut reader = BufReader::new(&stream);
            let mut writer = &stream;
            let mut first = true;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                let target = line.split(' ').nth(1).unwrap_or("").to_string();
                let mut length = 0usize;
                loop {
                    let mut h = String::new();
                    if reader.read_line(&mut h).unwrap_or(0) == 0 {
                        return;
                    }
                    if h == "\r\n" {
                        break;
                    }
                    if let Some(v) = h.strip_prefix("Content-Length: ") {
                        length = v.trim().parse().unwrap_or(0);
                    }
                }
                let mut req_body = vec![0; length];
                if reader.read_exact(&mut req_body).is_err() {
                    return;
                }
                let body = match target.split('/').collect::<Vec<_>>()[..] {
                    ["", "paths", s, d] => {
                        let (s, d): (usize, usize) = (s.parse().unwrap(), d.parse().unwrap());
                        if std::mem::take(&mut first) {
                            format!(
                                "{{\"src\":{s},\"dst\":{d},\"selection\":\"rEDKSP(8)\",\"k\":1,\
                                 \"paths\":[[{s},{s},{d}]]}}"
                            )
                        } else {
                            bodies[s * 64 + d].clone()
                        }
                    }
                    ["", "faults"] => "{\"affected_pairs\":0}".to_string(),
                    ["", "repair"] => "{\"restored\":true,\"cleared_links\":0}".to_string(),
                    ["", "metrics"] => "jellyfish-metrics v1\n".to_string(),
                    _ => String::new(),
                };
                let reply = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                    body.len()
                );
                if writer.write_all(reply.as_bytes()).is_err() {
                    return;
                }
            }
        }));
    }
    for h in handlers {
        h.join().expect("stub connection thread");
    }
}

#[test]
fn a_wrong_path_pulls_ok_frac_below_one() {
    let net = JellyfishNetwork::build(RrgParams::new(64, 11, 8), 1).expect("RRG");
    let table = PathTable::compute(net.graph(), PathSelection::REdKsp(8), &PairSet::AllPairs, 1);
    let adj = Adjacency::new(net.graph());
    let bodies = pristine_bodies(&table, 64);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let stub = bodies.clone();
    let server = std::thread::spawn(move || stub_server(listener, stub, 2));

    let cfg = DriveConfig {
        duration: Duration::from_millis(600),
        seed: 1,
        selection: "rEDKSP(8)",
        k: 8,
        adj: &adj,
        pristine: &bodies,
        control_period: Duration::from_millis(200),
    };
    let out = drive(addr, &cfg);
    assert!(out.attempted > 10, "the drive ran: {out:?}");
    assert_eq!(out.attempted - out.ok, 2, "one wrong answer per connection: {:?}", out.errors);
    assert!((out.ok as f64 / out.attempted as f64) < 1.0);
    assert!(out.fault_ns.len() >= 2, "control rounds ran on connection 0");
    assert!(out.errors.iter().any(|e| e.contains("pristine")), "{:?}", out.errors);
    assert!(out.errors.iter().any(|e| e.contains("invalid path")), "{:?}", out.errors);
    server.join().expect("stub server");
}

#[test]
fn a_repeated_search_with_another_rate_fails_its_digest_check() {
    let mut book = DigestBook::default();
    assert!(check_repeat(&mut book, "KSP", 7, 0.42, &[]));
    assert!(check_repeat(&mut book, "KSP", 7, 0.42, &[]));
    assert!(!check_repeat(&mut book, "KSP", 7, 0.44, &[]));
    assert!(check_repeat(&mut book, "KSP", 8, 0.44, &[]));
    assert!(check_repeat(&mut book, "rKSP", 7, 0.44, &[]));
    assert_eq!(book.repeats, 2);
}

#[test]
fn declared_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = parse_json(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("array")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names("end_to_end"), declared(&END_TO_END));
    assert_eq!(names("per_layer"), declared(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
}
