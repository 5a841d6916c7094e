//! `serve_paths`: a `jellytool serve` daemon in its own process, driven
//! over two keep-alive loopback connections in a closed loop.
//!
//! Connection 0 also runs one control round per period: `POST /faults`
//! (a seeded 2% link-fault plan), `POST /repair`, `GET /metrics`. Since
//! it never asks for paths between its own fault and repair, every
//! `/paths` answer it gets must equal, byte for byte, the pristine body
//! rendered from a table computed in this process. Connection 1's
//! answers may come from a faulted table and are checked structurally.

use crate::check::{check_paths_body, render_paths_body, Adjacency};
use crate::client::Conn;
use crate::stats::{median, mix, Rng};
use crate::{HostSpeed, Metric, OpLog, Outcome, RunArgs, Timed};
use jellyfish::JellyfishNetwork;
use jellyfish_bench::serve::{http, ServeState};
use jellyfish_routing::{PairSet, PathSelection, PathTable};
use jellyfish_topology::{NodeId, RrgParams};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The fabric served: RRG(64, 11, 8).
pub(crate) const PARAMS: (usize, usize, usize) = (64, 11, 8);
/// Paths per pair.
pub(crate) const K: usize = 8;
/// Link-fault rate of each control round.
pub(crate) const FAULT_RATE: f64 = 0.02;
/// Daemons started during set-up; `setup_s` is the median start time.
const SETUP_STARTS: usize = 5;
/// How long a daemon may take to announce its address.
const START_TIMEOUT: Duration = Duration::from_secs(60);

fn params() -> RrgParams {
    RrgParams::new(PARAMS.0, PARAMS.1, PARAMS.2)
}

fn selection() -> PathSelection {
    PathSelection::REdKsp(K)
}

/// A running `jellytool serve` process. Dropping it kills and reaps
/// the process if [`Daemon::shutdown`] was not called.
pub(crate) struct Daemon {
    child: Option<Child>,
    stderr: Option<JoinHandle<()>>,
    /// The address the daemon announced.
    pub addr: SocketAddr,
    /// Spawn to the `serving ... on http://ADDR` line.
    pub start: Duration,
}

impl Daemon {
    /// Spawns `jellytool serve` on an ephemeral loopback port with one
    /// compute thread and waits for its `serving` line on stderr.
    pub fn spawn(jellytool: &Path, seed: u64) -> io::Result<Self> {
        let (s, x, y) = PARAMS;
        let t0 = Instant::now();
        let mut child = Command::new(jellytool)
            .args(["serve", "--switches", &s.to_string(), "--ports", &x.to_string()])
            .args(["--net-ports", &y.to_string(), "--seed", &seed.to_string()])
            .args(["--selection", "redksp", "--k", &K.to_string(), "--addr", "127.0.0.1:0"])
            .env("RAYON_NUM_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the announcement, then keeps draining so the daemon can
        // never block on a full pipe; ends when the daemon exits.
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.split_once(" on http://").map(|(_, a)| a.to_string()) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send((addr, t0.elapsed()));
                    }
                }
            }
        });
        let mut daemon = Self {
            child: Some(child),
            stderr: Some(reader),
            addr: ([0, 0, 0, 0], 0).into(),
            start: Duration::ZERO,
        };
        let (addr, start) = rx.recv_timeout(START_TIMEOUT).map_err(|_| {
            io::Error::new(io::ErrorKind::TimedOut, "daemon did not announce its address")
        })?;
        daemon.addr = addr.trim().parse().map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad address {addr:?}"))
        })?;
        daemon.start = start;
        Ok(daemon)
    }

    /// The daemon's peak resident set (`VmHWM`) in bytes.
    pub fn peak_rss_bytes(&self) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        crate::proc_status_kib(&format!("/proc/{pid}/status"), "VmHWM:").map(|k| k * 1024)
    }

    /// Asks the daemon to stop (`POST /shutdown`) and reaps it; kills it
    /// if it has not exited within ten seconds.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut body = Vec::new();
        let asked = Conn::connect(self.addr)
            .and_then(|mut c| c.request("POST", "/shutdown", "", &mut body))
            .map(|h| h.status == 200);
        let clean = self.reap(Duration::from_secs(10))?;
        match (asked, clean) {
            (Ok(true), true) => Ok(()),
            (Err(e), _) => Err(e),
            _ => Err(io::Error::other("daemon did not shut down cleanly")),
        }
    }

    /// Waits up to `grace` for exit, then kills. True on a clean exit.
    fn reap(&mut self, grace: Duration) -> io::Result<bool> {
        let Some(mut child) = self.child.take() else { return Ok(true) };
        let deadline = Instant::now() + grace;
        let status = loop {
            if let Some(status) = child.try_wait()? {
                break Some(status);
            }
            if Instant::now() >= deadline {
                break None;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let clean = match status {
            Some(s) => s.success(),
            None => {
                let _ = child.kill();
                child.wait()?;
                false
            }
        };
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
        Ok(clean)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.reap(Duration::ZERO);
    }
}

/// What the load generator observed.
#[derive(Debug, Default)]
pub struct DriveOutcome {
    /// Latency of every `/paths` request, in nanoseconds.
    pub paths_ns: Vec<u64>,
    /// Latency of every `POST /faults`, in nanoseconds.
    pub fault_ns: Vec<u64>,
    /// Requests sent (all endpoints).
    pub attempted: u64,
    /// Requests whose answer passed its check.
    pub ok: u64,
    /// First few failures, for the log.
    pub errors: Vec<String>,
    /// Wall time of the drive.
    pub elapsed: Duration,
}

impl DriveOutcome {
    fn fail(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    fn merge(&mut self, other: DriveOutcome) {
        self.paths_ns.extend(other.paths_ns);
        self.fault_ns.extend(other.fault_ns);
        self.attempted += other.attempted;
        self.ok += other.ok;
        for e in other.errors {
            self.fail(e);
        }
    }
}

/// How a drive runs.
pub struct DriveConfig<'a> {
    /// Closed-loop duration.
    pub duration: Duration,
    /// Seed of the request mix and the fault plans.
    pub seed: u64,
    /// Selection name the answers must echo.
    pub selection: &'a str,
    /// Largest path count per answer.
    pub k: usize,
    /// Links of the served graph.
    pub adj: &'a Adjacency,
    /// Pristine `/paths` bodies, indexed `src * n + dst`.
    pub pristine: &'a [String],
    /// Spacing of the control rounds on connection 0.
    pub control_period: Duration,
}

/// The body of the `i`-th `POST /faults` of a drive seeded with `seed`.
pub(crate) fn fault_body(seed: u64, i: u64) -> String {
    format!("{{\"rate\":{FAULT_RATE},\"seed\":{}}}", mix(seed, 0xfa17 + i) % 1_000_000)
}

/// Runs the two-connection closed loop against `addr`.
pub fn drive(addr: SocketAddr, cfg: &DriveConfig<'_>) -> DriveOutcome {
    let start = Instant::now();
    let mut total = DriveOutcome::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2u64)
            .map(|conn| scope.spawn(move || drive_connection(addr, cfg, conn, start)))
            .collect();
        for w in workers {
            total.merge(w.join().expect("load thread panicked"));
        }
    });
    total.elapsed = start.elapsed();
    total
}

fn drive_connection(
    addr: SocketAddr,
    cfg: &DriveConfig<'_>,
    conn_id: u64,
    start: Instant,
) -> DriveOutcome {
    let mut out = DriveOutcome::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("connect: {e}"));
            return out;
        }
    };
    let n = cfg.adj.nodes() as u64;
    let mut rng = Rng::new(mix(cfg.seed, 1 + conn_id));
    let mut body = Vec::with_capacity(4096);
    let mut target = String::with_capacity(32);
    let mut next_control = cfg.control_period / 2;
    let mut round = 0u64;
    while start.elapsed() < cfg.duration {
        if conn_id == 0 && start.elapsed() >= next_control {
            next_control += cfg.control_period;
            if !control_round(&mut conn, cfg, round, &mut body, &mut out) {
                return out;
            }
            round += 1;
        }
        let src = rng.below(n);
        let dst = (src + 1 + rng.below(n - 1)) % n;
        target.clear();
        use std::fmt::Write as _;
        let _ = write!(target, "/paths/{src}/{dst}");
        out.attempted += 1;
        let t0 = Instant::now();
        let head = conn.request("GET", &target, "", &mut body);
        let ns = t0.elapsed().as_nanos() as u64;
        let head = match head {
            Ok(h) => h,
            Err(e) => {
                out.fail(format!("GET {target}: {e}"));
                return out;
            }
        };
        out.paths_ns.push(ns);
        let verdict = if head.status != 200 {
            Err(format!("status {}", head.status))
        } else if conn_id == 0 {
            // Connection 0 only ever sees the pristine table.
            let want = &cfg.pristine[(src * n + dst) as usize];
            if body == want.as_bytes() {
                Ok(())
            } else {
                Err("body differs from the pristine table".to_string())
            }
        } else {
            check_paths_body(&body, src, dst, cfg.selection, cfg.k, cfg.adj)
        };
        match verdict {
            Ok(()) => out.ok += 1,
            Err(e) => out.fail(format!("GET {target}: {e}")),
        }
    }
    out
}

/// One `POST /faults`, `POST /repair`, `GET /metrics` round. False when
/// the connection broke.
fn control_round(
    conn: &mut Conn,
    cfg: &DriveConfig<'_>,
    round: u64,
    body: &mut Vec<u8>,
    out: &mut DriveOutcome,
) -> bool {
    let fault = fault_body(cfg.seed, round);
    let steps: [(&str, &str, &str); 3] =
        [("POST", "/faults", &fault), ("POST", "/repair", ""), ("GET", "/metrics", "")];
    for (method, target, req) in steps {
        out.attempted += 1;
        let t0 = Instant::now();
        let head = match conn.request(method, target, req, body) {
            Ok(h) => h,
            Err(e) => {
                out.fail(format!("{method} {target}: {e}"));
                return false;
            }
        };
        if target == "/faults" {
            out.fault_ns.push(t0.elapsed().as_nanos() as u64);
        }
        let ok = head.status == 200
            && match target {
                "/faults" => contains(body, b"\"affected_pairs\":"),
                "/repair" => contains(body, b"\"restored\":true"),
                _ => body.starts_with(jellyfish_obs::METRICS_HEADER.as_bytes()),
            };
        if ok {
            out.ok += 1;
        } else {
            out.fail(format!("{method} {target}: status {}", head.status));
        }
    }
    true
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// Renders every pristine `/paths` body of `table`.
pub fn pristine_bodies(table: &PathTable, n: usize) -> Vec<String> {
    let name = selection().name();
    (0..(n * n) as u64)
        .map(|i| {
            let (s, d) = ((i / n as u64) as NodeId, (i % n as u64) as NodeId);
            if s == d {
                String::new()
            } else {
                render_paths_body(table, &name, s, d)
            }
        })
        .collect()
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / 1e6).collect()
}

/// Request latencies as an [`OpLog`]. They are not rescaled by host
/// speed: today they are dominated by a kernel timer, not the CPU.
fn latencies(ns: &[u64]) -> OpLog {
    let mut log = OpLog::default();
    for &v in ns {
        log.record(Timed::raw(v as f64 / 1e6), 1.0);
    }
    log
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let seed = args.seed;
    // Set-up: the daemon's start to its `serving` line, several times.
    let mut host = HostSpeed::default();
    let mut outcome_notes = Vec::new();
    let mut starts = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_STARTS {
        let (d, t) = host.time(|| Daemon::spawn(&args.jellytool, seed));
        let d = d.map_err(|e| format!("spawn daemon: {e}"))?;
        starts.push(d.start.as_secs_f64() * t.scale);
        if i + 1 == SETUP_STARTS {
            daemon = Some(d);
        } else {
            d.shutdown().map_err(|e| format!("set-up daemon: {e}"))?;
        }
    }
    let daemon = daemon.expect("at least one start");
    outcome_notes.push(host.summary());

    // The reference: the same table, computed and rendered here.
    let net = JellyfishNetwork::build(params(), seed).map_err(|e| e.to_string())?;
    let table = PathTable::compute(net.graph(), selection(), &PairSet::AllPairs, seed);
    let adj = Adjacency::new(net.graph());
    let pristine = pristine_bodies(&table, adj.nodes());
    let name = selection().name();
    let cfg = |duration, seed| DriveConfig {
        duration,
        seed,
        selection: &name,
        k: K,
        adj: &adj,
        pristine: &pristine,
        control_period: Duration::from_secs(1),
    };

    let mut outcome = Outcome { notes: outcome_notes, ..Outcome::default() };
    let full = Duration::from_secs_f64(args.seconds);
    let setup_s = median(&starts);
    let drive_result = if args.trace {
        traced(&daemon, args.seed, &cfg(full / 2, seed), &cfg(full / 2, mix(seed, 7)), &mut outcome)
    } else {
        let d = drive(daemon.addr, &cfg(full, seed));
        let peak = daemon.peak_rss_bytes().unwrap_or(0) as f64 / (1 << 20) as f64;
        let qps = d.paths_ns.len() as f64 / d.elapsed.as_secs_f64();
        crate::end_to_end(&mut outcome, setup_s, &latencies(&d.paths_ns), qps, peak).map(|()| d)
    };
    let shut = daemon.shutdown();
    let d = drive_result?;
    shut.map_err(|e| format!("daemon shutdown: {e}"))?;
    outcome.attempted = d.attempted;
    outcome.ok = d.ok;
    outcome.notes.extend(d.errors.iter().map(|e| format!("error {e}")));
    outcome.notes.push(format!(
        "serve_paths: {} /paths answers, {} fault rounds, {} requests checked",
        d.paths_ns.len(),
        d.fault_ns.len(),
        d.attempted
    ));
    Ok(outcome)
}

/// The traced run: half the time untraced, half with the daemon's trace
/// capture armed (`GET /trace`), then the in-process layer probes.
fn traced(
    daemon: &Daemon,
    seed: u64,
    plain_cfg: &DriveConfig<'_>,
    traced_cfg: &DriveConfig<'_>,
    outcome: &mut Outcome,
) -> Result<DriveOutcome, String> {
    let mut plain = drive(daemon.addr, plain_cfg);
    let mut ctl = Conn::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let mut body = Vec::new();
    let armed = ctl.request("GET", "/trace", "", &mut body).map_err(|e| e.to_string())?;
    let traced = drive(daemon.addr, traced_cfg);
    let drained = ctl.request("GET", "/trace", "", &mut body).map_err(|e| e.to_string())?;
    drop(ctl);
    if armed.status != 200 || drained.status != 200 {
        return Err("GET /trace failed".into());
    }
    let p50 = median(&ms(&plain.paths_ns));
    let probes = probe_layers(seed)?;
    let transport = p50 - (probes.parse_us + probes.dispatch_us + probes.frame_us) / 1e3;
    let m = &mut outcome.metrics;
    m.push(Metric::new("serve.http.parse_us", probes.parse_us, "us"));
    m.push(Metric::new("serve.dispatch.paths_us", probes.dispatch_us, "us"));
    m.push(Metric::new("serve.http.frame_us", probes.frame_us, "us"));
    m.push(Metric::new("serve.http.writes_per_response", probes.writes as f64, "count"));
    m.push(Metric::new("serve.transport_ms", transport, "ms"));
    m.push(Metric::new("serve.transport_share", transport / p50, "ratio"));
    m.push(Metric::new("serve.fault_round_ms", median(&ms(&plain.fault_ns)), "ms"));
    m.push(Metric::new("serve.dispatch.faults_ms", probes.faults_ms, "ms"));
    m.push(Metric::new("serve.dispatch.repair_us", probes.repair_us, "us"));
    m.push(Metric::new("routing.faults.affected_pairs", probes.affected, "count"));
    m.push(Metric::new("serve.state_build_ms", probes.state_build_ms, "ms"));
    crate::traced_summary(outcome, &latencies(&plain.paths_ns), &latencies(&traced.paths_ns));
    outcome.notes.push(format!(
        "serve_paths traced: client p50 {p50:.4} ms = parse {:.3} us + dispatch {:.3} us + \
         frame {:.3} us + transport {transport:.4} ms ({:.1}% of p50)",
        probes.parse_us,
        probes.dispatch_us,
        probes.frame_us,
        100.0 * transport / p50
    ));
    plain.merge(traced);
    Ok(plain)
}

/// Layer timings measured in this process with the daemon's own code.
struct Probes {
    parse_us: f64,
    dispatch_us: f64,
    frame_us: f64,
    writes: u64,
    faults_ms: f64,
    repair_us: f64,
    affected: f64,
    state_build_ms: f64,
}

/// A sink that counts `write` calls.
#[derive(Default)]
pub(crate) struct CountingWrite {
    /// `write` calls so far.
    pub writes: u64,
}

impl Write for CountingWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Requests per timed batch in the parse and dispatch probes.
const PROBE_BATCH: usize = 400;
/// Batches per probe; the probe reports the median batch mean.
const PROBE_BATCHES: usize = 15;

fn per_call_us(batches: &[f64], calls: usize) -> f64 {
    median(batches) / calls as f64 / 1e3
}

fn probe_layers(seed: u64) -> Result<Probes, String> {
    let mut builds = Vec::new();
    let mut state = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let s = ServeState::new(params(), seed, selection())?;
        builds.push(t0.elapsed().as_secs_f64() * 1e3);
        state = Some(s);
    }
    let state = state.expect("built");
    let n = PARAMS.0 as u64;
    let mut rng = Rng::new(mix(seed, 1));
    let targets: Vec<String> = (0..PROBE_BATCH)
        .map(|_| {
            let s = rng.below(n);
            format!("/paths/{s}/{}", (s + 1 + rng.below(n - 1)) % n)
        })
        .collect();

    // Dispatch: the pure handler on the same pair mix.
    let mut out = String::with_capacity(4096);
    let mut batches = Vec::new();
    for _ in 0..PROBE_BATCHES {
        let t0 = Instant::now();
        for t in &targets {
            let r = state.dispatch("GET", std::hint::black_box(t), "", &mut out);
            if r.status != 200 {
                return Err(format!("in-process GET {t}: {out}"));
            }
        }
        batches.push(t0.elapsed().as_nanos() as f64);
    }
    let dispatch_us = per_call_us(&batches, targets.len());
    let body = out.clone();

    // Framing into memory, and the writes one response costs.
    batches.clear();
    let mut sink = Vec::with_capacity(8192);
    for _ in 0..PROBE_BATCHES {
        let t0 = Instant::now();
        for _ in 0..PROBE_BATCH {
            sink.clear();
            http::write_response(&mut sink, 200, "application/json", &body, true)
                .map_err(|e| e.to_string())?;
            std::hint::black_box(&sink);
        }
        batches.push(t0.elapsed().as_nanos() as f64);
    }
    let frame_us = per_call_us(&batches, PROBE_BATCH);
    let mut counter = CountingWrite::default();
    http::write_response(&mut counter, 200, "application/json", &body, true)
        .map_err(|e| e.to_string())?;

    let parse_us = probe_parse(&targets)?;

    // Fault rounds in process, with the drive's fault bodies.
    let (mut faults, mut repairs, mut affected) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..5 {
        let t0 = Instant::now();
        let r = state.dispatch("POST", "/faults", &fault_body(seed, i), &mut out);
        faults.push(t0.elapsed().as_secs_f64() * 1e3);
        if r.status != 200 {
            return Err(format!("in-process POST /faults: {out}"));
        }
        affected.push(json_number(&out, "affected_pairs").ok_or("no affected_pairs")?);
        let t0 = Instant::now();
        let r = state.dispatch("POST", "/repair", "", &mut out);
        repairs.push(t0.elapsed().as_secs_f64() * 1e6);
        if r.status != 200 {
            return Err(format!("in-process POST /repair: {out}"));
        }
    }
    Ok(Probes {
        parse_us,
        dispatch_us,
        frame_us,
        writes: counter.writes,
        faults_ms: median(&faults),
        repair_us: median(&repairs),
        affected: median(&affected),
        state_build_ms: median(&builds),
    })
}

/// Times `http::read_request` on request bytes already sitting in a
/// loopback socket's receive buffer, so no network wait is included.
fn probe_parse(targets: &[String]) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut client = TcpStream::connect(listener.local_addr().map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let (server, _) = listener.accept().map_err(|e| e.to_string())?;
    let mut bytes = Vec::new();
    let mut one = Vec::new();
    for t in targets {
        crate::client::encode_request(&mut one, "GET", t, "");
        bytes.extend_from_slice(&one);
    }
    let mut reader = BufReader::new(&server);
    let mut batches = Vec::new();
    for _ in 0..PROBE_BATCHES {
        client.write_all(&bytes).map_err(|e| e.to_string())?;
        // Wait until the whole batch is buffered on the receiving side.
        let mut peek = vec![0u8; bytes.len()];
        while server.peek(&mut peek).map_err(|e| e.to_string())? < bytes.len() {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        for _ in targets {
            match http::read_request(&mut reader) {
                Ok(Ok(Some(_))) => {}
                other => return Err(format!("read_request: {other:?}")),
            }
        }
        batches.push(t0.elapsed().as_nanos() as f64);
    }
    Ok(per_call_us(&batches, targets.len()))
}

/// Reads `"key":<number>` out of a flat JSON object.
fn json_number(body: &str, key: &str) -> Option<f64> {
    let rest = &body[body.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}
