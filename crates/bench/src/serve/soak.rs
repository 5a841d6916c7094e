//! Soak/load harness for the serve daemon.
//!
//! Drives the exact request path production traffic takes —
//! [`ServeState::dispatch`] — from many threads at once, with a churn
//! thread interleaving fault+repair cycles, and reports query latency
//! percentiles plus process RSS before/after/peak. Running in-process
//! (no sockets) keeps the harness deterministic and lets a single-core
//! CI box push ≥1M queries in seconds while still exercising the same
//! lock, cache, and rendering code the TCP layer uses.
//!
//! The long-running-stability contract is the memory budget: after
//! `queries` queries and `churn` fault/repair cycles, RSS growth must
//! stay under [`SoakConfig::rss_growth_budget`]. A leak in the disk
//! store, the LRU, or the per-request rendering shows up here as
//! monotonic growth and fails the budget check.

use super::ServeState;
use jellyfish_obs::LogHistogram;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Soak-run shape.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Total `GET /paths` queries across all worker threads.
    pub queries: u64,
    /// Worker thread count.
    pub threads: usize,
    /// Fault+repair cycles the churn thread interleaves (it stops early
    /// if the workers finish first; the report carries the real count).
    pub churn_cycles: u64,
    /// Link-failure rate for each churn cycle's fault plan.
    pub fault_rate: f64,
    /// Maximum tolerated RSS growth (bytes) over the run.
    pub rss_growth_budget: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            queries: 1_000_000,
            threads: 4,
            churn_cycles: 8,
            fault_rate: 0.02,
            // Generous headroom over allocator noise; a real per-request
            // or per-churn leak at 1M queries dwarfs this.
            rss_growth_budget: 64 << 20,
        }
    }
}

/// What a soak run measured.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Queries completed (== `SoakConfig::queries`).
    pub queries: u64,
    /// Queries that did not answer 200 (must be 0).
    pub errors: u64,
    /// Fault+repair cycles actually completed.
    pub churn_cycles: u64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Per-query dispatch latency, nanoseconds.
    pub latency: LogHistogram,
    /// RSS before the run, if the platform exposes it.
    pub rss_before: Option<u64>,
    /// RSS after the run.
    pub rss_after: Option<u64>,
    /// Peak RSS (VmHWM) after the run.
    pub rss_peak: Option<u64>,
    /// The budget the run was configured with.
    pub rss_growth_budget: u64,
}

impl SoakReport {
    /// (p50, p90, p99, p999) query latency in nanoseconds.
    pub fn percentiles_ns(&self) -> (u64, u64, u64, u64) {
        self.latency.percentiles()
    }

    /// RSS growth over the run (0 when the platform hides RSS).
    pub fn rss_growth_bytes(&self) -> u64 {
        match (self.rss_before, self.rss_after) {
            (Some(b), Some(a)) => a.saturating_sub(b),
            _ => 0,
        }
    }

    /// Queries per second over the whole run.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The memory-budget assertion: fails when the run leaked more than
    /// the configured growth budget, or when any query failed.
    pub fn check(&self) -> Result<(), String> {
        if self.errors > 0 {
            return Err(format!("{} of {} queries failed", self.errors, self.queries));
        }
        let growth = self.rss_growth_bytes();
        if growth > self.rss_growth_budget {
            return Err(format!(
                "RSS grew {} bytes over the soak ({} -> {}), budget {}",
                growth,
                self.rss_before.unwrap_or(0),
                self.rss_after.unwrap_or(0),
                self.rss_growth_budget,
            ));
        }
        Ok(())
    }
}

/// Cheap deterministic per-thread RNG (splitmix64) for pair selection.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Runs the soak: `cfg.threads` query workers hammering
/// `GET /paths/{src}/{dst}` over reused buffers while one churn thread
/// alternates `POST /faults` / `POST /repair`.
pub fn run_soak(state: &ServeState, cfg: &SoakConfig) -> SoakReport {
    let n = state.graph().num_nodes() as u64;
    assert!(n >= 2, "soak needs at least two switches");
    let threads = cfg.threads.max(1);
    let rss_before = super::resident_bytes();
    let errors = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let churned = AtomicU64::new(0);
    let started = Instant::now();

    let mut latency = LogHistogram::default();
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(threads);
        for t in 0..threads {
            // Spread the total across workers; first worker takes the
            // remainder so the sum is exact.
            let share = cfg.queries / threads as u64
                + if t == 0 { cfg.queries % threads as u64 } else { 0 };
            let errors = &errors;
            workers.push(scope.spawn(move || {
                let mut hist = LogHistogram::default();
                let mut rng = Mix(0xC0FFEE ^ (t as u64) << 32);
                let mut target = String::with_capacity(32);
                let mut out = String::with_capacity(4096);
                for _ in 0..share {
                    let src = rng.next() % n;
                    let dst = (src + 1 + rng.next() % (n - 1)) % n;
                    target.clear();
                    use std::fmt::Write as _;
                    let _ = write!(target, "/paths/{src}/{dst}");
                    let t0 = Instant::now();
                    let resp = state.dispatch("GET", &target, "", &mut out);
                    hist.record(t0.elapsed().as_nanos() as u64);
                    if resp.status != 200 {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                hist
            }));
        }

        // Churn thread: fault a seeded slice of links, then restore the
        // pristine table — the daemon's steady-state topology lifecycle.
        let churn = scope.spawn(|| {
            let mut out = String::with_capacity(256);
            let mut body = String::with_capacity(64);
            for cycle in 0..cfg.churn_cycles {
                if done.load(Ordering::Relaxed) {
                    break;
                }
                use std::fmt::Write as _;
                body.clear();
                let _ = write!(body, "{{\"rate\":{},\"seed\":{}}}", cfg.fault_rate, cycle + 1);
                let fault = state.dispatch("POST", "/faults", &body, &mut out);
                let repair = state.dispatch("POST", "/repair", "", &mut out);
                if fault.status != 200 || repair.status != 200 {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                churned.fetch_add(1, Ordering::Relaxed);
            }
        });

        for w in workers {
            if let Ok(hist) = w.join() {
                latency.merge(&hist);
            } else {
                errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        done.store(true, Ordering::Relaxed);
        let _ = churn.join();
    });

    let elapsed = started.elapsed();
    let report = SoakReport {
        queries: cfg.queries,
        errors: errors.load(Ordering::Relaxed),
        churn_cycles: churned.load(Ordering::Relaxed),
        elapsed,
        latency,
        rss_before,
        rss_after: super::resident_bytes(),
        rss_peak: super::peak_rss_bytes(),
        rss_growth_budget: cfg.rss_growth_budget,
    };
    let (p50, p90, p99, p999) = report.percentiles_ns();
    let mut g = jellyfish_obs::global();
    g.hist_merge("serve.soak.query_ns", &report.latency);
    g.gauge_set("serve.soak.p50_ns", p50 as f64);
    g.gauge_set("serve.soak.p90_ns", p90 as f64);
    g.gauge_set("serve.soak.p99_ns", p99 as f64);
    g.gauge_set("serve.soak.p999_ns", p999 as f64);
    g.gauge_set("serve.soak.qps", report.qps());
    if let Some(peak) = report.rss_peak {
        g.gauge_set("serve.soak.peak_rss_bytes", peak as f64);
    }
    report
}
