//! Deterministic sharded parallel execution of the flit simulator.
//!
//! [`ParallelSimulator`] partitions the routers into contiguous shards,
//! one per worker thread, and advances every shard in lockstep: each
//! worker runs a full [`Simulator`] narrowed to its own router/host
//! range, and boundary traffic — flits granted onto a link whose
//! downstream router lives on another shard, and credit returns owed to
//! a remote sender — is exchanged exactly once per cycle through
//! double-buffered inbox channels at a sense-reversing spin barrier.
//!
//! # Why once-per-cycle exchange is exact
//!
//! Every channel has latency >= 1 cycle (the paper uses 10), so a flit
//! granted in cycle `t` cannot affect any router before cycle `t + 1`.
//! Messages carry the *absolute* arrival cycle and are filed into the
//! receiving shard's delay lines at the start of `t + 1`, landing in
//! the same slot the serial engine would have used. Within a slot the
//! insertion order is irrelevant: an output port grants at most one
//! packet per cycle, so a `(link, vc)` queue receives at most one flit
//! per cycle, and credit increments commute. No speculation, no
//! rollback — the barrier alone recovers the serial schedule.
//!
//! # Why fixed-seed runs are byte-identical at any thread count
//!
//! Randomness is drawn from per-host and per-router streams seeded by
//! [`crate::sim::stream_seed`], so the values a host or router consumes
//! are a function of the simulated state alone, never of how routers
//! are partitioned or which worker executes first. All cross-shard
//! state is exchanged at the barrier, measurement windows close under a
//! global decision taken by one thread from the merged integer latency
//! sums, and histograms merge by bucket addition — so the [`RunResult`]
//! (percentiles, `measured_cycles`, saturation verdict, everything) is
//! bit-for-bit the serial result for every shard count, including 1.

#[cfg(feature = "audit")]
use crate::audit::{self, AuditConfig, AuditEvent, Auditor, Violation};
use crate::config::SimConfig;
use crate::mechanism::Mechanism;
#[cfg(feature = "obs")]
use crate::observe::{ObserveConfig, SimMetrics, SimObserver};
use crate::sim::{CredMsg, FlitMsg, Simulator};
use crate::stats::{FlowStats, RunResult, SampleAccumulator};
use jellyfish_obs::LogHistogram;
use jellyfish_routing::PathTable;
#[cfg(feature = "audit")]
use jellyfish_topology::LinkId;
use jellyfish_topology::{FaultPlan, Graph, NodeId, RrgParams};
use jellyfish_traffic::{PacketDestinations, ScenarioPlan};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Process-wide default thread count installed by the CLI `--threads`
/// flag; `0` means "not installed".
static INSTALLED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-wide default worker-thread count for simulator
/// runs, the way the CLI `--threads` flag reaches simulators buried
/// inside sweeps. Later calls overwrite earlier ones; `0` uninstalls.
pub fn install_threads(n: usize) {
    INSTALLED_THREADS.store(n, Ordering::Relaxed);
}

/// Resolves the worker-thread count for a run. Precedence: an explicit
/// nonzero request, then [`install_threads`], then the
/// `JELLYFISH_SIM_THREADS` environment variable, then 1 (serial).
/// Parallel execution is strictly opt-in: results are identical either
/// way, so the default favors the engine with zero coordination cost.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        if n > 0 {
            return n;
        }
    }
    let installed = INSTALLED_THREADS.load(Ordering::Relaxed);
    if installed > 0 {
        return installed;
    }
    if let Ok(v) = std::env::var("JELLYFISH_SIM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    1
}

/// Decision codes published by the coordinator at special cycles.
const DEC_RUN: u8 = 0;
const DEC_SAT: u8 = 1;
const DEC_VIOL: u8 = 2;

/// Sense-reversing spin barrier with panic poisoning: when a worker
/// unwinds, the drop guard poisons the barrier so siblings panic out of
/// their spin loop instead of hanging a CI job forever.
struct SpinBarrier {
    total: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        Self {
            total,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    fn wait(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!("shard barrier poisoned: a sibling worker panicked");
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Release);
            self.generation.store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if self.poisoned.load(Ordering::Acquire) {
                    panic!("shard barrier poisoned: a sibling worker panicked");
                }
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }
}

/// Poisons the barrier if the owning worker unwinds.
struct PoisonGuard<'b>(&'b SpinBarrier);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// One shard's state: the narrowed simulator plus the per-shard slices
/// of the run accumulators that the coordinator merges at the end.
struct ShardCell<'a> {
    sim: Simulator<'a>,
    acc: SampleAccumulator,
    generated: u64,
    ejected: u64,
    /// Measured cycles since the last window close (identical across
    /// shards; kept per cell so the coordinator can reset it on close).
    window_cycles: u32,
}

/// Double-buffered inbox lane: slot `t % 2` receives messages sent
/// during cycle `t`; the receiver drains slot `(t + 1) % 2` (cycle
/// `t - 1`'s messages) at the start of cycle `t`. The single barrier
/// per cycle is enough: a sender cannot reach cycle `t + 1` (and write
/// the slot being drained) before the receiver passes barrier `t`,
/// which is after its drain.
type FlitLane = [Mutex<Vec<FlitMsg>>; 2];
type CredLane = [Mutex<Vec<CredMsg>>; 2];

/// Everything the workers share for one run.
struct Shared<'s, 'a> {
    cells: &'s [Mutex<ShardCell<'a>>],
    /// `flit_in[receiver][sender]` boundary packet lanes.
    flit_in: &'s [Vec<FlitLane>],
    /// `cred_in[receiver][sender]` boundary credit-return lanes.
    cred_in: &'s [Vec<CredLane>],
    barrier: &'s SpinBarrier,
    /// Per-shard overflow flags, double-buffered by cycle parity (the
    /// writer of slot `t + 2` has passed barrier `t + 1`, so every
    /// reader of slot `t` is done with it).
    overflow: &'s [[AtomicBool; 2]],
    /// Coordinator verdict at special cycles (audit/window-close).
    decision: &'s AtomicU8,
    #[cfg_attr(not(feature = "audit"), allow(dead_code))]
    violation: &'s Mutex<Option<String>>,
    audit_enabled: bool,
    cfg: SimConfig,
    #[cfg_attr(not(any(feature = "audit", feature = "obs")), allow(dead_code))]
    graph: &'a Graph,
    #[cfg_attr(not(feature = "audit"), allow(dead_code))]
    params: RrgParams,
    #[cfg_attr(not(feature = "audit"), allow(dead_code))]
    shard_of: &'s [u16],
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    bounds: &'s [(NodeId, NodeId)],
    #[cfg(feature = "obs")]
    has_observer: bool,
    #[cfg(feature = "obs")]
    obs_stride: u32,
}

/// Coordinator-only state (thread 0).
struct CoordState<'o> {
    #[cfg(feature = "audit")]
    auditor: Option<&'o mut Auditor>,
    #[cfg(feature = "obs")]
    observer: Option<&'o mut SimObserver>,
    /// Scratch for assembling the full credit array for the observer.
    #[cfg(feature = "obs")]
    credits: Vec<u16>,
    _pd: std::marker::PhantomData<&'o ()>,
}

/// The sharded parallel engine. Mirrors the [`Simulator`] builder API
/// and produces byte-identical [`RunResult`]s for a fixed seed at any
/// thread count.
pub struct ParallelSimulator<'a> {
    cells: Vec<Mutex<ShardCell<'a>>>,
    bounds: Vec<(NodeId, NodeId)>,
    shard_of: Arc<Vec<u16>>,
    graph: &'a Graph,
    params: RrgParams,
    #[cfg(feature = "obs")]
    observer: Option<SimObserver>,
    #[cfg(feature = "obs")]
    obs_stride: u32,
    #[cfg(feature = "audit")]
    merged_auditor: Option<Auditor>,
    /// Final cycle of the completed run (for [`Self::take_metrics`]).
    final_cycle: u32,
}

impl<'a> ParallelSimulator<'a> {
    /// Creates a sharded simulator over `threads` workers (clamped to
    /// `[1, switches]`). Arguments mirror [`Simulator::new`].
    ///
    /// # Panics
    /// Panics on the same inconsistent arguments as [`Simulator::new`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        graph: &'a Graph,
        params: RrgParams,
        table: &'a PathTable,
        sp_table: Option<&'a PathTable>,
        mechanism: Mechanism,
        pattern: PacketDestinations,
        rate: f64,
        cfg: SimConfig,
        threads: usize,
    ) -> Self {
        let n = graph.num_nodes();
        let shards = threads.max(1).min(n.max(1));
        let mut bounds = Vec::with_capacity(shards);
        let mut shard_of = vec![0u16; n];
        for s in 0..shards {
            let lo = (s * n / shards) as NodeId;
            let hi = ((s + 1) * n / shards) as NodeId;
            for r in lo..hi {
                shard_of[r as usize] = s as u16;
            }
            bounds.push((lo, hi));
        }
        let shard_of = Arc::new(shard_of);
        let cells = (0..shards)
            .map(|s| {
                let mut sim = Simulator::new(
                    graph,
                    params,
                    table,
                    sp_table,
                    mechanism,
                    pattern.clone(),
                    rate,
                    cfg,
                );
                let (lo, hi) = bounds[s];
                sim.set_shard(s as u16, shards, lo, hi, Arc::clone(&shard_of));
                Mutex::new(ShardCell {
                    sim,
                    acc: SampleAccumulator::default(),
                    generated: 0,
                    ejected: 0,
                    window_cycles: 0,
                })
            })
            .collect();
        Self {
            cells,
            bounds,
            shard_of,
            graph,
            params,
            #[cfg(feature = "obs")]
            observer: None,
            #[cfg(feature = "obs")]
            obs_stride: 1,
            #[cfg(feature = "audit")]
            merged_auditor: audit::global_config().map(Auditor::new),
            final_cycle: 0,
        }
    }

    /// Attaches a fault schedule to every shard (each applies the same
    /// events and rebuilds the same degraded table — repair is
    /// deterministic in `(seed, cycle)` — but drains only the wires and
    /// buffers it owns). Must be called before [`Self::run`].
    pub fn with_fault_plan(mut self, plan: &'a FaultPlan) -> Self {
        self.cells = self
            .cells
            .into_iter()
            .map(|m| {
                let c = m.into_inner().expect("no prior panic");
                Mutex::new(ShardCell {
                    sim: c.sim.with_fault_plan(plan),
                    acc: c.acc,
                    generated: c.generated,
                    ejected: c.ejected,
                    window_cycles: c.window_cycles,
                })
            })
            .collect();
        self
    }

    /// Attaches a traffic scenario to every shard (each advances the
    /// same phase schedule but injects and tracks only the hosts it
    /// owns). Must be called before [`Self::run`].
    pub fn with_scenario(mut self, plan: &'a ScenarioPlan) -> Self {
        self.cells = self
            .cells
            .into_iter()
            .map(|m| {
                let c = m.into_inner().expect("no prior panic");
                Mutex::new(ShardCell {
                    sim: c.sim.with_scenario(plan),
                    acc: c.acc,
                    generated: c.generated,
                    ejected: c.ejected,
                    window_cycles: c.window_cycles,
                })
            })
            .collect();
        self
    }

    /// Merged flow-level accounting across all shards. `None` unless a
    /// scenario was attached. Call after [`Self::run`].
    ///
    /// Flow generation, completion, and FCT recording all happen on a
    /// single shard (the source shard generates, the destination shard
    /// ejects), so sums and histogram merges are exact; a dropped flow
    /// is counted once even if its packets died on several shards.
    pub fn flow_stats(&self) -> Option<FlowStats> {
        let mut generated = 0u64;
        let mut completed = 0u64;
        let mut fct_sum = 0u64;
        let mut fct_hist = LogHistogram::new();
        let mut dropped: HashSet<u64> = HashSet::new();
        for m in &self.cells {
            let cell = m.lock().expect("no prior panic");
            let sc = cell.sim.scenario.as_ref()?;
            generated += sc.flows_generated;
            completed += sc.flows_completed;
            fct_sum += sc.fct_sum;
            fct_hist.merge(&sc.fct_hist);
            dropped.extend(sc.dropped_flows.iter().copied());
        }
        let dropped = dropped.len() as u64;
        Some(FlowStats {
            generated,
            completed,
            dropped,
            live: generated - completed - dropped,
            fct_sum,
            fct_hist,
        })
    }

    /// Number of virtual channels in use (hop-indexed).
    pub fn num_vcs(&self) -> usize {
        self.cells[0].lock().expect("no prior panic").sim.num_vcs
    }

    /// Attaches a per-cycle occupancy/credit-stall sampler, exactly as
    /// [`Simulator::with_observer`]: one observer samples the assembled
    /// global credit state at the top of each stride cycle. Observation
    /// never perturbs the run.
    #[cfg(feature = "obs")]
    pub fn with_observer(mut self, cfg: ObserveConfig) -> Self {
        let (links, vcs) = {
            let cell = self.cells[0].lock().expect("no prior panic");
            (cell.sim.graph.num_links(), cell.sim.num_vcs)
        };
        self.obs_stride = cfg.stride;
        self.observer = Some(SimObserver::new(cfg, links, vcs));
        self
    }

    /// Detaches the observer and returns its report. `None` if no
    /// observer was attached. Call after [`Self::run`].
    #[cfg(feature = "obs")]
    pub fn take_metrics(&mut self) -> Option<SimMetrics> {
        let obs = self.observer.take()?;
        let measured =
            u64::from(self.final_cycle.saturating_sub(self.cells_cfg().warmup_cycles)).max(1);
        let links = self.graph.num_links();
        let mut link_sends = vec![0u64; links];
        let mut hist = LogHistogram::new();
        for m in &self.cells {
            let cell = m.lock().expect("no prior panic");
            for (acc, &s) in link_sends.iter_mut().zip(&cell.sim.link_sends) {
                *acc += s;
            }
            hist.merge(&cell.sim.lat_hist);
        }
        let utils = link_sends.iter().map(|&s| s as f64 / measured as f64).collect();
        Some(obs.into_metrics(utils, hist))
    }

    /// Attaches the runtime invariant auditor to every shard (flight
    /// recording stays shard-local; the invariant checks run globally
    /// over the merged state each cycle). Must be called before
    /// [`Self::run`].
    #[cfg(feature = "audit")]
    pub fn with_auditor(mut self, cfg: AuditConfig) -> Self {
        for m in &self.cells {
            let mut cell = m.lock().expect("no prior panic");
            assert_eq!(cell.sim.cycle, 0, "attach auditors before running");
            cell.sim.auditor = Some(Auditor::new(cfg));
        }
        self.merged_auditor = Some(Auditor::new(cfg));
        self
    }

    /// Test hook (`audit` feature): corrupts one credit counter on its
    /// owning shard so seeded-violation tests can verify the merged
    /// auditor catches it.
    #[cfg(feature = "audit")]
    #[doc(hidden)]
    pub fn audit_corrupt_credit(&mut self, link: LinkId, vc: u16) {
        let owner = self.shard_of[self.graph.link_src(link) as usize] as usize;
        self.cells[owner].lock().expect("no prior panic").sim.audit_corrupt_credit(link, vc);
    }

    /// Test hook (`audit` feature): inflates one router's load counter
    /// on its owning shard.
    #[cfg(feature = "audit")]
    #[doc(hidden)]
    pub fn audit_corrupt_router_load(&mut self, router: NodeId) {
        let owner = self.shard_of[router as usize] as usize;
        self.cells[owner].lock().expect("no prior panic").sim.audit_corrupt_router_load(router);
    }

    /// Test hook (`audit` feature): permanently blocks a host's
    /// ejection port on its owning shard.
    #[cfg(feature = "audit")]
    #[doc(hidden)]
    pub fn audit_block_ejection(&mut self, host: u32) {
        let owner = self.shard_of[self.params.switch_of_host(host as usize) as usize] as usize;
        self.cells[owner].lock().expect("no prior panic").sim.audit_block_ejection(host);
    }

    /// Test hook (`audit` feature): inflates one shard's completed-flow
    /// counter so seeded-violation tests can verify the merged
    /// flow-conservation check catches it.
    #[cfg(feature = "audit")]
    #[doc(hidden)]
    pub fn audit_phantom_completion(&mut self) {
        self.cells[0].lock().expect("no prior panic").sim.audit_phantom_completion();
    }

    /// Test hook (`audit` feature): records an FCT sample on one shard
    /// with no matching completed flow.
    #[cfg(feature = "audit")]
    #[doc(hidden)]
    pub fn audit_spurious_fct(&mut self) {
        self.cells[0].lock().expect("no prior panic").sim.audit_spurious_fct();
    }

    fn cells_cfg(&self) -> SimConfig {
        self.cells[0].lock().expect("no prior panic").sim.cfg
    }

    /// Runs the configured warmup + measurement schedule across all
    /// shards and returns the merged result — byte-identical to
    /// [`Simulator::run`] for the same seed.
    ///
    /// # Panics
    /// Panics with the serial engine's structured [`Violation`]
    /// rendering (a `String` payload) when auditing detects a broken
    /// invariant, and propagates any worker panic after poisoning the
    /// barrier.
    pub fn run(&mut self) -> RunResult {
        let _run_span = jellyfish_obs::span("flitsim.parallel.run");
        let shards = self.cells.len();
        let cfg = self.cells_cfg();
        let audit_enabled = {
            #[cfg(feature = "audit")]
            {
                self.cells[0].lock().expect("no prior panic").sim.auditor.is_some()
            }
            #[cfg(not(feature = "audit"))]
            {
                false
            }
        };
        let make_flit_lane = || [Mutex::new(Vec::new()), Mutex::new(Vec::new())];
        let make_cred_lane = || [Mutex::new(Vec::new()), Mutex::new(Vec::new())];
        let flit_in: Vec<Vec<FlitLane>> =
            (0..shards).map(|_| (0..shards).map(|_| make_flit_lane()).collect()).collect();
        let cred_in: Vec<Vec<CredLane>> =
            (0..shards).map(|_| (0..shards).map(|_| make_cred_lane()).collect()).collect();
        let barrier = SpinBarrier::new(shards);
        let overflow: Vec<[AtomicBool; 2]> =
            (0..shards).map(|_| [AtomicBool::new(false), AtomicBool::new(false)]).collect();
        let decision = AtomicU8::new(DEC_RUN);
        let violation: Mutex<Option<String>> = Mutex::new(None);
        let shared = Shared {
            cells: &self.cells,
            flit_in: &flit_in,
            cred_in: &cred_in,
            barrier: &barrier,
            overflow: &overflow,
            decision: &decision,
            violation: &violation,
            audit_enabled,
            cfg,
            graph: self.graph,
            params: self.params,
            shard_of: &self.shard_of,
            bounds: &self.bounds,
            #[cfg(feature = "obs")]
            has_observer: self.observer.is_some(),
            #[cfg(feature = "obs")]
            obs_stride: self.obs_stride,
        };
        #[cfg(feature = "obs")]
        let credit_slots = self.graph.num_links() * self.num_vcs_uncontended();
        let mut coord = CoordState {
            #[cfg(feature = "audit")]
            auditor: self.merged_auditor.as_mut(),
            #[cfg(feature = "obs")]
            observer: self.observer.as_mut(),
            #[cfg(feature = "obs")]
            credits: vec![0; credit_slots],
            _pd: std::marker::PhantomData,
        };

        let (final_t, exit_sat) = std::thread::scope(|scope| {
            let sh = &shared;
            for s in 1..shards {
                scope.spawn(move || worker(sh, s, None));
            }
            worker(sh, 0, Some(&mut coord))
        });

        if let Some(msg) = violation.into_inner().expect("no prior panic") {
            // Reproduce the serial engine's `panic!("{violation}")`: a
            // `String` payload carrying the structured diagnostic.
            std::panic::panic_any(msg);
        }

        self.final_cycle = final_t;
        let leftover_flits = count_inbox_flits(&flit_in);
        self.finalize(cfg, final_t, exit_sat, leftover_flits)
    }

    /// `num_vcs` without the pub accessor's lock-in-lock hazard.
    #[cfg(feature = "obs")]
    fn num_vcs_uncontended(&self) -> usize {
        self.cells[0].lock().expect("no prior panic").sim.num_vcs
    }

    /// Merges the per-shard accumulators into the exact serial
    /// [`RunResult`].
    fn finalize(
        &mut self,
        cfg: SimConfig,
        final_t: u32,
        exit_sat: bool,
        leftover_flits: u64,
    ) -> RunResult {
        let mut guards: Vec<MutexGuard<'_, ShardCell<'a>>> =
            self.cells.iter().map(|m| m.lock().expect("no prior panic")).collect();
        let mut acc = SampleAccumulator::default();
        for g in &guards {
            acc.merge_from(&g.acc);
        }
        // An early exit can leave a partially measured window open;
        // close it exactly as the serial engine does.
        if guards[0].window_cycles > 0 {
            acc.end_window();
        }
        let generated: u64 = guards.iter().map(|g| g.generated).sum();
        let ejected: u64 = guards.iter().map(|g| g.ejected).sum();
        debug_assert_eq!(acc.total_ejected(), ejected);

        let sample_latencies = acc.window_means();
        let stalled = merged_stalled(&guards, &cfg, final_t, leftover_flits);
        let overflowed = guards.iter().any(|g| g.sim.overflowed);
        let saturated = exit_sat
            || overflowed
            || sample_latencies
                .iter()
                .any(|m| m.is_nan() && stalled || *m > cfg.saturation_latency);
        #[cfg(all(feature = "audit", feature = "obs"))]
        if let Some(aud) = &self.merged_auditor {
            let _span = jellyfish_obs::span("flitsim.audit.report");
            let events: u64 = guards
                .iter()
                .map(|g| g.sim.auditor.as_ref().map_or(0, |a| a.events_recorded()))
                .sum();
            let mut reg = jellyfish_obs::global();
            reg.counter_add("flitsim.audit.cycles", aud.cycles_checked());
            reg.counter_add("flitsim.audit.events", events);
        }
        let measured_cycles = u64::from(final_t.saturating_sub(cfg.warmup_cycles));
        let meas_cycles = measured_cycles.max(1) as f64;
        let links = self.graph.num_links();
        let mut link_sends = vec![0u64; links];
        let mut hop_hist = vec![0u64; guards[0].sim.hop_hist.len()];
        let mut lat_hist = LogHistogram::new();
        let mut min_lat = u64::MAX;
        let mut max_lat = 0u64;
        let mut dropped = 0u64;
        let mut rerouted = 0u64;
        for g in guards.iter_mut() {
            for (acc_s, &s) in link_sends.iter_mut().zip(&g.sim.link_sends) {
                *acc_s += s;
            }
            for (acc_h, &h) in hop_hist.iter_mut().zip(&g.sim.hop_hist) {
                *acc_h += h;
            }
            lat_hist.merge(&g.sim.lat_hist);
            min_lat = min_lat.min(g.sim.min_lat);
            max_lat = max_lat.max(g.sim.max_lat);
            dropped += g.sim.dropped;
            rerouted += g.sim.rerouted;
        }
        let utils: Vec<f64> = link_sends.iter().map(|&s| s as f64 / meas_cycles).collect();
        let (p50, p90, p99, p999) = lat_hist.percentiles();
        RunResult {
            // Scenario steady phases retune each shard's injection rate
            // mid-run; report the rate the run ended on (every shard
            // holds the same value — without a scenario it is the
            // constructor's, matching the serial engine either way).
            offered: guards[0].sim.rate,
            accepted: ejected as f64 / (self.params.num_hosts() as f64 * meas_cycles),
            avg_latency: acc.overall_mean(),
            sample_latencies,
            saturated,
            generated,
            ejected,
            measured_cycles,
            min_latency: if min_lat == u64::MAX { 0 } else { min_lat },
            max_latency: max_lat,
            p50_latency: p50,
            p90_latency: p90,
            p99_latency: p99,
            p999_latency: p999,
            hop_histogram: hop_hist,
            mean_link_utilization: utils.iter().sum::<f64>() / utils.len().max(1) as f64,
            max_link_utilization: utils.iter().cloned().fold(0.0, f64::max),
            dropped,
            rerouted,
        }
    }
}

/// Total boundary packets currently in flight between shards.
fn count_inbox_flits(flit_in: &[Vec<FlitLane>]) -> u64 {
    let mut n = 0u64;
    for row in flit_in {
        for lane in row {
            for slot in lane {
                n += slot.lock().expect("no prior panic").len() as u64;
            }
        }
    }
    n
}

/// The merged `stalled_in_network` verdict at cycle `cycle`: traffic
/// has flowed, nothing ejected within the zero-load flight bound, and
/// live packets sit in the network proper (shard arenas plus boundary
/// inboxes) rather than only in source queues.
fn merged_stalled(
    guards: &[MutexGuard<'_, ShardCell<'_>>],
    cfg: &SimConfig,
    cycle: u32,
    inbox_flits: u64,
) -> bool {
    let ejected_total: u64 = guards.iter().map(|g| g.sim.ejected_total).sum();
    if ejected_total == 0 {
        return false;
    }
    let num_vcs = guards[0].sim.num_vcs;
    let flight = (cfg.channel_latency as u64 + cfg.packet_flits as u64) * (num_vcs as u64 + 1);
    let last_ejection = guards.iter().map(|g| g.sim.last_ejection).max().unwrap_or(0);
    if u64::from(cycle.saturating_sub(last_ejection)) <= flight {
        return false;
    }
    let src_queued: usize = guards
        .iter()
        .map(|g| g.sim.src_q.iter().map(std::collections::VecDeque::len).sum::<usize>())
        .sum();
    let live: u64 = guards.iter().map(|g| g.sim.arena.live() as u64).sum::<u64>() + inbox_flits;
    live > src_queued as u64
}

/// One worker's lockstep loop over shard `s`. Thread 0 (`coord` set)
/// additionally runs the global sections: merged audit, window-close
/// decisions, and observer sampling. Returns `(final_cycle,
/// early_saturated)` — identical on every worker by construction.
fn worker(sh: &Shared<'_, '_>, s: usize, mut coord: Option<&mut CoordState<'_>>) -> (u32, bool) {
    let _guard = PoisonGuard(sh.barrier);
    let shards = sh.cells.len();
    let total = sh.cfg.total_cycles();
    let warmup = sh.cfg.warmup_cycles;
    let mut bw_hist = LogHistogram::new();
    #[cfg(feature = "obs")]
    let time_barrier = jellyfish_obs::trace::enabled();
    #[cfg(not(feature = "obs"))]
    let time_barrier = false;
    let mut t: u32 = 0;
    let mut exit_sat = false;
    let final_t = loop {
        if t >= total {
            break t;
        }
        let measuring = t >= warmup;
        // Observer sampling at the top of the cycle: the coordinator
        // assembles the global credit state while every worker is
        // parked between barriers, so the sample equals the serial
        // engine's top-of-cycle view (in-transit credit returns are
        // unapplied in both engines at this point).
        #[cfg(feature = "obs")]
        if sh.has_observer && measuring && (t - warmup).is_multiple_of(sh.obs_stride) {
            if let Some(c) = coord.as_deref_mut() {
                sample_observer(sh, c, t);
            }
            sh.barrier.wait();
        }
        let special = sh.audit_enabled
            || (measuring && (t + 1 - warmup).is_multiple_of(sh.cfg.sample_cycles));
        {
            let mut cell = sh.cells[s].lock().expect("no prior panic");
            let cell = &mut *cell;
            #[cfg(feature = "obs")]
            let _shard_span = (time_barrier
                && t.is_multiple_of(jellyfish_obs::trace::cycle_stride()))
            .then(|| jellyfish_obs::trace::span("flitsim.shard.cycle"));
            // 0. Drain last cycle's boundary messages into the delay
            //    lines, before faults apply (so no message is in
            //    transit when wires are cut).
            let rx = (t as usize + 1) % 2;
            for x in 0..shards {
                if x == s {
                    continue;
                }
                let msgs =
                    std::mem::take(&mut *sh.flit_in[s][x][rx].lock().expect("no prior panic"));
                for m in msgs {
                    cell.sim.accept_flit(m);
                }
                let creds =
                    std::mem::take(&mut *sh.cred_in[s][x][rx].lock().expect("no prior panic"));
                for m in creds {
                    cell.sim.accept_credit(m);
                }
            }
            // 1-3. The serial per-cycle schedule over this shard.
            cell.sim.apply_pending_faults();
            cell.sim.apply_pending_scenario();
            cell.sim.deliver_due();
            cell.sim.generate(measuring, &mut cell.generated);
            cell.sim.allocate(measuring, &mut cell.acc, &mut cell.ejected);
            // 4. Flush boundary traffic into the receivers' inboxes.
            let tx = t as usize % 2;
            for d in 0..shards {
                if d == s {
                    continue;
                }
                if !cell.sim.out_flits[d].is_empty() {
                    sh.flit_in[d][s][tx]
                        .lock()
                        .expect("no prior panic")
                        .append(&mut cell.sim.out_flits[d]);
                }
                if !cell.sim.out_creds[d].is_empty() {
                    sh.cred_in[d][s][tx]
                        .lock()
                        .expect("no prior panic")
                        .append(&mut cell.sim.out_creds[d]);
                }
            }
            if measuring {
                cell.window_cycles += 1;
            }
            sh.overflow[s][tx].store(cell.sim.overflowed, Ordering::Release);
            if !special {
                // On special cycles the bump is deferred so the merged
                // audit sees the serial engine's pre-increment cycle.
                cell.sim.cycle = t + 1;
            }
        }
        if time_barrier {
            let start = std::time::Instant::now();
            sh.barrier.wait();
            bw_hist.record(start.elapsed().as_nanos() as u64);
        } else {
            sh.barrier.wait();
        }
        let tx = t as usize % 2;
        if special {
            if let Some(c) = coord.as_deref_mut() {
                special_section(sh, c, t);
            }
            sh.barrier.wait();
            let mut cell = sh.cells[s].lock().expect("no prior panic");
            cell.sim.cycle = t + 1;
        }
        // Exit logic in the serial engine's precedence: a violation
        // verdict ends the run (the coordinator panics after the
        // join), then source-queue overflow, then a saturated window.
        if special && sh.decision.load(Ordering::Acquire) == DEC_VIOL {
            break t + 1;
        }
        let any_overflow = (0..shards).any(|i| sh.overflow[i][tx].load(Ordering::Acquire));
        if any_overflow {
            exit_sat = true;
            break t + 1;
        }
        if special && sh.decision.load(Ordering::Acquire) == DEC_SAT {
            exit_sat = true;
            break t + 1;
        }
        t += 1;
    };
    if bw_hist.count() > 0 {
        jellyfish_obs::global().hist_merge("flitsim.parallel.barrier_wait_ns", &bw_hist);
    }
    (final_t, exit_sat)
}

/// Coordinator work at a special cycle (between the two barriers, with
/// every worker parked): merged invariant audit, then the global
/// window-close decision from the merged integer latency sums.
fn special_section(sh: &Shared<'_, '_>, coord: &mut CoordState<'_>, t: u32) {
    let mut guards: Vec<MutexGuard<'_, ShardCell<'_>>> =
        sh.cells.iter().map(|m| m.lock().expect("no prior panic")).collect();
    #[cfg(feature = "audit")]
    if sh.audit_enabled {
        if let Some(a) = coord.auditor.as_deref_mut() {
            let verdict = merged_audit(sh, a, &mut guards, t);
            a.bump_cycles_checked();
            if let Err(v) = verdict {
                jellyfish_obs::journal::publish(
                    u64::from(v.cycle),
                    jellyfish_obs::journal::EventKind::AuditViolation {
                        invariant: v.invariant.to_string(),
                    },
                );
                *sh.violation.lock().expect("no prior panic") = Some(format!("{v}"));
                sh.decision.store(DEC_VIOL, Ordering::Release);
                return;
            }
        }
    }
    #[cfg(not(feature = "audit"))]
    let _ = &coord;
    let warmup = sh.cfg.warmup_cycles;
    let closes = t >= warmup && (t + 1 - warmup).is_multiple_of(sh.cfg.sample_cycles);
    let tx = t as usize % 2;
    let any_overflow = (0..sh.cells.len()).any(|i| sh.overflow[i][tx].load(Ordering::Acquire));
    if closes && !any_overflow {
        // Serial order: the overflow break precedes the window close,
        // so an overflow at a window boundary leaves the window open
        // for the trailing close in finalize.
        let mut sum = 0u64;
        let mut count = 0u64;
        for g in guards.iter_mut() {
            g.acc.end_window();
            g.window_cycles = 0;
            let (s, c) = g.acc.last_window_raw().unwrap_or((0, 0));
            sum += s;
            count += c;
        }
        let worst = if count == 0 { f64::NAN } else { sum as f64 / count as f64 };
        let inbox_flits = count_inbox_flits(sh.flit_in);
        let sat = worst > sh.cfg.saturation_latency
            || (worst.is_nan() && merged_stalled(&guards, &sh.cfg, t + 1, inbox_flits));
        sh.decision.store(if sat { DEC_SAT } else { DEC_RUN }, Ordering::Release);
    } else {
        sh.decision.store(DEC_RUN, Ordering::Release);
    }
}

/// Assembles the global credit array from the per-shard owned ranges
/// (links of routers `[lo, hi)` are CSR-contiguous) and feeds the
/// coordinator's observer, exactly as the serial top-of-cycle sample.
#[cfg(feature = "obs")]
fn sample_observer(sh: &Shared<'_, '_>, coord: &mut CoordState<'_>, t: u32) {
    let Some(obs) = coord.observer.as_deref_mut() else { return };
    let guards: Vec<MutexGuard<'_, ShardCell<'_>>> =
        sh.cells.iter().map(|m| m.lock().expect("no prior panic")).collect();
    let nv = guards[0].sim.num_vcs;
    let n = sh.graph.num_nodes();
    let links = sh.graph.num_links();
    coord.credits.resize(links * nv, 0);
    for (g, &(lo, hi)) in guards.iter().zip(sh.bounds) {
        if lo == hi {
            continue;
        }
        let llo = sh.graph.out_links(lo).start as usize * nv;
        let lhi =
            if hi as usize == n { links * nv } else { sh.graph.out_links(hi).start as usize * nv };
        coord.credits[llo..lhi].copy_from_slice(&g.sim.credits[llo..lhi]);
    }
    obs.maybe_sample(
        t - sh.cfg.warmup_cycles,
        &coord.credits,
        sh.cfg.vc_buffer,
        sh.cfg.packet_flits,
        nv,
    );
}

/// The global invariant checks over the merged shard state, replicating
/// the serial `audit_invariants` order and diagnostic formats. Shard
/// flight recorders are first replayed into the merged ring in cycle
/// order so a violation dump reads as one coherent timeline.
#[cfg(feature = "audit")]
fn merged_audit(
    sh: &Shared<'_, '_>,
    a: &mut Auditor,
    cells: &mut [MutexGuard<'_, ShardCell<'_>>],
    cycle: u32,
) -> Result<(), Violation> {
    // Replay per-shard rings (each holds exactly this cycle's events —
    // they are drained every audited cycle) into the merged recorder.
    let mut events: Vec<AuditEvent> = Vec::new();
    let mut anchor = 0u32;
    for c in cells.iter_mut() {
        if let Some(sa) = c.sim.auditor.as_mut() {
            events.extend(sa.drain_ring());
            anchor = anchor.max(sa.last_progress());
        }
    }
    events.sort_by_key(AuditEvent::cycle); // stable: shard order within a cycle
    for ev in events {
        a.record(ev);
    }
    a.set_last_progress(a.last_progress().max(anchor));

    let inbox_flits = count_inbox_flits(sh.flit_in);
    // Packet conservation: every packet ever generated is ejected,
    // dropped, or live in a shard arena / boundary inbox...
    let generated_total: u64 = cells.iter().map(|c| c.sim.generated_total).sum();
    let ejected_total: u64 = cells.iter().map(|c| c.sim.ejected_total).sum();
    let dropped: u64 = cells.iter().map(|c| c.sim.dropped).sum();
    let live: u64 = cells.iter().map(|c| c.sim.arena.live() as u64).sum::<u64>() + inbox_flits;
    if generated_total != ejected_total + dropped + live {
        return Err(a.violation(
            "packet-conservation",
            cycle,
            format!(
                "generated {generated_total} != ejected {ejected_total} + dropped {dropped} \
                 + live {live}"
            ),
        ));
    }
    // ...and every live packet sits in exactly one queue (a boundary
    // inbox counts as the wire it is crossing).
    let src_queued: u64 =
        cells.iter().map(|c| c.sim.src_q.iter().map(|q| q.len() as u64).sum::<u64>()).sum();
    let buffered: u64 =
        cells.iter().map(|c| c.sim.in_buf.iter().map(|q| q.len() as u64).sum::<u64>()).sum();
    let on_wire: u64 =
        cells.iter().map(|c| c.sim.chan.iter().map(|s| s.len() as u64).sum::<u64>()).sum::<u64>()
            + inbox_flits;
    if live != src_queued + buffered + on_wire {
        return Err(a.violation(
            "packet-location",
            cycle,
            format!(
                "live {live} != source-queued {src_queued} + buffered {buffered} \
                 + on-wire {on_wire}"
            ),
        ));
    }
    // Flow conservation and FCT accounting across shards: a flow is
    // generated on its source shard and completes on its destination
    // shard, but its packets may sit queued — or die — anywhere, so the
    // live/dropped sets only exist merged. The serial check order and
    // diagnostic formats are replicated exactly.
    if cells[0].sim.scenario.is_some() {
        let mut flows_generated = 0u64;
        let mut flows_completed = 0u64;
        let mut fct_count = 0u64;
        let mut dropped_set: HashSet<u64> = HashSet::new();
        for c in cells.iter() {
            let sc = c.sim.scenario.as_ref().expect("every shard carries the scenario");
            flows_generated += sc.flows_generated;
            flows_completed += sc.flows_completed;
            fct_count += sc.fct_hist.count();
            dropped_set.extend(sc.dropped_flows.iter().copied());
        }
        let mut live_flows: HashSet<u64> = HashSet::new();
        let mut note = |uid: u64| {
            if uid != u64::MAX && !dropped_set.contains(&uid) {
                live_flows.insert(uid);
            }
        };
        for c in cells.iter() {
            let sc = c.sim.scenario.as_ref().expect("every shard carries the scenario");
            for q in &sc.active {
                for f in q {
                    note(f.uid);
                }
            }
            for &uid in sc.flow_eject.keys() {
                note(uid);
            }
            for q in &c.sim.src_q {
                for &pid in q {
                    note(c.sim.arena.flow(pid));
                }
            }
            for q in &c.sim.in_buf {
                for &pid in q {
                    note(c.sim.arena.flow(pid));
                }
            }
            for slot in &c.sim.chan {
                for &(pid, _) in slot {
                    note(c.sim.arena.flow(pid));
                }
            }
        }
        for row in sh.flit_in {
            for lane in row {
                for slot in lane {
                    for m in slot.lock().expect("no prior panic").iter() {
                        note(m.flow);
                    }
                }
            }
        }
        let flows_live = live_flows.len() as u64;
        let flows_dropped = dropped_set.len() as u64;
        if flows_generated != flows_completed + flows_dropped + flows_live {
            return Err(a.violation(
                "flow-conservation",
                cycle,
                format!(
                    "flows generated {flows_generated} != completed {flows_completed} \
                     + dropped {flows_dropped} + live {flows_live}"
                ),
            ));
        }
        if fct_count != flows_completed {
            return Err(a.violation(
                "fct-accounting",
                cycle,
                format!(
                    "{fct_count} FCT sample(s) recorded for {flows_completed} \
                     completed flow(s)"
                ),
            ));
        }
    }
    // Credit conservation per live (link, vc). The credit counter is
    // read from the link sender's owning shard (other shards hold the
    // untouched initial value); buffered/in-flight tallies sum across
    // shards and boundary inboxes (non-owned entries are empty).
    let num_vcs = cells[0].sim.num_vcs;
    let nq = cells[0].sim.in_buf.len();
    a.reset_scratch(nq);
    for c in cells.iter() {
        for slot in &c.sim.chan {
            for &(_, qi) in slot {
                a.chan_in_flight[qi as usize] += 1;
            }
        }
        for slot in &c.sim.cred {
            for &qi in slot {
                a.cred_pending[qi as usize] += 1;
            }
        }
    }
    for row in sh.flit_in {
        for lane in row {
            for slot in lane {
                for m in slot.lock().expect("no prior panic").iter() {
                    a.chan_in_flight[m.qi as usize] += 1;
                }
            }
        }
    }
    for row in sh.cred_in {
        for lane in row {
            for slot in lane {
                for m in slot.lock().expect("no prior panic").iter() {
                    a.cred_pending[m.qi as usize] += 1;
                }
            }
        }
    }
    let flits = sh.cfg.packet_flits as u64;
    for qi in 0..nq {
        let link = (qi / num_vcs) as LinkId;
        if let Some(view) = &cells[0].sim.fault_view {
            if !view.link_is_live(link) {
                continue;
            }
        }
        let src_cell = sh.shard_of[sh.graph.link_src(link) as usize] as usize;
        let dst_cell = sh.shard_of[sh.graph.link_dst(link) as usize] as usize;
        let credits = cells[src_cell].sim.credits[qi] as u64;
        let in_buf_len = cells[dst_cell].sim.in_buf[qi].len();
        let occupancy = in_buf_len as u64 + a.chan_in_flight[qi] as u64 + a.cred_pending[qi] as u64;
        let have = credits + flits * occupancy;
        if have != sh.cfg.vc_buffer as u64 {
            let (u, v) = (sh.graph.link_src(link), sh.graph.link_dst(link));
            return Err(a.violation(
                "credit-conservation",
                cycle,
                format!(
                    "link {link} ({u}->{v}) vc {}: credits {} + {flits} flit(s) x \
                     (buffered {} + on-wire {} + pending-returns {}) = {have}, \
                     want vc_buffer {}",
                    qi % num_vcs,
                    cells[src_cell].sim.credits[qi],
                    in_buf_len,
                    a.chan_in_flight[qi],
                    a.cred_pending[qi],
                    sh.cfg.vc_buffer
                ),
            ));
        }
    }
    // vc_occ bitmask agrees with input-buffer emptiness (checked on the
    // buffer's owning shard).
    let links = sh.graph.num_links();
    for link in 0..links {
        let own = sh.shard_of[sh.graph.link_dst(link as LinkId) as usize] as usize;
        let c = &cells[own];
        for vc in 0..num_vcs {
            let qi = link * num_vcs + vc;
            let bit = c.sim.vc_occ[link] & (1 << vc) != 0;
            if bit == c.sim.in_buf[qi].is_empty() {
                return Err(a.violation(
                    "occupancy-mask",
                    cycle,
                    format!(
                        "link {link} vc {vc}: vc_occ bit {bit} but buffer holds {} packet(s)",
                        c.sim.in_buf[qi].len()
                    ),
                ));
            }
        }
    }
    // rtr_load agrees with queue emptiness (checked on the router's
    // owning shard, which holds its input buffers and source queues).
    for r in 0..sh.graph.num_nodes() as NodeId {
        cells[sh.shard_of[r as usize] as usize].sim.audit_router_load(a, r)?;
    }
    // Route validity for every queued packet, walked in the serial
    // order: source queues by host, input buffers by queue index, then
    // wires (shard delay lines, then boundary inboxes).
    for h in 0..sh.params.num_hosts() {
        let own = sh.shard_of[sh.params.switch_of_host(h) as usize] as usize;
        let c = &cells[own];
        for &pid in &c.sim.src_q[h] {
            c.sim.audit_packet(a, pid, None, Some(h as u32))?;
        }
    }
    for qi in 0..nq {
        let own = sh.shard_of[sh.graph.link_dst((qi / num_vcs) as LinkId) as usize] as usize;
        let c = &cells[own];
        for &pid in &c.sim.in_buf[qi] {
            c.sim.audit_packet(a, pid, Some((qi as u32, false)), None)?;
        }
    }
    for c in cells.iter() {
        for slot in &c.sim.chan {
            for &(pid, qi) in slot {
                c.sim.audit_packet(a, pid, Some((qi, true)), None)?;
            }
        }
    }
    for row in sh.flit_in {
        for lane in row {
            for slot in lane {
                for m in slot.lock().expect("no prior panic").iter() {
                    audit_boundary_flit(sh, a, m, num_vcs, cells, cycle)?;
                }
            }
        }
    }
    // Forward-progress watchdog over the merged recorder.
    if live > 0 && a.stalled(cycle) {
        return Err(a.violation(
            "forward-progress",
            cycle,
            format!(
                "no grant, ejection, or drop for {} cycles with {live} live packet(s) \
                 — deadlock/livelock",
                a.stall_cycles(cycle)
            ),
        ));
    }
    Ok(())
}

/// Route checks for a packet crossing a shard boundary (the message
/// carries its route, so the checks mirror the serial on-wire case).
#[cfg(feature = "audit")]
fn audit_boundary_flit(
    sh: &Shared<'_, '_>,
    a: &mut Auditor,
    m: &FlitMsg,
    num_vcs: usize,
    cells: &[MutexGuard<'_, ShardCell<'_>>],
    cycle: u32,
) -> Result<(), Violation> {
    let link = (m.qi / num_vcs as u32) as LinkId;
    let vc = m.qi as usize % num_vcs;
    let hop = m.hop as usize;
    if hop != vc + 1 {
        return Err(a.violation(
            "route-validity",
            cycle,
            format!("boundary pkt on link {link} vc {vc}: hop {hop} != vc + 1"),
        ));
    }
    if hop >= m.path.len() || m.path[hop] != sh.graph.link_dst(link) {
        return Err(a.violation(
            "route-validity",
            cycle,
            format!(
                "boundary pkt on link {link} (-> {}) but its route puts hop {hop} at {:?}",
                sh.graph.link_dst(link),
                m.path.get(hop)
            ),
        ));
    }
    if let Some(view) = &cells[0].sim.fault_view {
        if !view.link_is_live(link) {
            return Err(a.violation(
                "route-validity",
                cycle,
                format!("boundary pkt flying on dead link {link}"),
            ));
        }
    }
    let hops_total = m.path.len().saturating_sub(1);
    if hops_total > num_vcs {
        return Err(a.violation(
            "route-validity",
            cycle,
            format!(
                "boundary pkt route of {hops_total} hops exceeds the {num_vcs} \
                 hop-indexed VCs"
            ),
        ));
    }
    for w in m.path[hop..].windows(2) {
        if sh.graph.link_id(w[0], w[1]).is_none() {
            return Err(a.violation(
                "route-validity",
                cycle,
                format!("boundary pkt route uses nonexistent edge {} -> {}", w[0], w[1]),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util;
    use jellyfish_routing::PathSelection;

    #[test]
    fn resolve_threads_precedence() {
        // Explicit beats everything.
        assert_eq!(resolve_threads(Some(3)), 3);
        // Installed beats the default.
        install_threads(2);
        assert_eq!(resolve_threads(None), 2);
        assert_eq!(resolve_threads(Some(5)), 5);
        install_threads(0);
        // Env override is read only when nothing else is set; the
        // variable itself is exercised by the integration suite (test
        // processes share the environment, so don't mutate it here).
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn spin_barrier_synchronizes_and_poisons() {
        let b = SpinBarrier::new(2);
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                b.wait();
                hits.fetch_add(1, Ordering::SeqCst);
                b.wait();
            });
            b.wait();
            b.wait();
            assert_eq!(hits.load(Ordering::SeqCst), 1);
        });
        b.poison();
        assert!(std::panic::catch_unwind(|| b.wait()).is_err());
    }

    #[test]
    fn shard_bounds_partition_the_routers() {
        let p = RrgParams::new(12, 6, 4);
        let g = test_util::graph(p, 21);
        let t = test_util::all_pairs_table(p, 21, PathSelection::Ksp(4), 0);
        for threads in [1, 3, 5, 12, 64] {
            let sim = ParallelSimulator::new(
                &g,
                p,
                &t,
                None,
                Mechanism::Random,
                PacketDestinations::Uniform { num_hosts: p.num_hosts() },
                0.1,
                SimConfig::paper(),
                threads,
            );
            let covered: usize = sim.bounds.iter().map(|&(lo, hi)| (hi - lo) as usize).sum();
            assert_eq!(covered, 12);
            assert!(sim.bounds.iter().all(|&(lo, hi)| lo < hi), "{:?}", sim.bounds);
            assert_eq!(sim.cells.len(), threads.min(12));
            for (s, &(lo, hi)) in sim.bounds.iter().enumerate() {
                for r in lo..hi {
                    assert_eq!(sim.shard_of[r as usize] as usize, s);
                }
            }
        }
    }

    #[test]
    fn two_shards_match_serial_exactly() {
        let p = RrgParams::new(12, 6, 4);
        let g = test_util::graph(p, 21);
        let t = test_util::all_pairs_table(p, 21, PathSelection::REdKsp(4), 0);
        let pattern = PacketDestinations::Uniform { num_hosts: p.num_hosts() };
        let cfg = SimConfig {
            warmup_cycles: 100,
            sample_cycles: 100,
            num_samples: 3,
            ..SimConfig::paper()
        };
        let serial =
            Simulator::new(&g, p, &t, None, Mechanism::KspAdaptive, pattern.clone(), 0.15, cfg)
                .run();
        for threads in [1, 2, 4] {
            let par = ParallelSimulator::new(
                &g,
                p,
                &t,
                None,
                Mechanism::KspAdaptive,
                pattern.clone(),
                0.15,
                cfg,
                threads,
            )
            .run();
            assert_eq!(par, serial, "thread count {threads} diverged");
        }
    }
}
