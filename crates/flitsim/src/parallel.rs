//! The simulator's run loop: [`Simulator`] and its lockstep shards.
//!
//! A [`Simulator`] partitions the routers into contiguous shards — one
//! unless [`Simulator::with_threads`] asks for more — and runs one worker
//! per shard, the first on the calling thread. Each worker advances its
//! shard through the stages of a cycle, and boundary traffic — flits
//! granted onto a link whose downstream router lives on another shard,
//! and credit returns owed to a remote sender — is exchanged exactly once
//! per cycle through double-buffered inbox channels at a
//! sense-reversing spin barrier. A lone shard owns every router, so it
//! has nothing to exchange and its barrier never waits: a serial run is
//! the one-shard case of the same loop.
//!
//! # Why once-per-cycle exchange is exact
//!
//! Every channel has latency >= 1 cycle (the paper uses 10), so a flit
//! granted in cycle `t` cannot affect any router before cycle `t + 1`.
//! Messages carry the *absolute* arrival cycle and are filed into the
//! receiving shard's delay lines at the start of `t + 1`, landing in
//! the same slot a one-shard run would have used. Within a slot the
//! insertion order is irrelevant: an output port grants at most one
//! packet per cycle, so a `(link, vc)` queue receives at most one flit
//! per cycle, and credit increments commute. No speculation, no
//! rollback — the barrier alone recovers the one-shard schedule.
//!
//! # Why fixed-seed runs are byte-identical at any shard count
//!
//! Randomness is drawn from per-host and per-router streams seeded by
//! `sim::stream_seed`, so the values a host or router consumes
//! are a function of the simulated state alone, never of how routers
//! are partitioned or which worker executes first. All cross-shard
//! state is exchanged at the barrier, measurement windows close under a
//! global decision taken by one thread from the merged integer latency
//! sums, and histograms merge by bucket addition — so the [`RunResult`]
//! (percentiles, `measured_cycles`, saturation verdict, everything) is
//! bit-for-bit the same for every shard count.

#[cfg(feature = "audit")]
use crate::audit::{self, AuditConfig, AuditEvent, Auditor, Violation};
use crate::config::SimConfig;
use crate::mechanism::Mechanism;
#[cfg(feature = "obs")]
use crate::observe::{ObserveConfig, SimMetrics, SimObserver};
use crate::sim::{CredMsg, FlitMsg, ScenarioState, Shard};
use crate::stats::{FlowStats, RunResult, SampleAccumulator};
use jellyfish_obs::LogHistogram;
use jellyfish_routing::PathTable;
#[cfg(feature = "audit")]
use jellyfish_topology::LinkId;
use jellyfish_topology::{FaultPlan, Graph, NodeId, RrgParams};
use jellyfish_traffic::{PacketDestinations, ScenarioPlan};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, AtomicUsize, Ordering};
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

/// Resolves the worker-thread (shard) count for a run. Precedence: an
/// explicit nonzero request, then [`install_threads`], then the
/// `JELLYFISH_SIM_THREADS` environment variable, then 1. More shards are
/// strictly opt-in: results are identical either way, so the default is
/// the one shard with no cross-shard exchange to pay for.
///
/// # Panics
/// Panics when `JELLYFISH_SIM_THREADS` is set to anything but an
/// integer >= 1 — the values the CLI's `--threads` rejects — rather
/// than quietly running on one shard.
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
    let Some(v) = std::env::var_os("JELLYFISH_SIM_THREADS") else { return 1 };
    match v.to_str().and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => panic!("JELLYFISH_SIM_THREADS must be an integer >= 1, got {v:?}"),
    }
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
        if self.total == 1 {
            return; // nobody to wait for
        }
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

/// Double-buffered inbox lane, by the parity of the executed-cycle
/// count `step` (the cycle number itself skips over quiescent
/// stretches): slot `step % 2` receives messages sent during that
/// cycle, and the receiver drains slot `(step + 1) % 2` (the previous
/// executed cycle's messages) at the start of the next. The single
/// barrier per cycle is enough: a sender cannot reach step `k + 1`
/// (and write the slot being drained) before the receiver passes
/// barrier `k`, which is after its drain.
type FlitLane = [Mutex<Vec<FlitMsg>>; 2];
type CredLane = [Mutex<Vec<CredMsg>>; 2];

/// Everything the workers share for one run.
struct Shared<'s, 'a> {
    cells: &'s [Mutex<Shard<'a>>],
    /// `flit_in[receiver][sender]` boundary packet lanes.
    flit_in: &'s [Vec<FlitLane>],
    /// `cred_in[receiver][sender]` boundary credit-return lanes.
    cred_in: &'s [Vec<CredLane>],
    barrier: &'s SpinBarrier,
    /// Per-shard overflow flags, double-buffered by step parity (the
    /// writer of step `k + 2`'s slot has passed barrier `k + 1`, so
    /// every reader of step `k`'s slot is done with it).
    overflow: &'s [[AtomicBool; 2]],
    /// Per-shard quiet-until cycles (see `Shard::quiet_until`), double
    /// buffered like `overflow`: every worker jumps to their minimum.
    quiet: &'s [[AtomicU32; 2]],
    /// Quiescent stretches may be skipped: no auditor checks, and no
    /// observer samples, every cycle.
    may_skip: bool,
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

/// One simulation run: a (topology, path table, mechanism, traffic,
/// offered load) configuration advanced cycle by cycle.
///
/// The routers are split into shards advanced in lockstep — one shard
/// by default, more with [`Self::with_threads`] — and a fixed seed
/// produces byte-identical [`RunResult`]s at any shard count.
pub struct Simulator<'a> {
    shards: Vec<Mutex<Shard<'a>>>,
    /// Router range `[lo, hi)` of each shard.
    bounds: Vec<(NodeId, NodeId)>,
    /// Owning shard of every switch.
    shard_of: Arc<Vec<u16>>,
    graph: &'a Graph,
    params: RrgParams,
    cfg: SimConfig,
    /// Per-cycle occupancy/credit-stall sampler, attached via
    /// [`Self::with_observer`].
    #[cfg(feature = "obs")]
    observer: Option<SimObserver>,
    /// Per-cycle invariant auditor over the merged shard state, attached
    /// via [`Self::with_auditor`] or the global
    /// [`crate::audit::install_global`] configuration.
    #[cfg(feature = "audit")]
    auditor: Option<Auditor>,
    /// Quiescent cycles the last [`Self::run`] skipped.
    skipped: u64,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator.
    ///
    /// `sp_table` must be provided (all-pairs, single shortest path) when
    /// `mechanism` is [`Mechanism::VanillaUgal`].
    ///
    /// # Panics
    /// Panics on inconsistent arguments (missing sp_table, invalid
    /// config, graph/params mismatch).
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
    ) -> Self {
        let shard = Shard::new(graph, params, table, sp_table, mechanism, pattern, rate, cfg);
        let n = graph.num_nodes();
        Self {
            shards: vec![Mutex::new(shard)],
            bounds: vec![(0, n as NodeId)],
            shard_of: Arc::new(vec![0; n]),
            graph,
            params,
            cfg,
            #[cfg(feature = "obs")]
            observer: None,
            #[cfg(feature = "audit")]
            auditor: audit::global_config().map(Auditor::new),
            skipped: 0,
        }
    }

    /// Splits the routers into `threads` contiguous shards (clamped to
    /// `[1, switches]`), each advanced by its own worker thread. Results
    /// are byte-identical at any count. Every shard starts as a copy of
    /// the one shard built so far, so call this once, before
    /// [`Self::run`] and before any test hook.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert_eq!(self.shards.len(), 1, "set the shard count once");
        let n = self.graph.num_nodes();
        let count = threads.clamp(1, n.max(1));
        if count == 1 {
            return self;
        }
        let base = self.shards.pop().expect("one shard").into_inner().expect("no prior panic");
        assert_eq!(base.cycle, 0, "set the shard count before running");
        let mut shard_of = vec![0u16; n];
        self.bounds = (0..count)
            .map(|s| {
                let (lo, hi) = (s * n / count, (s + 1) * n / count);
                shard_of[lo..hi].fill(s as u16);
                (lo as NodeId, hi as NodeId)
            })
            .collect();
        self.shard_of = Arc::new(shard_of);
        self.shards = (self.bounds.iter().enumerate())
            .map(|(s, &(lo, hi))| {
                let mut shard = base.clone();
                shard.set_shard(s as u16, count, lo, hi, Arc::clone(&self.shard_of));
                Mutex::new(shard)
            })
            .collect();
        self
    }

    /// Attaches a fault schedule. Must be called before [`Self::run`].
    ///
    /// Reserves two extra hop-indexed VCs (capped at the allocator's 32)
    /// so rerouted and repaired paths slightly longer than the intact
    /// table's diameter still fit; degraded-table paths exceeding even
    /// that budget are trimmed when faults apply. Every shard applies
    /// the same events and rebuilds the same degraded table — repair is
    /// deterministic in `(seed, cycle)` — but drains only the wires and
    /// buffers it owns.
    pub fn with_fault_plan(mut self, plan: &'a FaultPlan) -> Self {
        for shard in &mut self.shards {
            shard.get_mut().expect("no prior panic").attach_fault_plan(plan);
        }
        self
    }

    /// Attaches a scenario plan driving phased traffic: steady
    /// open-loop regimes, Poisson flow arrivals with bounded-Pareto
    /// sizes, and explicitly scheduled flows. Must be called before
    /// [`Self::run`]. Until the plan's first phase starts the simulator
    /// injects nothing, regardless of the constructor's rate and
    /// pattern; a steady phase literally installs its rate and matrix
    /// into the legacy injection path, so a single steady phase at
    /// cycle 0 reproduces a static-pattern run byte-identically. Every
    /// shard advances the same phase schedule but injects and tracks
    /// only the hosts it owns.
    ///
    /// # Panics
    /// Panics if an explicit flow references a host outside the
    /// topology.
    pub fn with_scenario(mut self, plan: &'a ScenarioPlan) -> Self {
        for shard in &mut self.shards {
            shard.get_mut().expect("no prior panic").attach_scenario(plan);
        }
        self
    }

    /// Flow-level accounting for a scenario run; `None` when no plan is
    /// attached. Call after [`Self::run`].
    ///
    /// Flow generation, completion, and FCT recording all happen on a
    /// single shard (the source shard generates, the destination shard
    /// ejects), so sums and histogram merges are exact; a dropped flow
    /// is counted once even if its packets died on several shards.
    pub fn flow_stats(&self) -> Option<FlowStats> {
        let guards: Vec<MutexGuard<'_, Shard<'a>>> =
            self.shards.iter().map(|m| m.lock().expect("no prior panic")).collect();
        let scenarios: Vec<&ScenarioState<'a>> =
            guards.iter().map(|g| g.scenario.as_ref()).collect::<Option<_>>()?;
        let generated: u64 = scenarios.iter().map(|sc| sc.flows_generated).sum();
        let completed: u64 = scenarios.iter().map(|sc| sc.flows_completed).sum();
        let fct_sum = scenarios.iter().map(|sc| sc.fct_sum).sum();
        let mut fct_hist = scenarios[0].fct_hist.clone();
        for sc in &scenarios[1..] {
            fct_hist.merge(&sc.fct_hist);
        }
        let dropped: HashSet<u64> =
            scenarios.iter().flat_map(|sc| sc.dropped_flows.iter().copied()).collect();
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
        self.shards[0].lock().expect("no prior panic").num_vcs
    }

    /// Attaches a per-cycle occupancy/credit-stall sampler. Must be
    /// called before [`Self::run`]; collect the report afterwards with
    /// [`Self::take_metrics`]. One observer samples the assembled global
    /// credit state at the top of each stride cycle. Observation never
    /// perturbs the simulation itself — results stay byte-identical with
    /// and without it.
    #[cfg(feature = "obs")]
    pub fn with_observer(mut self, cfg: ObserveConfig) -> Self {
        self.observer = Some(SimObserver::new(cfg, self.graph.num_links(), self.num_vcs()));
        self
    }

    /// Detaches the observer and returns its report (per-link/per-VC
    /// occupancy and credit-stall time series, link utilizations, the
    /// latency histogram). `None` if no observer was attached. Call
    /// after [`Self::run`].
    #[cfg(feature = "obs")]
    pub fn take_metrics(&mut self) -> Option<SimMetrics> {
        let obs = self.observer.take()?;
        let final_cycle = self.shards[0].get_mut().expect("no prior panic").cycle;
        let measured = u64::from(final_cycle.saturating_sub(self.cfg.warmup_cycles)).max(1);
        let mut link_sends = vec![0u64; self.graph.num_links()];
        let mut hist = LogHistogram::new();
        for m in &self.shards {
            let shard = m.lock().expect("no prior panic");
            for (acc, &s) in link_sends.iter_mut().zip(&shard.link_sends) {
                *acc += s;
            }
            hist.merge(&shard.lat_hist);
        }
        let utils = link_sends.iter().map(|&s| s as f64 / measured as f64).collect();
        Some(obs.into_metrics(utils, hist))
    }

    /// Attaches the runtime invariant auditor. Must be called before
    /// [`Self::run`]. Each shard records its own flight-recorder events;
    /// the invariant checks run over the merged state each cycle.
    /// Auditing never perturbs the simulation — results stay
    /// byte-identical with and without it — and a broken invariant
    /// panics with a structured [`Violation`] diagnostic including the
    /// flight-recorder dump.
    #[cfg(feature = "audit")]
    pub fn with_auditor(mut self, cfg: AuditConfig) -> Self {
        for m in &mut self.shards {
            let shard = m.get_mut().expect("no prior panic");
            assert_eq!(shard.cycle, 0, "attach auditors before running");
            shard.auditor = Some(Auditor::new(cfg));
        }
        self.auditor = Some(Auditor::new(cfg));
        self
    }

    /// The shard owning router `r`, for the test hooks.
    #[cfg(feature = "audit")]
    fn owner(&mut self, r: NodeId) -> &mut Shard<'a> {
        let s = self.shard_of[r as usize] as usize;
        self.shards[s].get_mut().expect("no prior panic")
    }

    /// Test hook (`audit` feature): corrupts one credit counter so the
    /// seeded-violation tests can verify the auditor catches it.
    #[cfg(feature = "audit")]
    #[doc(hidden)]
    pub fn audit_corrupt_credit(&mut self, link: LinkId, vc: u16) {
        let shard = self.owner(self.graph.link_src(link));
        let qi = shard.qi(link, vc) as usize;
        shard.credits[qi] -= 1;
    }

    /// Test hook (`audit` feature): inflates one router's load counter
    /// so the seeded-violation tests can verify `router-load` fires.
    #[cfg(feature = "audit")]
    #[doc(hidden)]
    pub fn audit_corrupt_router_load(&mut self, router: NodeId) {
        self.owner(router).rtr_load[router as usize] += 1;
    }

    /// Test hook (`audit` feature): permanently blocks a host's
    /// ejection port so the watchdog tests can manufacture a livelock.
    #[cfg(feature = "audit")]
    #[doc(hidden)]
    pub fn audit_block_ejection(&mut self, host: u32) {
        let port = self.graph.num_links() + host as usize;
        self.owner(self.params.switch_of_host(host as usize)).out_free[port] = u32::MAX;
    }

    /// Test hook (`audit` feature): forges a completed-flow count so
    /// the seeded-violation tests can verify flow conservation fires.
    #[cfg(feature = "audit")]
    #[doc(hidden)]
    pub fn audit_phantom_completion(&mut self) {
        self.first_scenario().flows_completed += 1;
    }

    /// Test hook (`audit` feature): records a spurious FCT sample so
    /// the seeded-violation tests can verify FCT accounting fires.
    #[cfg(feature = "audit")]
    #[doc(hidden)]
    pub fn audit_spurious_fct(&mut self) {
        let sc = self.first_scenario();
        sc.fct_hist.record(1);
        sc.fct_sum += 1;
    }

    /// Shard 0's scenario state, for the test hooks.
    #[cfg(feature = "audit")]
    fn first_scenario(&mut self) -> &mut ScenarioState<'a> {
        let shard = self.shards[0].get_mut().expect("no prior panic");
        shard.scenario.as_mut().expect("hook needs an attached scenario")
    }

    /// Runs the configured warmup + measurement schedule and returns the
    /// merged result.
    ///
    /// Terminates early once saturation is certain (a closed sample
    /// window exceeded the latency threshold, or a source queue
    /// overflowed): the run is already classified, and saturated runs
    /// otherwise accumulate millions of queued packets for no
    /// information. Non-saturated runs are unaffected.
    ///
    /// Stretches of cycles in which a scenario's fabric is quiescent
    /// (see [`Self::skipped_cycles`]) are jumped over, not stepped
    /// through; the result is the same either way. Each run adds its
    /// measured and skipped cycle counts to the global registry's
    /// `flitsim.cycles.measured` and `flitsim.cycles.skipped`.
    ///
    /// # Panics
    /// Panics with the structured [`Violation`] rendering (a `String`
    /// payload) when auditing detects a broken invariant, and propagates
    /// any worker panic after poisoning the barrier.
    pub fn run(&mut self) -> RunResult {
        let _run_span = jellyfish_obs::span("flitsim.sim.run");
        let shards = self.shards.len();
        #[cfg(feature = "audit")]
        let audit_enabled = self.auditor.is_some();
        #[cfg(not(feature = "audit"))]
        let audit_enabled = false;
        let make_flit_lane = || [Mutex::new(Vec::new()), Mutex::new(Vec::new())];
        let make_cred_lane = || [Mutex::new(Vec::new()), Mutex::new(Vec::new())];
        let flit_in: Vec<Vec<FlitLane>> =
            (0..shards).map(|_| (0..shards).map(|_| make_flit_lane()).collect()).collect();
        let cred_in: Vec<Vec<CredLane>> =
            (0..shards).map(|_| (0..shards).map(|_| make_cred_lane()).collect()).collect();
        let barrier = SpinBarrier::new(shards);
        let overflow: Vec<[AtomicBool; 2]> =
            (0..shards).map(|_| [AtomicBool::new(false), AtomicBool::new(false)]).collect();
        let quiet: Vec<[AtomicU32; 2]> =
            (0..shards).map(|_| [AtomicU32::new(0), AtomicU32::new(0)]).collect();
        #[cfg(feature = "obs")]
        let observed = self.observer.is_some();
        #[cfg(not(feature = "obs"))]
        let observed = false;
        let decision = AtomicU8::new(DEC_RUN);
        let violation: Mutex<Option<String>> = Mutex::new(None);
        let shared = Shared {
            cells: &self.shards,
            flit_in: &flit_in,
            cred_in: &cred_in,
            barrier: &barrier,
            overflow: &overflow,
            quiet: &quiet,
            may_skip: !audit_enabled && !observed,
            decision: &decision,
            violation: &violation,
            audit_enabled,
            cfg: self.cfg,
            graph: self.graph,
            params: self.params,
            shard_of: &self.shard_of,
            bounds: &self.bounds,
            #[cfg(feature = "obs")]
            has_observer: self.observer.is_some(),
            #[cfg(feature = "obs")]
            obs_stride: self.observer.as_ref().map_or(1, SimObserver::stride),
        };
        let mut coord = CoordState {
            #[cfg(feature = "audit")]
            auditor: self.auditor.as_mut(),
            #[cfg(feature = "obs")]
            observer: self.observer.as_mut(),
            #[cfg(feature = "obs")]
            credits: Vec::new(),
            _pd: std::marker::PhantomData,
        };

        let (final_t, exit_sat, skipped) = std::thread::scope(|scope| {
            let sh = &shared;
            for s in 1..shards {
                scope.spawn(move || worker(sh, s, None));
            }
            worker(sh, 0, Some(&mut coord))
        });

        if let Some(msg) = violation.into_inner().expect("no prior panic") {
            // A `String` payload carrying the structured diagnostic, as
            // `panic!("{violation}")` would raise.
            std::panic::panic_any(msg);
        }

        let leftover_flits = count_inbox_flits(&flit_in);
        self.skipped = skipped;
        let result = self.finalize(final_t, exit_sat, leftover_flits);
        let mut reg = jellyfish_obs::global();
        reg.counter_add("flitsim.cycles.measured", result.measured_cycles);
        reg.counter_add("flitsim.cycles.skipped", skipped);
        result
    }

    /// Cycles the last [`Self::run`] jumped over because the fabric was
    /// quiescent: an attached scenario in an idle phase, no packet live
    /// anywhere, no credit in flight and no flow waiting at a NIC. A
    /// jump lands on the next phase start, explicit flow, fault event or
    /// sample-window close, whichever comes first, so those cycles run
    /// as before. Runs without a scenario, and audited or observed runs
    /// (their per-cycle checks and samples stay exact), never skip. The
    /// count is the same at any shard count.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped
    }

    /// Merges the per-shard accumulators into the run's [`RunResult`].
    fn finalize(&mut self, final_t: u32, exit_sat: bool, leftover_flits: u64) -> RunResult {
        let cfg = self.cfg;
        let mut guards: Vec<MutexGuard<'_, Shard<'a>>> =
            self.shards.iter().map(|m| m.lock().expect("no prior panic")).collect();
        for g in guards.iter_mut() {
            g.cycle = final_t;
        }
        let mut acc = SampleAccumulator::default();
        for g in &guards {
            acc.merge_from(&g.acc);
        }
        // An early exit can leave a partially measured window open; its
        // packets already fed the overall mean and the ejected count, so
        // close it — otherwise the trailing window silently vanishes from
        // `sample_latencies`.
        let measured_cycles = u64::from(final_t.saturating_sub(cfg.warmup_cycles));
        if acc.closed_windows() as u64 * u64::from(cfg.sample_cycles) < measured_cycles {
            acc.end_window();
        }
        let generated: u64 = guards.iter().map(|g| g.measured_generated).sum();
        let ejected = acc.total_ejected();

        let sample_latencies = acc.window_means();
        // Same guarded empty-window verdict as the early-exit check: an
        // all-NaN run whose packets never left the source queues (or
        // never existed) is idle, not saturated.
        let stalled = merged_stalled(&guards, &cfg, final_t, leftover_flits);
        let overflowed = guards.iter().any(|g| g.overflowed);
        let saturated = exit_sat
            || overflowed
            || sample_latencies
                .iter()
                .any(|m| m.is_nan() && stalled || *m > cfg.saturation_latency);
        #[cfg(feature = "audit")]
        if let Some(aud) = &self.auditor {
            let _span = jellyfish_obs::span("flitsim.audit.report");
            let events: u64 =
                guards.iter().map(|g| g.auditor.as_ref().map_or(0, |a| a.events_recorded())).sum();
            let mut reg = jellyfish_obs::global();
            reg.counter_add("flitsim.audit.cycles", aud.cycles_checked());
            reg.counter_add("flitsim.audit.events", events);
        }
        // Normalize rates by the cycles actually measured, not by the
        // configured measurement length: early termination would
        // otherwise deflate `accepted` and every link utilization.
        let meas_cycles = measured_cycles.max(1) as f64;
        let mut link_sends = guards[0].link_sends.clone();
        let mut hop_hist = guards[0].hop_hist.clone();
        let mut lat_hist = guards[0].lat_hist.clone();
        for g in &guards[1..] {
            for (acc_s, &s) in link_sends.iter_mut().zip(&g.link_sends) {
                *acc_s += s;
            }
            for (acc_h, &h) in hop_hist.iter_mut().zip(&g.hop_hist) {
                *acc_h += h;
            }
            lat_hist.merge(&g.lat_hist);
        }
        let min_lat = guards.iter().map(|g| g.min_lat).min().expect("at least one shard");
        let max_lat = guards.iter().map(|g| g.max_lat).max().expect("at least one shard");
        let dropped = guards.iter().map(|g| g.dropped).sum();
        let rerouted = guards.iter().map(|g| g.rerouted).sum();
        let utils: Vec<f64> = link_sends.iter().map(|&s| s as f64 / meas_cycles).collect();
        let (p50, p90, p99, p999) = lat_hist.percentiles();
        RunResult {
            // Scenario steady phases retune each shard's injection rate
            // mid-run; report the rate the run ended on (every shard
            // holds the same value — without a scenario it is the
            // constructor's).
            offered: guards[0].rate,
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

/// True at cycle `cycle` when traffic has flowed (>= 1 ejection ever),
/// no packet has ejected for longer than the zero-load flight bound,
/// and live packets occupy the network proper — input buffers, wires
/// or boundary inboxes — rather than only source queues. Gates the
/// empty-sample-window saturation verdict: during startup (no warmup,
/// windows shorter than the flight time) empty windows are legitimate,
/// not saturation. For realistic configurations (`sample_cycles` well
/// above the flight bound) the verdict is unchanged.
fn merged_stalled(
    guards: &[MutexGuard<'_, Shard<'_>>],
    cfg: &SimConfig,
    cycle: u32,
    inbox_flits: u64,
) -> bool {
    let ejected_total: u64 = guards.iter().map(|g| g.ejected_total).sum();
    if ejected_total == 0 {
        return false;
    }
    let num_vcs = guards[0].num_vcs;
    let flight = (cfg.channel_latency as u64 + cfg.packet_flits as u64) * (num_vcs as u64 + 1);
    let last_ejection = guards.iter().map(|g| g.last_ejection).max().unwrap_or(0);
    if u64::from(cycle.saturating_sub(last_ejection)) <= flight {
        return false;
    }
    let src_queued: usize = guards
        .iter()
        .map(|g| g.src_q.iter().map(std::collections::VecDeque::len).sum::<usize>())
        .sum();
    let live: u64 = guards.iter().map(|g| g.arena.live() as u64).sum::<u64>() + inbox_flits;
    live > src_queued as u64
}

/// The first sample-window close at or after cycle `n`: the next
/// special cycle that a quiescent jump must not pass.
fn next_window_close(cfg: &SimConfig, n: u32) -> u32 {
    let (warmup, window) = (cfg.warmup_cycles, cfg.sample_cycles);
    if n < warmup {
        warmup + window - 1
    } else {
        n + (window - 1 - (n - warmup) % window)
    }
}

/// One worker's lockstep loop over shard `s`. Thread 0 (`coord` set)
/// additionally runs the global sections: merged audit, window-close
/// decisions, and observer sampling. Returns `(final_cycle,
/// early_saturated, skipped_cycles)` — identical on every worker by
/// construction.
///
/// After each cycle every shard reports the first cycle it can next do
/// anything observable (`Shard::quiet_until`, or the next cycle if it
/// staged boundary traffic that its receiver has not yet filed), and
/// all workers jump together to the minimum, capped at the next
/// sample-window close and the end of the run.
fn worker(
    sh: &Shared<'_, '_>,
    s: usize,
    mut coord: Option<&mut CoordState<'_>>,
) -> (u32, bool, u64) {
    let _guard = PoisonGuard(sh.barrier);
    let shards = sh.cells.len();
    let total = sh.cfg.total_cycles();
    let warmup = sh.cfg.warmup_cycles;
    // Barrier waits are timed while tracing; a lone shard's barrier
    // never waits, so it is not.
    #[cfg(feature = "obs")]
    let mut barrier_wait = (shards > 1 && jellyfish_obs::trace::enabled()).then(LogHistogram::new);
    #[cfg(not(feature = "obs"))]
    let mut barrier_wait: Option<LogHistogram> = None;
    let mut t: u32 = 0;
    // Cycles executed so far: its parity selects the double-buffered
    // inbox lanes and flags.
    let mut step: usize = 0;
    let mut skipped = 0u64;
    let mut exit_sat = false;
    let final_t = loop {
        if t >= total {
            break t;
        }
        let measuring = t >= warmup;
        // Observer sampling at the top of the cycle: the coordinator
        // assembles the global credit state while every worker is
        // parked between barriers, so the sample is the same
        // top-of-cycle view at any shard count (in-transit credit
        // returns are still unapplied).
        #[cfg(feature = "obs")]
        if sh.has_observer && measuring && (t - warmup).is_multiple_of(sh.obs_stride) {
            if let Some(c) = coord.as_deref_mut() {
                sample_observer(sh, c, t);
            }
            sh.barrier.wait();
        }
        let special = sh.audit_enabled
            || (measuring && (t + 1 - warmup).is_multiple_of(sh.cfg.sample_cycles));
        let (rx, tx) = ((step + 1) % 2, step % 2);
        {
            let mut cell = sh.cells[s].lock().expect("no prior panic");
            let cell = &mut *cell;
            cell.cycle = t;
            // Per-cycle stage spans for the trace timeline: strided so a
            // full sweep stays within the tracing overhead budget.
            #[cfg(feature = "obs")]
            let trace_cycle = jellyfish_obs::trace::enabled()
                && t.is_multiple_of(jellyfish_obs::trace::cycle_stride());
            #[cfg(feature = "obs")]
            let _shard_span = (shards > 1 && trace_cycle)
                .then(|| jellyfish_obs::trace::span("flitsim.shard.cycle"));
            {
                #[cfg(feature = "obs")]
                let _t = trace_cycle.then(|| jellyfish_obs::trace::span("flitsim.cycle.traverse"));
                // 0. Drain last cycle's boundary messages into the delay
                //    lines, before faults apply (so no message is in
                //    transit when wires are cut).
                for x in 0..shards {
                    if x == s {
                        continue;
                    }
                    let msgs =
                        std::mem::take(&mut *sh.flit_in[s][x][rx].lock().expect("no prior panic"));
                    for m in msgs {
                        cell.accept_flit(m);
                    }
                    let creds =
                        std::mem::take(&mut *sh.cred_in[s][x][rx].lock().expect("no prior panic"));
                    for m in creds {
                        cell.accept_credit(m);
                    }
                }
                // 1. Cut links/switches whose failure time is due, before
                //    the wire delivers: packets on a cut wire are lost.
                cell.apply_pending_faults();
                // 2. Switch traffic regimes and register explicit flows
                //    due this cycle, before injection sees them.
                cell.apply_pending_scenario();
                // 3. Deliver channel arrivals and credit returns due now.
                cell.deliver_due();
            }
            {
                #[cfg(feature = "obs")]
                let _t = trace_cycle.then(|| jellyfish_obs::trace::span("flitsim.cycle.inject"));
                // 4. Inject new traffic.
                cell.generate(measuring);
            }
            {
                #[cfg(feature = "obs")]
                let _t = trace_cycle.then(|| jellyfish_obs::trace::span("flitsim.cycle.allocate"));
                // 5. Switch allocation + transfers.
                cell.allocate(measuring);
            }
            // 6. Flush boundary traffic into the receivers' inboxes.
            let mut staged = false;
            for d in 0..shards {
                if d == s {
                    continue;
                }
                if !cell.out_flits[d].is_empty() {
                    staged = true;
                    sh.flit_in[d][s][tx]
                        .lock()
                        .expect("no prior panic")
                        .append(&mut cell.out_flits[d]);
                }
                if !cell.out_creds[d].is_empty() {
                    staged = true;
                    sh.cred_in[d][s][tx]
                        .lock()
                        .expect("no prior panic")
                        .append(&mut cell.out_creds[d]);
                }
            }
            // 7. Report when this shard next has work.
            let quiet = if sh.may_skip && !staged { cell.quiet_until(t + 1) } else { t + 1 };
            sh.overflow[s][tx].store(cell.overflowed, Ordering::Release);
            sh.quiet[s][tx].store(quiet, Ordering::Release);
        }
        match barrier_wait.as_mut() {
            Some(hist) => {
                let start = std::time::Instant::now();
                sh.barrier.wait();
                hist.record(start.elapsed().as_nanos() as u64);
            }
            None => sh.barrier.wait(),
        }
        if special {
            if let Some(c) = coord.as_deref_mut() {
                special_section(sh, c, t);
            }
            sh.barrier.wait();
        }
        // Exit precedence: a violation verdict ends the run (the
        // coordinator panics after the join), then source-queue
        // overflow, then a saturated window.
        if special && sh.decision.load(Ordering::Acquire) == DEC_VIOL {
            break t + 1;
        }
        let any_overflow = sh.overflow.iter().any(|o| o[tx].load(Ordering::Acquire));
        let quiet = sh.quiet.iter().map(|q| q[tx].load(Ordering::Acquire)).min().unwrap_or(t + 1);
        if any_overflow {
            exit_sat = true;
            break t + 1;
        }
        if special && sh.decision.load(Ordering::Acquire) == DEC_SAT {
            exit_sat = true;
            break t + 1;
        }
        step += 1;
        t += 1;
        if quiet > t {
            let next = quiet.min(next_window_close(&sh.cfg, t)).min(total);
            skipped += u64::from(next - t);
            t = next;
        }
    };
    if let Some(hist) = barrier_wait {
        jellyfish_obs::global().hist_merge("flitsim.parallel.barrier_wait_ns", &hist);
    }
    (final_t, exit_sat, skipped)
}

/// Coordinator work at a special cycle (between the two barriers, with
/// every worker parked): merged invariant audit, then the global
/// window-close decision from the merged integer latency sums.
fn special_section(sh: &Shared<'_, '_>, coord: &mut CoordState<'_>, t: u32) {
    let mut shards: Vec<MutexGuard<'_, Shard<'_>>> =
        sh.cells.iter().map(|m| m.lock().expect("no prior panic")).collect();
    #[cfg(feature = "audit")]
    if sh.audit_enabled {
        if let Some(a) = coord.auditor.as_deref_mut() {
            let verdict = merged_audit(sh, a, &mut shards, t);
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
    let any_overflow = shards.iter().any(|g| g.overflowed);
    if closes && !any_overflow {
        // The overflow break precedes the window close, so an overflow
        // at a window boundary leaves the window open for the trailing
        // close in finalize.
        let mut sum = 0u64;
        let mut count = 0u64;
        for g in shards.iter_mut() {
            g.acc.end_window();
            let (s, c) = g.acc.last_window_raw().unwrap_or((0, 0));
            sum += s;
            count += c;
        }
        let worst = if count == 0 { f64::NAN } else { sum as f64 / count as f64 };
        let inbox_flits = count_inbox_flits(sh.flit_in);
        let sat = worst > sh.cfg.saturation_latency
            || (worst.is_nan() && merged_stalled(&shards, &sh.cfg, t + 1, inbox_flits));
        sh.decision.store(if sat { DEC_SAT } else { DEC_RUN }, Ordering::Release);
    } else {
        sh.decision.store(DEC_RUN, Ordering::Release);
    }
}

/// Assembles the global credit array from the per-shard owned ranges
/// (links of routers `[lo, hi)` are CSR-contiguous) and feeds the
/// coordinator's observer with the network's top-of-cycle credits.
#[cfg(feature = "obs")]
fn sample_observer(sh: &Shared<'_, '_>, coord: &mut CoordState<'_>, t: u32) {
    let Some(obs) = coord.observer.as_deref_mut() else { return };
    let guards: Vec<MutexGuard<'_, Shard<'_>>> =
        sh.cells.iter().map(|m| m.lock().expect("no prior panic")).collect();
    let nv = guards[0].num_vcs;
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
        coord.credits[llo..lhi].copy_from_slice(&g.credits[llo..lhi]);
    }
    obs.maybe_sample(
        t - sh.cfg.warmup_cycles,
        &coord.credits,
        sh.cfg.vc_buffer,
        sh.cfg.packet_flits,
        nv,
    );
}

/// The end-of-cycle invariant checks over the merged shard state (see
/// [`crate::audit`]), returning the first broken one. Read-only over
/// simulator state apart from draining the shard flight recorders,
/// which are replayed into the run's ring in cycle order so a violation
/// dump reads as one coherent timeline.
#[cfg(feature = "audit")]
fn merged_audit(
    sh: &Shared<'_, '_>,
    a: &mut Auditor,
    cells: &mut [MutexGuard<'_, Shard<'_>>],
    cycle: u32,
) -> Result<(), Violation> {
    // Replay per-shard rings (each holds exactly this cycle's events —
    // they are drained every audited cycle) into the merged recorder.
    let mut events: Vec<AuditEvent> = Vec::new();
    let mut anchor = 0u32;
    for c in cells.iter_mut() {
        if let Some(sa) = c.auditor.as_mut() {
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
    let generated_total: u64 = cells.iter().map(|c| c.generated_total).sum();
    let ejected_total: u64 = cells.iter().map(|c| c.ejected_total).sum();
    let dropped: u64 = cells.iter().map(|c| c.dropped).sum();
    let live: u64 = cells.iter().map(|c| c.arena.live() as u64).sum::<u64>() + inbox_flits;
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
        cells.iter().map(|c| c.src_q.iter().map(|q| q.len() as u64).sum::<u64>()).sum();
    let buffered: u64 =
        cells.iter().map(|c| c.in_buf.iter().map(|q| q.len() as u64).sum::<u64>()).sum();
    let on_wire: u64 =
        cells.iter().map(|c| c.chan.iter().map(|s| s.len() as u64).sum::<u64>()).sum::<u64>()
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
    // live/dropped sets only exist merged.
    if cells[0].scenario.is_some() {
        let mut flows_generated = 0u64;
        let mut flows_completed = 0u64;
        let mut fct_count = 0u64;
        let mut dropped_set: HashSet<u64> = HashSet::new();
        for c in cells.iter() {
            let sc = c.scenario.as_ref().expect("every shard carries the scenario");
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
            let sc = c.scenario.as_ref().expect("every shard carries the scenario");
            for q in &sc.active {
                for f in q {
                    note(f.uid);
                }
            }
            for &uid in sc.flow_eject.keys() {
                note(uid);
            }
            for q in &c.src_q {
                for &pid in q {
                    note(c.arena.flow(pid));
                }
            }
            for q in &c.in_buf {
                for &pid in q {
                    note(c.arena.flow(pid));
                }
            }
            for slot in &c.chan {
                for &(pid, _) in slot {
                    note(c.arena.flow(pid));
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
    let num_vcs = cells[0].num_vcs;
    let nq = cells[0].in_buf.len();
    a.reset_scratch(nq);
    for c in cells.iter() {
        for slot in &c.chan {
            for &(_, qi) in slot {
                a.chan_in_flight[qi as usize] += 1;
            }
        }
        for slot in &c.cred {
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
        if let Some(view) = &cells[0].fault_view {
            if !view.link_is_live(link) {
                continue;
            }
        }
        let src_cell = sh.shard_of[sh.graph.link_src(link) as usize] as usize;
        let dst_cell = sh.shard_of[sh.graph.link_dst(link) as usize] as usize;
        let credits = cells[src_cell].credits[qi] as u64;
        let in_buf_len = cells[dst_cell].in_buf[qi].len();
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
                    cells[src_cell].credits[qi],
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
            let bit = c.vc_occ[link] & (1 << vc) != 0;
            if bit == c.in_buf[qi].is_empty() {
                return Err(a.violation(
                    "occupancy-mask",
                    cycle,
                    format!(
                        "link {link} vc {vc}: vc_occ bit {bit} but buffer holds {} packet(s)",
                        c.in_buf[qi].len()
                    ),
                ));
            }
        }
    }
    // rtr_load agrees with queue emptiness (checked on the router's
    // owning shard, which holds its input buffers and source queues).
    for r in 0..sh.graph.num_nodes() as NodeId {
        cells[sh.shard_of[r as usize] as usize].audit_router_load(a, r)?;
    }
    // Route validity for every queued packet, walked in network order:
    // source queues by host, input buffers by queue index, then wires
    // (shard delay lines, then boundary inboxes).
    for h in 0..sh.params.num_hosts() {
        let own = sh.shard_of[sh.params.switch_of_host(h) as usize] as usize;
        let c = &cells[own];
        for &pid in &c.src_q[h] {
            c.audit_packet(a, pid, None, Some(h as u32))?;
        }
    }
    for qi in 0..nq {
        let own = sh.shard_of[sh.graph.link_dst((qi / num_vcs) as LinkId) as usize] as usize;
        let c = &cells[own];
        for &pid in &c.in_buf[qi] {
            c.audit_packet(a, pid, Some((qi as u32, false)), None)?;
        }
    }
    for c in cells.iter() {
        for slot in &c.chan {
            for &(pid, qi) in slot {
                c.audit_packet(a, pid, Some((qi, true)), None)?;
            }
        }
    }
    for row in sh.flit_in {
        for lane in row {
            for slot in lane {
                for m in slot.lock().expect("no prior panic").iter() {
                    cells[0].audit_boundary_flit(a, m)?;
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

    /// A saturating probe without a scenario never skips; an attached
    /// plan that schedules nothing runs cycle 0 and each sample-window
    /// close, and skips everything else; an observed run samples every
    /// stride, so it never skips. Every run adds its skipped count to the
    /// registry counter (other tests running at the same time can only
    /// add more).
    #[test]
    fn only_quiescent_scenario_cycles_are_skipped() {
        let p = RrgParams::new(12, 6, 4);
        let g = test_util::graph(p, 21);
        let t = test_util::all_pairs_table(p, 21, PathSelection::Ksp(4), 0);
        let cfg = SimConfig::paper();
        let sim = |rate: f64| {
            let uniform = PacketDestinations::Uniform { num_hosts: p.num_hosts() };
            Simulator::new(&g, p, &t, None, Mechanism::SinglePath, uniform, rate, cfg)
        };
        let mut probe = sim(0.9);
        assert!(probe.run().saturated);
        assert_eq!(probe.skipped_cycles(), 0);

        let empty = ScenarioPlan::new(1);
        let executed = 1 + u64::from(cfg.num_samples);
        let expected = u64::from(cfg.total_cycles()) - executed;
        let before = jellyfish_obs::global().counter("flitsim.cycles.skipped").unwrap_or(0);
        for threads in [1, 3] {
            let mut idle = sim(0.0).with_threads(threads).with_scenario(&empty);
            let result = idle.run();
            assert_eq!(result.measured_cycles, u64::from(cfg.sample_cycles * cfg.num_samples));
            assert_eq!(idle.skipped_cycles(), expected, "threads={threads}");
        }
        let after = jellyfish_obs::global().counter("flitsim.cycles.skipped").unwrap_or(0);
        assert!(after >= before + 2 * expected, "counter went from {before} to {after}");

        #[cfg(feature = "obs")]
        {
            let mut observed =
                sim(0.0).with_scenario(&empty).with_observer(ObserveConfig::default());
            observed.run();
            assert_eq!(observed.skipped_cycles(), 0);
        }
    }

    #[test]
    fn window_closes_are_found_from_any_cycle() {
        let mut cfg = SimConfig::paper();
        cfg.warmup_cycles = 200;
        cfg.sample_cycles = 100;
        assert_eq!(next_window_close(&cfg, 0), 299);
        assert_eq!(next_window_close(&cfg, 200), 299);
        assert_eq!(next_window_close(&cfg, 299), 299);
        assert_eq!(next_window_close(&cfg, 300), 399);
        assert_eq!(next_window_close(&cfg, 398), 399);
        cfg.warmup_cycles = 0;
        assert_eq!(next_window_close(&cfg, 0), 99);
        assert_eq!(next_window_close(&cfg, 99), 99);
    }

    #[test]
    fn shard_bounds_partition_the_routers() {
        let p = RrgParams::new(12, 6, 4);
        let g = test_util::graph(p, 21);
        let t = test_util::all_pairs_table(p, 21, PathSelection::Ksp(4), 0);
        for threads in [1, 3, 5, 12, 64] {
            let sim = Simulator::new(
                &g,
                p,
                &t,
                None,
                Mechanism::Random,
                PacketDestinations::Uniform { num_hosts: p.num_hosts() },
                0.1,
                SimConfig::paper(),
            )
            .with_threads(threads);
            let covered: usize = sim.bounds.iter().map(|&(lo, hi)| (hi - lo) as usize).sum();
            assert_eq!(covered, 12);
            assert!(sim.bounds.iter().all(|&(lo, hi)| lo < hi), "{:?}", sim.bounds);
            assert_eq!(sim.shards.len(), threads.min(12));
            for (s, &(lo, hi)) in sim.bounds.iter().enumerate() {
                for r in lo..hi {
                    assert_eq!(sim.shard_of[r as usize] as usize, s);
                }
            }
        }
    }
}
