//! Runtime invariant auditor (`audit` feature): per-cycle conservation
//! checks over the simulator's flow-control state, with a flight
//! recorder for post-mortem diagnostics.
//!
//! The measurement pipeline is only as trustworthy as the simulator's
//! accounting — a leaked credit or a lost packet silently skews every
//! latency and saturation number downstream. The auditor re-derives the
//! accounting identities from first principles at the end of every
//! cycle and halts the run with a structured diagnostic the moment one
//! breaks:
//!
//! * **packet conservation** — `generated == ejected + dropped + live`,
//!   and every live packet sits in exactly one queue (source queue,
//!   input buffer, or channel delay line);
//! * **credit conservation** — per live `(link, vc)`:
//!   `credits + packet_flits * (buffered + on the wire + pending credit
//!   returns) == vc_buffer` (dead links retire their credits and are
//!   skipped);
//! * **occupancy mask** — the per-link `vc_occ` bitmask agrees with
//!   input-buffer emptiness;
//! * **route validity** — every queued packet's remaining route follows
//!   graph edges, fits the hop-indexed VC budget (`hop < num_vcs` for
//!   every remaining traversal), sits at the switch its hop index
//!   claims, and packets on a wire only occupy live links;
//! * **forward progress** — a watchdog declares a deadlock/livelock
//!   verdict when no grant, ejection, or drop happens for
//!   [`AuditConfig::watchdog_cycles`] consecutive cycles while packets
//!   are live.
//!
//! Auditing never perturbs the simulation: the checks read simulator
//! state and touch no RNG, so an audited run's [`crate::RunResult`] is
//! byte-identical to the plain run (enforced by tests). On violation the
//! simulator panics with a [`Violation`] rendering that includes the
//! flight recorder — a ring buffer of the most recent grants, drops,
//! reroutes, and fault applications — instead of a bare assert.

use jellyfish_obs::Ring;
use jellyfish_topology::NodeId;
use std::fmt;
use std::sync::OnceLock;

/// Auditor settings.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Forward-progress watchdog: the auditor reports a
    /// deadlock/livelock verdict when no grant, ejection, or drop
    /// happens for this many consecutive cycles while packets are live.
    /// The default is far above any legitimate stall (channel latency
    /// plus serialization is tens of cycles).
    pub watchdog_cycles: u32,
    /// Number of recent events the flight recorder keeps for the
    /// violation dump (≥ 1).
    pub ring_capacity: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self { watchdog_cycles: 2048, ring_capacity: 64 }
    }
}

/// One flight-recorder entry: something the allocator or the fault
/// machinery did to a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditEvent {
    /// A packet entered a host's source queue.
    Inject {
        /// Cycle of the event.
        cycle: u32,
        /// Injecting host.
        host: u32,
        /// Packet arena id.
        packet: u32,
    },
    /// A grant moved a packet out of router `router` onto the network
    /// channel feeding `(link, vc)` queue `qi`.
    Forward {
        /// Cycle of the event.
        cycle: u32,
        /// Granting router.
        router: NodeId,
        /// Destination `(link, vc)` queue index.
        qi: u32,
        /// Packet arena id.
        packet: u32,
    },
    /// A packet left the network at its destination host.
    Eject {
        /// Cycle of the event.
        cycle: u32,
        /// Ejecting router.
        router: NodeId,
        /// Destination host.
        host: u32,
        /// Packet arena id.
        packet: u32,
    },
    /// A packet was dropped by the fault machinery. `qi == u32::MAX`
    /// marks a source-queue drop, anything else the `(link, vc)` queue
    /// (or wire) the packet occupied.
    Drop {
        /// Cycle of the event.
        cycle: u32,
        /// Router where the drop happened.
        router: NodeId,
        /// Queue index, `u32::MAX` for source queues.
        qi: u32,
        /// Packet arena id.
        packet: u32,
    },
    /// A packet was rerouted around a failed link.
    Reroute {
        /// Cycle of the event.
        cycle: u32,
        /// Router where the reroute spliced the new tail.
        router: NodeId,
        /// Packet arena id.
        packet: u32,
    },
    /// Fault events were applied to the fabric this cycle.
    Fault {
        /// Cycle of the event.
        cycle: u32,
        /// Number of fault-plan events applied.
        events: u32,
    },
}

impl AuditEvent {
    /// The cycle the event happened (the merge key for per-shard rings).
    pub(crate) fn cycle(&self) -> u32 {
        match *self {
            AuditEvent::Inject { cycle, .. }
            | AuditEvent::Forward { cycle, .. }
            | AuditEvent::Eject { cycle, .. }
            | AuditEvent::Drop { cycle, .. }
            | AuditEvent::Reroute { cycle, .. }
            | AuditEvent::Fault { cycle, .. } => cycle,
        }
    }
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AuditEvent::Inject { cycle, host, packet } => {
                write!(f, "[{cycle:>8}] inject  pkt {packet} at host {host}")
            }
            AuditEvent::Forward { cycle, router, qi, packet } => {
                write!(f, "[{cycle:>8}] forward pkt {packet} at router {router} -> queue {qi}")
            }
            AuditEvent::Eject { cycle, router, host, packet } => {
                write!(f, "[{cycle:>8}] eject   pkt {packet} at router {router} to host {host}")
            }
            AuditEvent::Drop { cycle, router, qi, packet } if qi == u32::MAX => {
                write!(f, "[{cycle:>8}] drop    pkt {packet} at router {router} (source queue)")
            }
            AuditEvent::Drop { cycle, router, qi, packet } => {
                write!(f, "[{cycle:>8}] drop    pkt {packet} at router {router} (queue {qi})")
            }
            AuditEvent::Reroute { cycle, router, packet } => {
                write!(f, "[{cycle:>8}] reroute pkt {packet} at router {router}")
            }
            AuditEvent::Fault { cycle, events } => {
                write!(f, "[{cycle:>8}] fault   {events} event(s) applied to the fabric")
            }
        }
    }
}

/// A broken invariant, with the diagnostic context needed to debug it.
///
/// The simulator panics with this value's `Display` rendering: the
/// invariant name, the cycle, a detail line naming the offending
/// resource (queue, link, VC, counter values), and the flight-recorder
/// dump.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable invariant name, e.g. `"credit-conservation"`.
    pub invariant: &'static str,
    /// Cycle at which the check failed.
    pub cycle: u32,
    /// What exactly disagreed (resource indices and counter values).
    pub detail: String,
    /// Flight-recorder dump, oldest event first.
    pub trace: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "audit violation: {} at cycle {}", self.invariant, self.cycle)?;
        writeln!(f, "  {}", self.detail)?;
        if self.trace.is_empty() {
            write!(f, "flight recorder: empty")
        } else {
            write!(f, "flight recorder (oldest first):\n{}", self.trace)
        }
    }
}

/// The per-run auditor: flight recorder, watchdog state, and reusable
/// scratch for the per-queue occupancy tallies.
#[derive(Debug, Clone)]
pub struct Auditor {
    cfg: AuditConfig,
    ring: Ring<AuditEvent>,
    /// Last cycle with a grant, ejection, or drop (watchdog anchor).
    last_progress: u32,
    /// Scratch: packets on the wire per `(link, vc)` queue.
    pub(crate) chan_in_flight: Vec<u32>,
    /// Scratch: pending credit returns per `(link, vc)` queue.
    pub(crate) cred_pending: Vec<u32>,
    /// Cycles checked (reported as `flitsim.audit.cycles`).
    cycles_checked: u64,
    /// Events recorded (reported as `flitsim.audit.events`).
    events_recorded: u64,
}

impl Auditor {
    /// A fresh auditor.
    pub fn new(cfg: AuditConfig) -> Self {
        assert!(cfg.watchdog_cycles >= 1, "watchdog must be >= 1 cycle");
        Self {
            cfg,
            ring: Ring::new(cfg.ring_capacity, cfg.ring_capacity),
            last_progress: 0,
            chan_in_flight: Vec::new(),
            cred_pending: Vec::new(),
            cycles_checked: 0,
            events_recorded: 0,
        }
    }

    /// The configured settings.
    pub fn config(&self) -> AuditConfig {
        self.cfg
    }

    /// Number of cycles audited so far.
    pub fn cycles_checked(&self) -> u64 {
        self.cycles_checked
    }

    /// Number of flight-recorder events recorded so far.
    pub fn events_recorded(&self) -> u64 {
        self.events_recorded
    }

    /// Counts one audited cycle.
    pub(crate) fn bump_cycles_checked(&mut self) {
        self.cycles_checked += 1;
    }

    /// Records one event into the flight recorder; grants, ejections,
    /// and drops also feed the forward-progress watchdog.
    #[inline]
    pub(crate) fn record(&mut self, ev: AuditEvent) {
        match ev {
            AuditEvent::Forward { cycle, .. }
            | AuditEvent::Eject { cycle, .. }
            | AuditEvent::Drop { cycle, .. } => self.last_progress = cycle,
            AuditEvent::Inject { .. } | AuditEvent::Reroute { .. } | AuditEvent::Fault { .. } => {}
        }
        self.ring.push(ev);
        self.events_recorded += 1;
    }

    /// Watchdog verdict: whether `cycle` is beyond the progress budget.
    #[inline]
    pub(crate) fn stalled(&self, cycle: u32) -> bool {
        cycle.saturating_sub(self.last_progress) >= self.cfg.watchdog_cycles
    }

    /// Cycles since the watchdog last saw progress.
    pub(crate) fn stall_cycles(&self, cycle: u32) -> u32 {
        cycle.saturating_sub(self.last_progress)
    }

    /// Watchdog anchor: last cycle with a grant, ejection, or drop.
    pub(crate) fn last_progress(&self) -> u32 {
        self.last_progress
    }

    /// Overrides the watchdog anchor (used when merging per-shard
    /// recorders: progress anywhere resets the merged watchdog).
    pub(crate) fn set_last_progress(&mut self, cycle: u32) {
        self.last_progress = cycle;
    }

    /// Drains the flight-recorder ring, oldest first (used when merging
    /// per-shard recorders into a global cycle-ordered ring).
    pub(crate) fn drain_ring(&mut self) -> Vec<AuditEvent> {
        self.ring.drain().collect()
    }

    /// Resizes and zeroes the per-queue scratch tallies.
    pub(crate) fn reset_scratch(&mut self, num_queues: usize) {
        self.chan_in_flight.clear();
        self.chan_in_flight.resize(num_queues, 0);
        self.cred_pending.clear();
        self.cred_pending.resize(num_queues, 0);
    }

    /// Builds a [`Violation`] carrying the current flight-recorder dump.
    pub(crate) fn violation(
        &self,
        invariant: &'static str,
        cycle: u32,
        detail: String,
    ) -> Violation {
        use std::fmt::Write as _;
        let mut trace = String::new();
        for ev in self.ring.iter() {
            writeln!(trace, "  {ev}").expect("write to String");
        }
        Violation { invariant, cycle, detail, trace }
    }
}

static GLOBAL: OnceLock<AuditConfig> = OnceLock::new();

/// Installs a process-wide auditor configuration: every
/// [`crate::Simulator`] constructed afterwards runs under the invariant
/// auditor. This is how the CLI `--audit` flags reach the simulators
/// buried inside sweeps and experiments; tests attach per-instance
/// auditors with [`crate::Simulator::with_auditor`] instead. The first
/// installation wins; later calls are no-ops.
pub fn install_global(cfg: AuditConfig) {
    let _ = GLOBAL.set(cfg);
}

/// The globally installed configuration, if any.
pub(crate) fn global_config() -> Option<AuditConfig> {
    GLOBAL.get().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let mut a = Auditor::new(AuditConfig { watchdog_cycles: 10, ring_capacity: 2 });
        for c in 0..5u32 {
            a.record(AuditEvent::Inject { cycle: c, host: 0, packet: c });
        }
        assert_eq!(a.events_recorded, 5);
        let v = a.violation("test", 5, "detail".into());
        assert!(!v.trace.contains("pkt 2"), "{}", v.trace);
        assert!(v.trace.contains("pkt 3") && v.trace.contains("pkt 4"), "{}", v.trace);
    }

    #[test]
    fn watchdog_anchors_on_progress_events() {
        let mut a = Auditor::new(AuditConfig { watchdog_cycles: 100, ring_capacity: 4 });
        a.record(AuditEvent::Inject { cycle: 50, host: 0, packet: 0 });
        assert!(a.stalled(100), "injection alone is not forward progress");
        a.record(AuditEvent::Forward { cycle: 60, router: 1, qi: 3, packet: 0 });
        assert!(!a.stalled(100));
        assert_eq!(a.stall_cycles(100), 40);
        assert!(a.stalled(160));
    }

    #[test]
    fn violation_renders_structured_diagnostic() {
        let mut a = Auditor::new(AuditConfig::default());
        a.record(AuditEvent::Drop { cycle: 7, router: 2, qi: u32::MAX, packet: 9 });
        a.record(AuditEvent::Fault { cycle: 7, events: 3 });
        let v = a.violation("credit-conservation", 8, "link 4 vc 1: have 31, want 32".into());
        let s = v.to_string();
        assert!(s.contains("audit violation: credit-conservation at cycle 8"), "{s}");
        assert!(s.contains("link 4 vc 1"), "{s}");
        assert!(s.contains("(source queue)"), "{s}");
        assert!(s.contains("3 event(s)"), "{s}");
    }
}
