//! The trace-driven store-and-forward simulation.
//!
//! Channels reserve downstream buffer space *before* starting a
//! transmission (credit-based flow control) and packets occupy hop-indexed
//! virtual-channel buffers, so the buffer-wait graph is acyclic and the
//! simulation is deadlock-free — the same discipline CODES and the
//! cycle-level simulator use.

use crate::event::{AppMechanism, EventKind, EventQueue, Ps};
use jellyfish_routing::PathTable;
use jellyfish_topology::{Graph, NodeId, RrgParams};
use jellyfish_traffic::{ScenarioPlan, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Trace-simulator settings (paper Section IV-A, CODES paragraph).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppSimConfig {
    /// Packet size in bytes (paper: 1500).
    pub packet_bytes: u32,
    /// Link bandwidth in GB/s (paper: 20).
    pub bandwidth_gbps: f64,
    /// Buffer depth per virtual channel in packets (paper: 64).
    pub buffer_packets: usize,
    /// Seed for the per-packet routing decisions.
    pub seed: u64,
}

impl AppSimConfig {
    /// The paper's CODES settings.
    pub fn paper() -> Self {
        Self { packet_bytes: 1500, bandwidth_gbps: 20.0, buffer_packets: 64, seed: 0 }
    }

    /// Transmission time of one packet in picoseconds.
    pub fn packet_time_ps(&self) -> Ps {
        // bytes / (GB/s) = bytes * 1e3 / bw picoseconds.
        (self.packet_bytes as f64 * 1000.0 / self.bandwidth_gbps).round() as Ps
    }
}

impl Default for AppSimConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Result of one trace simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppSimResult {
    /// Makespan: when the last packet was delivered, in seconds.
    pub completion_time_s: f64,
    /// Packets delivered (== `total_packets` on success).
    pub delivered_packets: u64,
    /// Packets the trace required.
    pub total_packets: u64,
    /// Mean per-packet network latency in seconds (injection start to
    /// delivery).
    pub mean_packet_latency_s: f64,
    /// Mean, over sending ranks, of the time their last packet was
    /// delivered (seconds). The makespan is the max of these.
    pub mean_rank_finish_s: f64,
}

#[derive(Debug, Clone, Copy)]
struct Packet {
    src_sw: NodeId,
    dst_sw: NodeId,
    src_host: u32,
    dst_host: u32,
    path_idx: u16,
    /// Network links traversed so far; also the VC of the next traversal.
    hop: u16,
    created: Ps,
}

#[derive(Debug, Clone, Copy)]
struct FlowState {
    dst_host: u32,
    remaining: u32,
}

#[derive(Debug, Default)]
struct Nic {
    flows: Vec<FlowState>,
    rr: usize,
    /// Packet routed and ready/transmitting; `blocked` when its first
    /// buffer had no space at route time.
    current: Option<u32>,
    busy: bool,
    blocked: bool,
}

/// A switch-to-switch channel: one transmitter serving per-VC queues.
#[derive(Debug, Default)]
struct Link {
    busy: bool,
    serving_vc: u16,
    rr_vc: u16,
}

struct Sim<'a> {
    graph: &'a Graph,
    params: RrgParams,
    table: &'a PathTable,
    mechanism: AppMechanism,
    cfg: AppSimConfig,
    pkt_time: Ps,
    num_vcs: usize,
    rng: StdRng,

    packets: Vec<Packet>,
    free: Vec<u32>,
    nics: Vec<Nic>,
    links: Vec<Link>,
    /// Buffers: `link * num_vcs + vc` for links, then one per host for
    /// ejection. Occupancy plus `reserved` is bounded by the buffer cap
    /// (ejection buffers use the same cap).
    queues: Vec<VecDeque<u32>>,
    reserved: Vec<u16>,
    /// Upstream channels (link id, or `num_links + host` for NICs)
    /// waiting for space in each buffer.
    waiters: Vec<Vec<u32>>,
    eject_busy: Vec<bool>,
    events: EventQueue,

    delivered: u64,
    latency_sum: Ps,
    last_delivery: Ps,
    /// Undelivered packet count per source host; finish time recorded
    /// when it reaches zero.
    outstanding: Vec<u64>,
    rank_finish: Vec<Ps>,
}

impl<'a> Sim<'a> {
    #[inline]
    fn qid(&self, link: u32, vc: u16) -> usize {
        link as usize * self.num_vcs + vc as usize
    }

    #[inline]
    fn eject_qid(&self, host: u32) -> usize {
        self.graph.num_links() * self.num_vcs + host as usize
    }

    #[inline]
    fn nic_waiter(&self, host: u32) -> u32 {
        self.graph.num_links() as u32 + host
    }

    fn path_of(&self, p: &Packet) -> &[NodeId] {
        self.table.get(p.src_sw, p.dst_sw).expect("pair in table").path(p.path_idx as usize)
    }

    /// Buffer the packet must enter next, given it is about to leave its
    /// current position (NIC or head of a link VC queue).
    fn next_qid(&self, pkt: u32) -> usize {
        let p = &self.packets[pkt as usize];
        if p.src_sw == p.dst_sw {
            return self.eject_qid(p.dst_host);
        }
        let path = self.path_of(p);
        if p.hop as usize == path.len() - 1 {
            self.eject_qid(p.dst_host)
        } else {
            let u = path[p.hop as usize];
            let v = path[p.hop as usize + 1];
            let link = self.graph.link_id(u, v).expect("route follows edges");
            self.qid(link, p.hop)
        }
    }

    #[inline]
    fn has_space(&self, q: usize) -> bool {
        self.queues[q].len() + (self.reserved[q] as usize) < self.cfg.buffer_packets
    }

    fn alloc_packet(&mut self, p: Packet) -> u32 {
        if let Some(id) = self.free.pop() {
            self.packets[id as usize] = p;
            id
        } else {
            self.packets.push(p);
            (self.packets.len() - 1) as u32
        }
    }

    /// Chooses the path index for a new packet per the mechanism.
    fn choose_path(&mut self, src_sw: NodeId, dst_sw: NodeId) -> u16 {
        if src_sw == dst_sw {
            return 0;
        }
        let ps = self
            .table
            .get(src_sw, dst_sw)
            .unwrap_or_else(|| panic!("path table missing pair {src_sw}->{dst_sw}"));
        let k = ps.len();
        assert!(k > 0, "no paths for {src_sw}->{dst_sw}");
        match self.mechanism {
            AppMechanism::Random => self.rng.random_range(0..k) as u16,
            AppMechanism::KspAdaptive => {
                let i = self.rng.random_range(0..k);
                let j = if k > 1 {
                    let mut j = self.rng.random_range(0..k - 1);
                    if j >= i {
                        j += 1;
                    }
                    j
                } else {
                    i
                };
                let est = |idx: usize| -> u64 {
                    let path = ps.path(idx);
                    let link = self.graph.link_id(path[0], path[1]).expect("edge");
                    // First-hop total occupancy across VCs × hop count.
                    let base = self.qid(link, 0);
                    let q: u64 =
                        (0..self.num_vcs).map(|vc| self.queues[base + vc].len() as u64).sum();
                    q * (path.len() as u64 - 1)
                };
                if est(i) <= est(j) {
                    i as u16
                } else {
                    j as u16
                }
            }
        }
    }

    /// Tries to begin (or resume) injecting from host `h`.
    fn try_start_nic(&mut self, h: u32, now: Ps) {
        if self.nics[h as usize].busy {
            return;
        }
        if self.nics[h as usize].current.is_none() {
            // Route the next packet of the next flow (round-robin).
            let nic = &mut self.nics[h as usize];
            let nf = nic.flows.len();
            let mut chosen = None;
            for off in 0..nf {
                let idx = (nic.rr + off) % nf;
                if nic.flows[idx].remaining > 0 {
                    chosen = Some(idx);
                    break;
                }
            }
            let Some(idx) = chosen else {
                return; // host is done
            };
            nic.flows[idx].remaining -= 1;
            nic.rr = idx + 1;
            let dst_host = nic.flows[idx].dst_host;
            let src_sw = self.params.switch_of_host(h as usize);
            let dst_sw = self.params.switch_of_host(dst_host as usize);
            let path_idx = self.choose_path(src_sw, dst_sw);
            let pkt = self.alloc_packet(Packet {
                src_sw,
                dst_sw,
                src_host: h,
                dst_host,
                path_idx,
                hop: 0,
                created: now,
            });
            self.nics[h as usize].current = Some(pkt);
        }
        let pkt = self.nics[h as usize].current.expect("set above");
        let target = self.next_qid(pkt);
        if self.has_space(target) {
            self.reserved[target] += 1;
            self.nics[h as usize].busy = true;
            self.nics[h as usize].blocked = false;
            self.events.schedule(now + self.pkt_time, EventKind::HostDepart(h));
        } else if !self.nics[h as usize].blocked {
            self.nics[h as usize].blocked = true;
            let w = self.nic_waiter(h);
            self.waiters[target].push(w);
        }
    }

    /// Tries to begin a transmission on link `l`: round-robin over VC
    /// queues whose head has downstream space.
    fn try_start_link(&mut self, l: u32, now: Ps) {
        if self.links[l as usize].busy {
            return;
        }
        let start = self.links[l as usize].rr_vc;
        for off in 0..self.num_vcs as u16 {
            let vc = (start + off) % self.num_vcs as u16;
            let q = self.qid(l, vc);
            let Some(&pkt) = self.queues[q].front() else {
                continue;
            };
            let target = self.next_qid(pkt);
            if self.has_space(target) {
                self.reserved[target] += 1;
                let link = &mut self.links[l as usize];
                link.busy = true;
                link.serving_vc = vc;
                link.rr_vc = (vc + 1) % self.num_vcs as u16;
                self.events.schedule(now + self.pkt_time, EventKind::LinkDepart(l));
                return;
            }
            // Head blocked: wait for space at its target. Duplicate
            // registrations are possible but harmless (wakes re-check).
            if self.waiters[target].last() != Some(&l) {
                self.waiters[target].push(l);
            }
        }
    }

    fn try_start_eject(&mut self, host: u32, now: Ps) {
        let q = self.eject_qid(host);
        if self.eject_busy[host as usize] || self.queues[q].is_empty() {
            return;
        }
        self.eject_busy[host as usize] = true;
        self.events.schedule(now + self.pkt_time, EventKind::EjectDepart(host));
    }

    /// Kicks whoever waits for space in buffer `q`.
    fn wake_waiters(&mut self, q: usize, now: Ps) {
        if self.waiters[q].is_empty() {
            return;
        }
        let waiters = std::mem::take(&mut self.waiters[q]);
        for w in waiters {
            if (w as usize) < self.graph.num_links() {
                self.try_start_link(w, now);
            } else {
                let h = w - self.graph.num_links() as u32;
                self.nics[h as usize].blocked = false;
                self.try_start_nic(h, now);
            }
        }
    }

    /// Delivers a transmitted packet into its (pre-reserved) target
    /// buffer and kicks the target's transmitter.
    fn deliver(&mut self, pkt: u32, target: usize, now: Ps) {
        debug_assert!(self.reserved[target] > 0);
        self.reserved[target] -= 1;
        self.queues[target].push_back(pkt);
        let eject_base = self.graph.num_links() * self.num_vcs;
        if target >= eject_base {
            self.try_start_eject((target - eject_base) as u32, now);
        } else {
            self.packets[pkt as usize].hop += 1;
            self.try_start_link((target / self.num_vcs) as u32, now);
        }
    }

    fn host_depart(&mut self, h: u32, now: Ps) {
        let pkt = self.nics[h as usize].current.take().expect("NIC was transmitting");
        self.nics[h as usize].busy = false;
        let target = self.next_qid(pkt);
        self.deliver(pkt, target, now);
        self.try_start_nic(h, now);
    }

    fn link_depart(&mut self, l: u32, now: Ps) {
        let vc = self.links[l as usize].serving_vc;
        let q = self.qid(l, vc);
        let pkt = self.queues[q].pop_front().expect("depart from empty queue");
        self.links[l as usize].busy = false;
        let target = self.next_qid(pkt);
        self.deliver(pkt, target, now);
        self.wake_waiters(q, now);
        self.try_start_link(l, now);
    }

    fn eject_depart(&mut self, host: u32, now: Ps) {
        let q = self.eject_qid(host);
        let pkt = self.queues[q].pop_front().expect("eject from empty queue");
        self.eject_busy[host as usize] = false;
        let p = self.packets[pkt as usize];
        debug_assert_eq!(p.dst_host, host);
        self.free.push(pkt);
        self.delivered += 1;
        self.latency_sum += now - p.created;
        self.last_delivery = now;
        let src = p.src_host as usize;
        self.outstanding[src] -= 1;
        if self.outstanding[src] == 0 {
            self.rank_finish[src] = now;
        }
        self.wake_waiters(q, now);
        self.try_start_eject(host, now);
    }
}

/// Runs the trace to completion and reports timing.
///
/// The path `table` must cover every inter-switch pair the trace touches.
/// Packets are `cfg.packet_bytes` each; a flow of `b` bytes sends
/// `ceil(b / packet_bytes)` full-size packets (the trailing partial packet
/// is rounded up, < 0.1% of volume for the paper's flow sizes).
///
/// # Panics
/// Panics if a flow's endpoints coincide or its pair is missing from the
/// table.
pub fn simulate(
    graph: &Graph,
    params: RrgParams,
    table: &PathTable,
    mechanism: AppMechanism,
    trace: &Trace,
    cfg: AppSimConfig,
) -> AppSimResult {
    assert_eq!(graph.num_nodes(), params.switches, "graph/params mismatch");
    assert!(cfg.buffer_packets >= 1, "need at least one buffer slot");
    let hosts = params.num_hosts();
    let mut nics: Vec<Nic> = (0..hosts).map(|_| Nic::default()).collect();
    let mut outstanding = vec![0u64; hosts];
    let mut total_packets = 0u64;
    for f in &trace.flows {
        assert_ne!(f.src, f.dst, "flow to self is not a network flow");
        let packets = f.bytes.div_ceil(cfg.packet_bytes as u64) as u32;
        if packets == 0 {
            continue;
        }
        total_packets += packets as u64;
        nics[f.src as usize].flows.push(FlowState { dst_host: f.dst, remaining: packets });
        outstanding[f.src as usize] += packets as u64;
    }

    let num_vcs = table.max_hops().max(1);
    let num_queues = graph.num_links() * num_vcs + hosts;
    let mut sim = Sim {
        graph,
        params,
        table,
        mechanism,
        cfg,
        pkt_time: cfg.packet_time_ps(),
        num_vcs,
        rng: StdRng::seed_from_u64(cfg.seed),
        packets: Vec::with_capacity(4096),
        free: Vec::new(),
        nics,
        links: (0..graph.num_links()).map(|_| Link::default()).collect(),
        queues: (0..num_queues).map(|_| VecDeque::new()).collect(),
        reserved: vec![0; num_queues],
        waiters: (0..num_queues).map(|_| Vec::new()).collect(),
        eject_busy: vec![false; hosts],
        events: EventQueue::default(),
        delivered: 0,
        latency_sum: 0,
        last_delivery: 0,
        outstanding,
        rank_finish: vec![0; hosts],
    };

    for h in 0..hosts as u32 {
        sim.try_start_nic(h, 0);
    }
    while let Some((t, kind)) = sim.events.pop() {
        match kind {
            EventKind::HostDepart(h) => sim.host_depart(h, t),
            EventKind::LinkDepart(l) => sim.link_depart(l, t),
            EventKind::EjectDepart(h) => sim.eject_depart(h, t),
        }
    }
    assert_eq!(
        sim.delivered, total_packets,
        "simulation drained with undelivered packets (deadlock?)"
    );

    let senders: Vec<Ps> = sim
        .nics
        .iter()
        .enumerate()
        .filter(|(_, nic)| !nic.flows.is_empty())
        .map(|(h, _)| sim.rank_finish[h])
        .collect();
    AppSimResult {
        completion_time_s: sim.last_delivery as f64 * 1e-12,
        delivered_packets: sim.delivered,
        total_packets,
        mean_packet_latency_s: if total_packets == 0 {
            0.0
        } else {
            sim.latency_sum as f64 / total_packets as f64 * 1e-12
        },
        mean_rank_finish_s: if senders.is_empty() {
            0.0
        } else {
            senders.iter().sum::<Ps>() as f64 / senders.len() as f64 * 1e-12
        },
    }
}

/// Runs a phased workload (e.g. a collective): each phase is a barrier —
/// all of phase `p` must be delivered before phase `p + 1` starts, as in
/// a blocking MPI collective. Returns the summed completion time and the
/// aggregate packet counts.
///
/// Each phase derives its routing seed from `cfg.seed` and the phase
/// index, so phase count does not perturb earlier phases.
pub fn simulate_phases(
    graph: &Graph,
    params: RrgParams,
    table: &PathTable,
    mechanism: AppMechanism,
    phases: &[Trace],
    cfg: AppSimConfig,
) -> AppSimResult {
    let mut total_time = 0.0;
    let mut delivered = 0;
    let mut total = 0;
    let mut latency_weighted = 0.0;
    let mut finish_weighted = 0.0;
    for (i, trace) in phases.iter().enumerate() {
        let mut phase_cfg = cfg;
        phase_cfg.seed = cfg.seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9));
        let r = simulate(graph, params, table, mechanism, trace, phase_cfg);
        total_time += r.completion_time_s;
        delivered += r.delivered_packets;
        total += r.total_packets;
        latency_weighted += r.mean_packet_latency_s * r.total_packets as f64;
        finish_weighted += r.mean_rank_finish_s;
    }
    AppSimResult {
        completion_time_s: total_time,
        delivered_packets: delivered,
        total_packets: total,
        mean_packet_latency_s: if total == 0 { 0.0 } else { latency_weighted / total as f64 },
        mean_rank_finish_s: finish_weighted,
    }
}

/// Runs a [`ScenarioPlan`] on the flow-level simulator: the plan is
/// materialized into one [`Trace`] per phase window over `[0, horizon)`
/// (see [`ScenarioPlan::phase_traces`]) and the windows run as barrier
/// phases through [`simulate_phases`]. The trace-driven mode is the
/// degenerate case — a plan holding only explicit flows (e.g. built
/// with [`ScenarioPlan::from_trace`]) yields a single window equal to
/// the original trace.
///
/// `horizon` is in the plan's cycle unit; it only cuts window
/// boundaries, so any horizon past the last phase start gives the same
/// windows.
pub fn simulate_scenario(
    graph: &Graph,
    params: RrgParams,
    table: &PathTable,
    mechanism: AppMechanism,
    plan: &ScenarioPlan,
    horizon: u64,
    cfg: AppSimConfig,
) -> AppSimResult {
    let phases = plan.phase_traces(params.num_hosts(), horizon, u64::from(cfg.packet_bytes));
    simulate_phases(graph, params, table, mechanism, &phases, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_routing::{PairSet, PathSelection};
    use jellyfish_topology::{build_rrg, ConstructionMethod};
    use jellyfish_traffic::{stencil_trace, FlowSpec, Mapping, StencilApp, StencilKind};

    #[test]
    fn packet_time_matches_paper() {
        // 1500 B at 20 GB/s = 75 ns = 75_000 ps.
        assert_eq!(AppSimConfig::paper().packet_time_ps(), 75_000);
    }

    /// Two switches, one link, one host each.
    fn two_switches() -> (Graph, RrgParams) {
        (Graph::from_edges(2, &[(0, 1)]), RrgParams::new(2, 2, 1))
    }

    #[test]
    fn single_flow_bandwidth_bound() {
        let (g, p) = two_switches();
        let t = PathTable::compute(&g, PathSelection::SinglePath, &PairSet::AllPairs, 0);
        let trace = Trace { flows: vec![FlowSpec { src: 0, dst: 1, bytes: 150_000 }] };
        let r = simulate(&g, p, &t, AppMechanism::Random, &trace, AppSimConfig::paper());
        assert_eq!(r.total_packets, 100);
        assert_eq!(r.delivered_packets, 100);
        // Pipeline: injection + link + ejection; steady state is one
        // packet per 75 ns, plus 2 packet-times of pipeline fill.
        let expected = 102.0 * 75e-9;
        assert!(
            (r.completion_time_s - expected).abs() < 1e-9,
            "got {}, expected {}",
            r.completion_time_s,
            expected
        );
    }

    #[test]
    fn two_flows_share_the_link() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let p = RrgParams::new(2, 3, 1); // two hosts per switch
        let t = PathTable::compute(&g, PathSelection::SinglePath, &PairSet::AllPairs, 0);
        let trace = Trace {
            flows: vec![
                FlowSpec { src: 0, dst: 2, bytes: 150_000 },
                FlowSpec { src: 1, dst: 3, bytes: 150_000 },
            ],
        };
        let r = simulate(&g, p, &t, AppMechanism::Random, &trace, AppSimConfig::paper());
        assert_eq!(r.delivered_packets, 200);
        // The shared switch link serializes 200 packets: ~200 packet
        // times, double the single-flow case.
        let expected = 200.0 * 75e-9;
        assert!(
            (r.completion_time_s - expected).abs() < 10.0 * 75e-9,
            "got {}, expected about {}",
            r.completion_time_s,
            expected
        );
    }

    #[test]
    fn same_switch_flow_bypasses_fabric() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let p = RrgParams::new(2, 3, 1);
        let t = PathTable::compute(&g, PathSelection::SinglePath, &PairSet::AllPairs, 0);
        let trace = Trace { flows: vec![FlowSpec { src: 0, dst: 1, bytes: 15_000 }] };
        let r = simulate(&g, p, &t, AppMechanism::KspAdaptive, &trace, AppSimConfig::paper());
        assert_eq!(r.delivered_packets, 10);
        // injection + ejection only: 10 packets + 1 fill.
        assert!((r.completion_time_s - 11.0 * 75e-9).abs() < 1e-9);
    }

    #[test]
    fn partial_last_packet_rounds_up() {
        let (g, p) = two_switches();
        let t = PathTable::compute(&g, PathSelection::SinglePath, &PairSet::AllPairs, 0);
        let trace = Trace { flows: vec![FlowSpec { src: 0, dst: 1, bytes: 1501 }] };
        let r = simulate(&g, p, &t, AppMechanism::Random, &trace, AppSimConfig::paper());
        assert_eq!(r.total_packets, 2);
    }

    #[test]
    fn tiny_buffers_still_drain() {
        // One buffer slot per VC: maximal backpressure, no deadlock.
        let (g, p) = two_switches();
        let t = PathTable::compute(&g, PathSelection::SinglePath, &PairSet::AllPairs, 0);
        let trace = Trace { flows: vec![FlowSpec { src: 0, dst: 1, bytes: 75_000 }] };
        let mut cfg = AppSimConfig::paper();
        cfg.buffer_packets = 1;
        let r = simulate(&g, p, &t, AppMechanism::Random, &trace, cfg);
        assert_eq!(r.delivered_packets, 50);
    }

    #[test]
    fn multipath_beats_single_path_under_contention() {
        // A 4-cycle: two disjoint paths between opposite corners. Two
        // hosts per switch all sending to the opposite switch.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let p = RrgParams::new(4, 4, 2);
        let pairs = PairSet::Pairs(vec![(0, 2)]);
        let single = PathTable::compute(&g, PathSelection::SinglePath, &pairs, 0);
        let multi = PathTable::compute(&g, PathSelection::EdKsp(2), &pairs, 0);
        let trace = Trace {
            flows: vec![
                FlowSpec { src: 0, dst: 4, bytes: 300_000 },
                FlowSpec { src: 1, dst: 5, bytes: 300_000 },
            ],
        };
        let r1 = simulate(&g, p, &single, AppMechanism::Random, &trace, AppSimConfig::paper());
        let r2 = simulate(&g, p, &multi, AppMechanism::KspAdaptive, &trace, AppSimConfig::paper());
        assert!(
            r2.completion_time_s < r1.completion_time_s * 0.75,
            "multi {} vs single {}",
            r2.completion_time_s,
            r1.completion_time_s
        );
    }

    #[test]
    fn stencil_on_small_rrg_completes() {
        let p = RrgParams::new(9, 6, 4);
        let g = build_rrg(p, ConstructionMethod::Incremental, 2).unwrap();
        let app = StencilApp::new_2d(StencilKind::Nn2d, 3, 6); // 18 ranks on 18 hosts
        let trace = stencil_trace(&app, Mapping::Linear, 60_000, p.num_hosts());
        let table = PathTable::compute(&g, PathSelection::REdKsp(4), &PairSet::AllPairs, 0);
        let r = simulate(&g, p, &table, AppMechanism::KspAdaptive, &trace, AppSimConfig::paper());
        assert_eq!(r.delivered_packets, r.total_packets);
        assert!(r.completion_time_s > 0.0);
        assert!(r.mean_packet_latency_s > 0.0);
    }

    #[test]
    fn dense_all_neighbor_traffic_never_deadlocks() {
        // The regression that motivated credit-based VC flow control: a
        // low-degree RRG with every host blasting diagonal-stencil
        // traffic used to cycle-deadlock under hold-the-link
        // backpressure.
        let p = RrgParams::new(12, 6, 3);
        let g = build_rrg(p, ConstructionMethod::Incremental, 7).unwrap();
        let app = StencilApp::for_ranks(StencilKind::Nn2dDiag, p.num_hosts()).unwrap();
        let trace = stencil_trace(&app, Mapping::Random { seed: 3 }, 150_000, p.num_hosts());
        for sel in [PathSelection::Ksp(8), PathSelection::REdKsp(8)] {
            let table = PathTable::compute(&g, sel, &PairSet::AllPairs, 0);
            let mut cfg = AppSimConfig::paper();
            cfg.buffer_packets = 4; // tight buffers stress backpressure
            let r = simulate(&g, p, &table, AppMechanism::KspAdaptive, &trace, cfg);
            assert_eq!(r.delivered_packets, r.total_packets);
        }
    }

    #[test]
    fn rank_finish_times_bracket_makespan() {
        let p = RrgParams::new(9, 6, 4);
        let g = build_rrg(p, ConstructionMethod::Incremental, 2).unwrap();
        let app = StencilApp::new_2d(StencilKind::Nn2d, 3, 6);
        let trace = stencil_trace(&app, Mapping::Linear, 60_000, p.num_hosts());
        let table = PathTable::compute(&g, PathSelection::REdKsp(4), &PairSet::AllPairs, 0);
        let r = simulate(&g, p, &table, AppMechanism::Random, &trace, AppSimConfig::paper());
        assert!(r.mean_rank_finish_s > 0.0);
        assert!(
            r.mean_rank_finish_s <= r.completion_time_s,
            "mean rank finish {} exceeds makespan {}",
            r.mean_rank_finish_s,
            r.completion_time_s
        );
        // Every rank sends, so the mean must be a sizable fraction of
        // the makespan for a symmetric stencil.
        assert!(r.mean_rank_finish_s >= 0.25 * r.completion_time_s);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = RrgParams::new(9, 6, 4);
        let g = build_rrg(p, ConstructionMethod::Incremental, 2).unwrap();
        let app = StencilApp::new_2d(StencilKind::Nn2dDiag, 3, 6);
        let trace = stencil_trace(&app, Mapping::Random { seed: 1 }, 30_000, p.num_hosts());
        let table = PathTable::compute(&g, PathSelection::RKsp(4), &PairSet::AllPairs, 0);
        let r1 = simulate(&g, p, &table, AppMechanism::Random, &trace, AppSimConfig::paper());
        let r2 = simulate(&g, p, &table, AppMechanism::Random, &trace, AppSimConfig::paper());
        assert_eq!(r1, r2);
    }

    #[test]
    fn phased_collective_runs_and_sums() {
        use jellyfish_traffic::{Collective, Mapping};
        let p = RrgParams::new(8, 6, 4);
        let g = build_rrg(p, ConstructionMethod::Incremental, 5).unwrap();
        let table = PathTable::compute(&g, PathSelection::REdKsp(4), &PairSet::AllPairs, 0);
        let phases = Collective::RecursiveDoublingAllReduce.phases(16, 15_000, Mapping::Linear, 16);
        let total = simulate_phases(
            &g,
            p,
            &table,
            AppMechanism::KspAdaptive,
            &phases,
            AppSimConfig::paper(),
        );
        assert_eq!(total.delivered_packets, total.total_packets);
        // Phase barrier: the summed time must be at least the max of the
        // individual phases (trivially true) and at least the bandwidth
        // bound of one phase times the number of phases.
        let one =
            simulate(&g, p, &table, AppMechanism::KspAdaptive, &phases[0], AppSimConfig::paper());
        assert!(total.completion_time_s >= one.completion_time_s * phases.len() as f64 * 0.5);
    }

    #[test]
    #[should_panic(expected = "flow to self")]
    fn self_flow_rejected() {
        let (g, p) = two_switches();
        let t = PathTable::compute(&g, PathSelection::SinglePath, &PairSet::AllPairs, 0);
        let trace = Trace { flows: vec![FlowSpec { src: 0, dst: 0, bytes: 1500 }] };
        simulate(&g, p, &t, AppMechanism::Random, &trace, AppSimConfig::paper());
    }

    #[test]
    fn trace_mode_is_a_degenerate_scenario() {
        // Promotion contract: wrapping a trace as a plan and running it
        // through the scenario path reproduces the plain trace run —
        // one window, same flows, same seed, identical result.
        let p = RrgParams::new(9, 6, 4);
        let g = build_rrg(p, ConstructionMethod::Incremental, 2).unwrap();
        let app = StencilApp::new_2d(StencilKind::Nn2d, 3, 6);
        let trace = stencil_trace(&app, Mapping::Linear, 60_000, p.num_hosts());
        let table = PathTable::compute(&g, PathSelection::REdKsp(4), &PairSet::AllPairs, 0);
        let cfg = AppSimConfig::paper();
        let plain = simulate(&g, p, &table, AppMechanism::KspAdaptive, &trace, cfg);
        let plan = ScenarioPlan::from_trace(&trace, u64::from(cfg.packet_bytes), 0);
        let promoted = simulate_scenario(&g, p, &table, AppMechanism::KspAdaptive, &plan, 1, cfg);
        // Byte counts round up to whole packets through the plan, so
        // compare packet counts and timing, which must be identical
        // when every flow is already packet-aligned... and the stencil
        // trace's 60 kB messages are.
        assert_eq!(promoted, plain);
    }

    #[test]
    fn phased_scenario_windows_run_as_barriers() {
        use jellyfish_traffic::{FlowSize, Matrix, ScenarioPlan};
        let p = RrgParams::new(9, 6, 4);
        let g = build_rrg(p, ConstructionMethod::Incremental, 2).unwrap();
        let table = PathTable::compute(&g, PathSelection::REdKsp(4), &PairSet::AllPairs, 0);
        let mut plan = ScenarioPlan::new(13);
        plan.add_flows(0, 0.001, FlowSize { min: 1, max: 20, alpha: 1.3 }, Matrix::Uniform);
        plan.add_steady(2000, 0.01, Matrix::Permutation { seed: 4 });
        plan.add_flow(2500, 0, 17, 40);
        let cfg = AppSimConfig::paper();
        let r = simulate_scenario(&g, p, &table, AppMechanism::KspAdaptive, &plan, 4000, cfg);
        assert!(r.total_packets >= 40, "{r:?}");
        assert_eq!(r.delivered_packets, r.total_packets);
        assert!(r.completion_time_s > 0.0);
        // Deterministic: the stochastic materialization draws only from
        // the plan seed.
        let r2 = simulate_scenario(&g, p, &table, AppMechanism::KspAdaptive, &plan, 4000, cfg);
        assert_eq!(r, r2);
    }
}
