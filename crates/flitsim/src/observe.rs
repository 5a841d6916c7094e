//! Per-cycle telemetry: strided sampling of link/VC occupancy and
//! credit stalls during the measurement phase (`obs` feature only).
//!
//! The sampler reads the simulator's sender-side credit counters, so
//! "occupancy" here is the downstream view: buffered packets plus
//! credits still in flight on the return wire. That is exactly the
//! quantity the adaptive mechanisms see, which makes the heatmaps
//! directly comparable to the routing decisions they explain. Sampling
//! never mutates simulator state — attaching an observer leaves the
//! [`crate::stats::RunResult`] byte-identical.

use jellyfish_obs::{hist_to_json, LogHistogram};
use std::fmt::Write as _;

/// Observer settings.
#[derive(Debug, Clone, Copy)]
pub struct ObserveConfig {
    /// Sample every `stride`-th measured cycle (must be >= 1). The
    /// default of 64 keeps a paper-scale run's telemetry in the tens of
    /// kilobytes.
    pub stride: u32,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        Self { stride: 64 }
    }
}

/// Collects strided occupancy samples while the simulator runs.
#[derive(Debug)]
pub struct SimObserver {
    stride: u32,
    num_links: usize,
    num_vcs: usize,
    ticks: Vec<u32>,
    /// Tick-major, then link-major: `vc_occupancy[(t * links + l) * vcs + v]`.
    vc_occupancy: Vec<u16>,
    /// Tick-major: number of VCs on each link too short of credit to
    /// accept a packet.
    credit_stalls: Vec<u16>,
}

impl SimObserver {
    /// A fresh observer for a network of `num_links` directed links with
    /// `num_vcs` virtual channels each.
    pub fn new(cfg: ObserveConfig, num_links: usize, num_vcs: usize) -> Self {
        assert!(cfg.stride >= 1, "sampling stride must be >= 1");
        Self {
            stride: cfg.stride,
            num_links,
            num_vcs,
            ticks: Vec::new(),
            vc_occupancy: Vec::new(),
            credit_stalls: Vec::new(),
        }
    }

    /// The sampling stride in measured cycles.
    pub(crate) fn stride(&self) -> u32 {
        self.stride
    }

    /// Takes a sample if `rel_cycle` (cycles since measurement began)
    /// falls on the stride grid. `credits` is the simulator's flat
    /// `(link, vc)` free-slot array.
    #[inline]
    pub fn maybe_sample(
        &mut self,
        rel_cycle: u32,
        credits: &[u16],
        vc_buffer: u16,
        packet_flits: u16,
        num_vcs: usize,
    ) {
        if !rel_cycle.is_multiple_of(self.stride) {
            return;
        }
        // Fault plans attached after the observer can grow the VC count;
        // latch the real geometry on the first sample.
        if self.ticks.is_empty() {
            self.num_vcs = num_vcs;
            self.num_links = credits.len() / num_vcs;
        }
        debug_assert_eq!(credits.len(), self.num_links * self.num_vcs);
        self.ticks.push(rel_cycle);
        for link in 0..self.num_links {
            let base = link * self.num_vcs;
            let mut stalled = 0u16;
            for &c in &credits[base..base + self.num_vcs] {
                self.vc_occupancy.push(vc_buffer - c);
                stalled += u16::from(c < packet_flits);
            }
            self.credit_stalls.push(stalled);
        }
    }

    /// Freezes the collected samples into a report.
    pub fn into_metrics(self, link_utilization: Vec<f64>, latency: LogHistogram) -> SimMetrics {
        SimMetrics {
            stride: self.stride,
            num_links: self.num_links,
            num_vcs: self.num_vcs,
            ticks: self.ticks,
            vc_occupancy: self.vc_occupancy,
            credit_stalls: self.credit_stalls,
            link_utilization,
            latency,
        }
    }
}

/// The observer's report for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// Sampling stride in cycles.
    pub stride: u32,
    /// Directed links observed.
    pub num_links: usize,
    /// Virtual channels per link.
    pub num_vcs: usize,
    /// Measured-phase cycle of each sample tick.
    pub ticks: Vec<u32>,
    /// Downstream occupancy per `(tick, link, vc)`, tick-major then
    /// link-major.
    pub vc_occupancy: Vec<u16>,
    /// Per `(tick, link)`: VCs short of the credit needed to accept a
    /// packet.
    pub credit_stalls: Vec<u16>,
    /// Per-directed-link utilization over the measured cycles.
    pub link_utilization: Vec<f64>,
    /// Latency histogram over measured ejections.
    pub latency: LogHistogram,
}

impl SimMetrics {
    /// Occupancy slice for one tick: `num_links * num_vcs` values.
    pub fn occupancy_at(&self, tick: usize) -> &[u16] {
        let stride = self.num_links * self.num_vcs;
        &self.vc_occupancy[tick * stride..(tick + 1) * stride]
    }

    /// Per-tick, per-link occupancy summed over VCs.
    pub fn link_occupancy(&self) -> Vec<Vec<u32>> {
        (0..self.ticks.len())
            .map(|t| {
                self.occupancy_at(t)
                    .chunks(self.num_vcs.max(1))
                    .map(|vcs| vcs.iter().map(|&o| u32::from(o)).sum())
                    .collect()
            })
            .collect()
    }

    /// JSON rendering for dashboards: the latency summary, the per-link
    /// utilization heatmap, and per-tick link occupancy / credit-stall
    /// series (occupancy summed over VCs; the full per-VC matrix stays
    /// programmatic).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        writeln!(out, "  \"stride\": {},", self.stride).unwrap();
        writeln!(out, "  \"num_links\": {},", self.num_links).unwrap();
        writeln!(out, "  \"num_vcs\": {},", self.num_vcs).unwrap();
        writeln!(out, "  \"ticks\": {},", join_nums(self.ticks.iter())).unwrap();
        writeln!(out, "  \"latency\": {},", hist_to_json(&self.latency)).unwrap();
        let utils: Vec<String> = self
            .link_utilization
            .iter()
            .map(|u| if u.is_finite() { format!("{u}") } else { "null".into() })
            .collect();
        writeln!(out, "  \"link_utilization\": [{}],", utils.join(", ")).unwrap();
        let occ: Vec<String> =
            self.link_occupancy().iter().map(|row| join_nums(row.iter())).collect();
        writeln!(out, "  \"link_occupancy\": [{}],", occ.join(", ")).unwrap();
        let stalls: Vec<String> = self
            .credit_stalls
            .chunks(self.num_links.max(1))
            .map(|row| join_nums(row.iter()))
            .collect();
        writeln!(out, "  \"credit_stalls\": [{}]", stalls.join(", ")).unwrap();
        out.push_str("}\n");
        out
    }
}

fn join_nums<T: std::fmt::Display>(vals: impl Iterator<Item = T>) -> String {
    let items: Vec<String> = vals.map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_respects_stride_and_layout() {
        let mut obs = SimObserver::new(ObserveConfig { stride: 10 }, 2, 2);
        // 2 links x 2 VCs, vc_buffer 4: occupancies 4-c.
        let credits = [4u16, 3, 0, 2];
        for cycle in 0..25 {
            obs.maybe_sample(cycle, &credits, 4, 1, 2);
        }
        let m = obs.into_metrics(vec![0.5, 1.0], LogHistogram::new());
        assert_eq!(m.ticks, vec![0, 10, 20]);
        assert_eq!(m.occupancy_at(1), &[0, 1, 4, 2]);
        // Link 1's VC 0 has 0 credits -> stalled.
        assert_eq!(&m.credit_stalls[2..4], &[0, 1]);
        assert_eq!(m.link_occupancy()[0], vec![1, 6]);
        let json = m.to_json();
        assert!(json.contains("\"ticks\": [0, 10, 20]"));
        assert!(json.contains("\"link_occupancy\": [[1, 6], [1, 6], [1, 6]]"));
        assert!(json.contains("\"credit_stalls\": [[0, 1], [0, 1], [0, 1]]"));
        assert!(json.contains("\"p999\""));
    }

    #[test]
    fn first_sample_latches_geometry() {
        // Constructed for 2 links x 2 VCs, but the fault plan grew the
        // network to 3 VCs before the first sample.
        let mut obs = SimObserver::new(ObserveConfig::default(), 2, 2);
        let credits = [1u16, 1, 1, 1, 1, 1];
        obs.maybe_sample(0, &credits, 4, 1, 3);
        let m = obs.into_metrics(vec![0.0, 0.0], LogHistogram::new());
        assert_eq!(m.num_vcs, 3);
        assert_eq!(m.occupancy_at(0).len(), 6);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_is_rejected() {
        SimObserver::new(ObserveConfig { stride: 0 }, 1, 1);
    }
}
