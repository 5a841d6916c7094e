//! Simulator configuration (paper Section IV-A, "Simulator modification
//! and settings").

/// How hosts generate packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InjectionProcess {
    /// Independent Bernoulli trial per host per cycle (Booksim's
    /// default and the paper's setting).
    #[default]
    Bernoulli,
    /// Deterministic fluid pacing: each host accumulates `rate` credits
    /// per cycle and injects whenever a full credit is available.
    /// Removes injection burstiness; useful for ablations.
    Periodic,
}

/// Form of the adaptive mechanisms' path-latency estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimateForm {
    /// `queue(first hop) + (channel latency + 1) * hops` — a physical
    /// latency estimate: serialization wait behind queued packets plus
    /// the pipeline delay of the remaining hops. With deep buffers the
    /// queue term dominates, so two-choice selection behaves like
    /// power-of-two-choices load balancing — this reproduces the paper's
    /// ordering (KSP-adaptive > KSP-UGAL) and is the default.
    #[default]
    QueuePlusHopLatency,
    /// `queue(first hop) * hops` — the classic UGAL cost product. It
    /// weighs path length much more aggressively, anchoring traffic to
    /// minimal paths; kept for the estimate-form ablation.
    QueueTimesHops,
}

/// Knobs of the cycle-level simulator. [`SimConfig::paper`] reproduces the
/// settings of the paper's Booksim runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Channel traversal latency in cycles (paper: 10).
    pub channel_latency: u32,
    /// Buffer depth per virtual channel, in flits (paper: 32; with the
    /// paper's single-flit packets this is also a packet count).
    pub vc_buffer: u16,
    /// Flits per packet (paper: 1). Larger packets occupy each channel
    /// for `packet_flits` consecutive cycles and consume that many
    /// credits, transferring store-and-forward at packet granularity.
    pub packet_flits: u16,
    /// Router speedup (paper: 2.0): how many grants one input port can
    /// win per cycle, across its VCs and the local outputs they request.
    /// Each output still grants at most once per cycle. The name is
    /// historical: the allocator makes one pass over the outputs, since
    /// further iterations could never grant (an output left ungranted
    /// had only requesters already at this cap).
    pub alloc_iters: u8,
    /// Warmup cycles before measurement (paper: 500).
    pub warmup_cycles: u32,
    /// Length of one sample window in cycles (paper: 500).
    pub sample_cycles: u32,
    /// Number of sample windows (paper: 10).
    pub num_samples: u32,
    /// A sample whose mean packet latency exceeds this marks the network
    /// saturated (paper: 500 cycles).
    pub saturation_latency: f64,
    /// Per-host source-queue cap; overflowing it also marks saturation
    /// (Booksim's source queues are unbounded, but a bounded queue keeps
    /// memory finite deep into saturation without changing the
    /// saturation verdict).
    pub source_queue_cap: usize,
    /// How hosts generate packets.
    pub injection: InjectionProcess,
    /// Latency-estimate form used by the adaptive mechanisms.
    pub estimate: EstimateForm,
    /// UGAL minimal-path bias in estimate units: the minimal path wins
    /// when `est(min) <= est(non-min) + ugal_bias`. The paper's setting
    /// is 0 ("no bias towards MIN or VLB paths"); positive values favor
    /// minimal routing. Applies to vanilla UGAL and KSP-UGAL only.
    pub ugal_bias: i64,
    /// How many cycles a packet stuck behind a failed link may retry
    /// rerouting before it is dropped (fault injection only; irrelevant
    /// without a fault plan).
    pub fault_retry_budget: u32,
    /// Whether the simulator recomputes paths for fault-affected pairs
    /// (`true`, modelling a routing control plane that reconverges) or
    /// only masks dead paths, leaving pairs with whatever survives
    /// (`false`, measuring the path set's intrinsic fault tolerance).
    pub fault_repair: bool,
    /// RNG seed for injection, destinations, and adaptive choices.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's Booksim settings.
    pub fn paper() -> Self {
        Self {
            channel_latency: 10,
            vc_buffer: 32,
            packet_flits: 1,
            alloc_iters: 2,
            warmup_cycles: 500,
            sample_cycles: 500,
            num_samples: 10,
            saturation_latency: 500.0,
            source_queue_cap: 1024,
            injection: InjectionProcess::Bernoulli,
            estimate: EstimateForm::QueuePlusHopLatency,
            ugal_bias: 0,
            fault_retry_budget: 8,
            fault_repair: true,
            seed: 0,
        }
    }

    /// Total simulated cycles (warmup + measurement).
    pub fn total_cycles(&self) -> u32 {
        self.warmup_cycles + self.sample_cycles * self.num_samples
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.channel_latency == 0 {
            return Err("channel_latency must be >= 1");
        }
        if self.vc_buffer == 0 {
            return Err("vc_buffer must be >= 1");
        }
        if self.packet_flits == 0 {
            return Err("packet_flits must be >= 1");
        }
        if self.packet_flits > self.vc_buffer {
            return Err("a packet must fit in one VC buffer");
        }
        if self.alloc_iters == 0 {
            return Err("alloc_iters must be >= 1");
        }
        if self.sample_cycles == 0 || self.num_samples == 0 {
            return Err("need a non-empty measurement phase");
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_settings() {
        let c = SimConfig::paper();
        assert_eq!(c.channel_latency, 10);
        assert_eq!(c.vc_buffer, 32);
        assert_eq!(c.alloc_iters, 2);
        assert_eq!(c.total_cycles(), 500 + 5000);
        c.validate().unwrap();
    }

    #[test]
    fn invalid_configs() {
        let mut c = SimConfig::paper();
        c.channel_latency = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper();
        c.num_samples = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper();
        c.packet_flits = 64; // exceeds vc_buffer
        assert!(c.validate().is_err());
    }
}
