//! Event queue primitives and the trace-simulator routing mechanisms.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in picoseconds.
pub type Ps = u64;

/// Routing mechanisms the paper added to CODES.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppMechanism {
    /// Uniformly random path per packet.
    Random,
    /// KSP-adaptive: best (by first-hop queue length × hops) of two
    /// random candidate paths.
    KspAdaptive,
}

impl AppMechanism {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AppMechanism::Random => "random",
            AppMechanism::KspAdaptive => "KSP-adaptive",
        }
    }
}

/// What a scheduled event does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Host NIC finished transmitting a packet onto its switch.
    HostDepart(u32),
    /// A switch-to-switch channel finished transmitting its head packet.
    LinkDepart(u32),
    /// A host ejection channel delivered a packet.
    EjectDepart(u32),
}

/// Deterministic time-ordered event queue (FIFO among equal timestamps).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(Ps, u64, EventKindRepr)>>,
    seq: u64,
}

/// Packed representation so the heap key is `Ord` without custom impls.
type EventKindRepr = (u8, u32);

fn pack(kind: EventKind) -> EventKindRepr {
    match kind {
        EventKind::HostDepart(h) => (0, h),
        EventKind::LinkDepart(l) => (1, l),
        EventKind::EjectDepart(h) => (2, h),
    }
}

fn unpack(repr: EventKindRepr) -> EventKind {
    match repr {
        (0, h) => EventKind::HostDepart(h),
        (1, l) => EventKind::LinkDepart(l),
        (2, h) => EventKind::EjectDepart(h),
        _ => unreachable!("invalid packed event"),
    }
}

impl EventQueue {
    /// Schedules `kind` at absolute time `at`.
    pub fn schedule(&mut self, at: Ps, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, pack(kind))));
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(Ps, EventKind)> {
        self.heap.pop().map(|Reverse((t, _, k))| (t, unpack(k)))
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::default();
        q.schedule(30, EventKind::LinkDepart(1));
        q.schedule(10, EventKind::HostDepart(2));
        q.schedule(20, EventKind::EjectDepart(3));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((10, EventKind::HostDepart(2))));
        assert_eq!(q.pop(), Some((20, EventKind::EjectDepart(3))));
        assert_eq!(q.pop(), Some((30, EventKind::LinkDepart(1))));
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::default();
        q.schedule(5, EventKind::LinkDepart(9));
        q.schedule(5, EventKind::LinkDepart(7));
        q.schedule(5, EventKind::HostDepart(1));
        assert_eq!(q.pop(), Some((5, EventKind::LinkDepart(9))));
        assert_eq!(q.pop(), Some((5, EventKind::LinkDepart(7))));
        assert_eq!(q.pop(), Some((5, EventKind::HostDepart(1))));
    }

    #[test]
    fn mechanism_names() {
        assert_eq!(AppMechanism::Random.name(), "random");
        assert_eq!(AppMechanism::KspAdaptive.name(), "KSP-adaptive");
    }
}
