//! A bounded drop-oldest ring: the one overflow policy shared by the
//! trace span rings, the event journal and the simulator's audit flight
//! recorder.
//!
//! A full ring evicts its oldest entry to make room ("keep the newest
//! history") and counts the eviction. Callers decide what an eviction
//! means to them — a registry counter, a `missed` count on a cursor
//! read, or nothing at all.

use std::collections::VecDeque;

/// At most `capacity` entries, oldest first, plus a count of the
/// entries evicted to make room.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` (≥ 1) entries. Storage
    /// for `reserve` entries (capped at `capacity`) is allocated up
    /// front; the rest grows on demand.
    pub fn new(capacity: usize, reserve: usize) -> Self {
        assert!(capacity >= 1, "ring capacity must be at least 1");
        Self { buf: VecDeque::with_capacity(reserve.min(capacity)), capacity, dropped: 0 }
    }

    /// Appends `item`, evicting the oldest entry first when the ring is
    /// full. Returns whether an entry was evicted.
    pub fn push(&mut self, item: T) -> bool {
        let evicted = self.buf.len() >= self.capacity;
        if evicted {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
        evicted
    }

    /// Entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Entries evicted since creation or the last [`Ring::take_dropped`].
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Returns the eviction count and resets it to zero.
    pub(crate) fn take_dropped(&mut self) -> u64 {
        std::mem::take(&mut self.dropped)
    }

    /// The held entries, oldest first.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.buf.iter()
    }

    /// Removes and yields every held entry, oldest first. The eviction
    /// count is left as it is.
    pub fn drain(&mut self) -> std::collections::vec_deque::Drain<'_, T> {
        self.buf.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_one_keeps_only_the_newest() {
        let mut r = Ring::new(1, 1);
        assert!(!r.push('a'));
        assert!(r.push('b'));
        assert!(r.push('c'));
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), ['c']);
        assert_eq!((r.len(), r.dropped()), (1, 2));
    }

    #[test]
    fn push_reports_and_counts_every_eviction() {
        let mut r = Ring::new(3, 0);
        let evicted: Vec<bool> = (0..7).map(|i| r.push(i)).collect();
        assert_eq!(evicted, [false, false, false, true, true, true, true]);
        assert_eq!(r.dropped(), 4);
        assert_eq!(r.take_dropped(), 4);
        assert_eq!(r.dropped(), 0);
        assert!(r.push(7));
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn iteration_and_drain_run_oldest_first() {
        let mut r = Ring::new(4, 2);
        for i in 0..6 {
            r.push(i);
        }
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [2, 3, 4, 5]);
        assert_eq!(r.drain().collect::<Vec<_>>(), [2, 3, 4, 5]);
        assert_eq!(r.len(), 0);
        assert_eq!(r.dropped(), 2, "draining keeps the eviction count");
        r.push(6);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [6]);
    }

    #[test]
    #[should_panic(expected = "ring capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = Ring::<u8>::new(0, 0);
    }
}
