//! A fixed-capacity event ring, the analogue of the kernel's per-CPU
//! ftrace ring buffer: when full, the oldest event is overwritten and a
//! drop counter is bumped, so tracing never grows memory without bound.

use crate::event::Event;
use std::collections::VecDeque;

/// Fixed-capacity overwrite-oldest event buffer.
#[derive(Debug, Clone)]
pub(crate) struct EventRing {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    total: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventRing {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
            total: 0,
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub(crate) fn push(&mut self, event: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped = self.dropped.saturating_add(1);
        }
        self.buf.push_back(event);
        self.total = self.total.saturating_add(1);
    }

    /// Events currently retained, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Events overwritten because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever pushed (retained + dropped).
    pub(crate) fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(seq: u64) -> Event {
        Event {
            seq,
            at_ns: seq * 10,
            kind: EventKind::TickBegin { tick: seq },
        }
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut ring = EventRing::new(3);
        for s in 0..5 {
            ring.push(ev(s));
        }
        assert_eq!(ring.iter().count(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.total(), 5);
        let seqs: Vec<u64> = ring.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring = EventRing::new(0);
        ring.push(ev(0));
        ring.push(ev(1));
        assert_eq!(ring.iter().count(), 1);
        assert_eq!(ring.iter().next().unwrap().seq, 1);
    }
}
