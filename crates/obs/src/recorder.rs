//! The tracepoint recorder: the one event ring every instrumented layer
//! emits into.
//!
//! Emission is zero-cost when disabled — [`Recorder::emit`] takes a
//! closure producing the payload, so with tracing off neither the payload
//! nor the [`Event`] envelope is constructed; the call inlines to a
//! single branch on a bool. This mirrors how kernel tracepoints compile
//! to a static-branch no-op when the tracepoint is unregistered.

use crate::event::{Event, EventKind, FIG4_EDGES};
use crate::ring::EventRing;

/// Default ring capacity when enabling without an explicit size.
pub(crate) const DEFAULT_RING_CAPACITY: usize = 65_536;

/// A trace recorder carrying the ring buffer, the current virtual time
/// and a monotone sequence counter.
#[derive(Debug, Clone)]
pub struct Recorder {
    ring: Option<EventRing>,
    now_ns: u64,
    seq: u64,
    fig4_hits: [u64; FIG4_EDGES + 1],
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Recorder {
    /// A recorder with tracing off; every [`Recorder::emit`] is a no-op.
    pub fn disabled() -> Self {
        Recorder {
            ring: None,
            now_ns: 0,
            seq: 0,
            fig4_hits: [0; FIG4_EDGES + 1],
        }
    }

    /// A recorder with tracing on and a ring of `capacity` events.
    pub fn enabled(capacity: usize) -> Self {
        Recorder {
            ring: Some(EventRing::new(capacity)),
            ..Recorder::disabled()
        }
    }

    /// Whether tracing is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Updates the virtual timestamp stamped on subsequent events.
    #[inline]
    pub fn set_now(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// Records one event. The payload closure runs only when tracing is
    /// enabled, so callers may build payloads (and compute their fields)
    /// unconditionally inside it.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> EventKind) {
        let Some(ring) = self.ring.as_mut() else {
            return;
        };
        let kind = f();
        if let EventKind::Fig4 { edge, .. } = kind {
            if let Some(slot) = self.fig4_hits.get_mut(edge as usize) {
                *slot = slot.saturating_add(1);
            }
        }
        ring.push(Event {
            seq: self.seq,
            at_ns: self.now_ns,
            kind,
        });
        self.seq += 1;
    }

    /// Events currently retained, oldest first (empty when disabled).
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter().flat_map(|r| r.iter())
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.dropped())
    }

    /// Total events ever emitted (retained + dropped).
    pub fn total(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.total())
    }

    /// How often each Fig. 4 edge fired, counted at emission time (so the
    /// tallies survive ring overwrites). Index 0 is unused; indices
    /// 1..=13 match the edge ids.
    pub fn fig4_hits(&self) -> &[u64; FIG4_EDGES + 1] {
        &self.fig4_hits
    }

    /// Serialises the retained events as JSONL (one event per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_skips_payload_construction() {
        let mut r = Recorder::disabled();
        let mut built = false;
        r.emit(|| {
            built = true;
            EventKind::TickBegin { tick: 0 }
        });
        assert!(!built, "payload closure must not run when disabled");
        assert_eq!(r.events().count(), 0);
    }

    #[test]
    fn enabled_recorder_stamps_time_and_seq() {
        let mut r = Recorder::enabled(16);
        r.set_now(100);
        r.emit(|| EventKind::TickBegin { tick: 1 });
        r.set_now(250);
        r.emit(|| EventKind::TickEnd {
            tick: 1,
            scanned: 4,
            promoted: 1,
            demoted: 0,
        });
        let evs: Vec<&Event> = r.events().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].seq, evs[0].at_ns), (0, 100));
        assert_eq!((evs[1].seq, evs[1].at_ns), (1, 250));
    }

    #[test]
    fn fig4_hits_survive_ring_overwrite() {
        let mut r = Recorder::enabled(2);
        for i in 0..10 {
            r.emit(|| EventKind::Fig4 {
                edge: 13,
                frame: i,
                tier: 1,
            });
        }
        assert_eq!(r.events().count(), 2);
        assert_eq!(r.dropped(), 8);
        assert_eq!(r.fig4_hits()[13], 10);
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let mut r = Recorder::enabled(8);
        r.emit(|| EventKind::Alloc { frame: 1, tier: 0 });
        r.emit(|| EventKind::Evict { vpage: 2 });
        let text = r.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(crate::json::parse_flat_object(line).is_ok());
        }
    }
}
