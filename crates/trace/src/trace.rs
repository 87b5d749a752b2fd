//! The trace data structure.

use mc_mem::{AccessKind, Nanos, VPage};

/// One recorded page touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the access.
    pub at: Nanos,
    /// The page touched.
    pub vpage: VPage,
    /// Load or store.
    pub kind: AccessKind,
    /// Bytes touched within the page (1..=4096).
    pub bytes: u16,
}

/// A recorded page-access trace.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event. Events must be appended in non-decreasing time
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous event or `bytes` is zero or
    /// exceeds a page.
    pub fn push(&mut self, ev: TraceEvent) {
        if let Some(last) = self.events.last() {
            assert!(ev.at >= last.at, "trace events must be time-ordered");
        }
        assert!(
            (1..=mc_mem::PAGE_SIZE as u16).contains(&ev.bytes),
            "bytes must be within a page"
        );
        self.events.push(ev);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceEvent>>(iter: T) -> Self {
        let mut t = Trace::new();
        for e in iter {
            t.push(e);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, page: u64, write: bool) -> TraceEvent {
        TraceEvent {
            at: Nanos::from_nanos(at),
            vpage: VPage::new(page),
            kind: if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            bytes: 8,
        }
    }

    #[test]
    fn push_and_stats() {
        let t: Trace = [ev(10, 1, false), ev(20, 2, true), ev(30, 1, false)]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        let pages: Vec<u64> = t.events().iter().map(|e| e.vpage.raw()).collect();
        assert_eq!(pages, [1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_rejected() {
        let mut t = Trace::new();
        t.push(ev(20, 1, false));
        t.push(ev(10, 1, false));
    }
}
