//! Trace replay: drive any [`Memory`] from a recorded trace.

use crate::trace::Trace;
use mc_mem::Memory;
use mc_mem::{AccessKind, Nanos, PageKind, PAGE_SIZE};

/// What a replay did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// Events issued against the target memory.
    pub events_replayed: u64,
    /// Total idle (inter-arrival) time inserted to honour the trace's
    /// original pacing.
    pub idle_time: Nanos,
    /// Virtual time the replay took on the target.
    pub elapsed: Nanos,
}

/// Replays `trace` against `mem`, preserving the original inter-arrival
/// gaps: if the target memory is slower than the recording one, accesses
/// slip later (an open-loop replay would be unfaithful to a closed-loop
/// workload; this replay is closed-loop with think-time).
///
/// Pages are addressed by their recorded page numbers inside one region
/// mapped to cover the trace's address range.
pub fn replay<M: Memory + ?Sized>(trace: &Trace, mem: &mut M) -> ReplayStats {
    let mut stats = ReplayStats::default();
    let Some(max_page) = trace.events().iter().map(|e| e.vpage.raw()).max() else {
        return stats;
    };
    let region = mem.mmap((max_page as usize + 1) * PAGE_SIZE, PageKind::Anon);
    let start = mem.now();
    let first_at = trace.events()[0].at;
    let mut prev_at = first_at;
    for e in trace.events() {
        // Honour the recorded think time between events.
        let gap = e.at - prev_at;
        prev_at = e.at;
        if gap > Nanos::ZERO {
            mem.compute(gap);
        }
        let addr = region.add(e.vpage.raw() * PAGE_SIZE as u64);
        match e.kind {
            AccessKind::Read => mem.read(addr, e.bytes as usize),
            AccessKind::Write => mem.write(addr, e.bytes as usize),
        }
        stats.events_replayed += 1;
        stats.idle_time += gap;
    }
    stats.elapsed = mem.now() - start;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Recorder;
    use crate::trace::TraceEvent;
    use mc_mem::SimpleMemory;
    use mc_mem::VPage;

    fn ev(at: u64, page: u64, bytes: u16) -> TraceEvent {
        TraceEvent {
            at: Nanos::from_nanos(at),
            vpage: VPage::new(page),
            kind: AccessKind::Read,
            bytes,
        }
    }

    #[test]
    fn replay_touches_the_recorded_pages() {
        let trace: Trace = [ev(0, 0, 8), ev(100, 3, 8), ev(200, 3, 8)]
            .into_iter()
            .collect();
        let mut mem = SimpleMemory::new();
        let stats = replay(&trace, &mut mem);
        assert_eq!(stats.events_replayed, 3);
        assert_eq!(mem.accesses, 3);
    }

    #[test]
    fn replay_preserves_think_time() {
        let trace: Trace = [ev(0, 0, 8), ev(10_000, 0, 8)].into_iter().collect();
        let mut mem = SimpleMemory::new();
        let stats = replay(&trace, &mut mem);
        assert_eq!(stats.idle_time.as_nanos(), 10_000);
        // Elapsed = think time + two access costs.
        assert_eq!(stats.elapsed.as_nanos(), 10_000 + 2 * 100);
    }

    #[test]
    fn record_then_replay_produces_identical_touch_sequence() {
        // Round-trip: record a run, replay it, record the replay — the
        // two traces touch the same pages in the same order.
        let mut rec = Recorder::new(SimpleMemory::new());
        let a = rec.mmap(PAGE_SIZE * 8, PageKind::Anon);
        for i in [0u64, 5, 2, 5, 7, 1] {
            rec.read(a.add(i * PAGE_SIZE as u64), 16);
            rec.compute(Nanos::from_nanos(50));
        }
        let original = rec.finish();

        let mut rec2 = Recorder::new(SimpleMemory::new());
        replay(&original, &mut rec2);
        let replayed = rec2.finish();

        let pages = |t: &Trace| t.events().iter().map(|e| e.vpage.raw()).collect::<Vec<_>>();
        assert_eq!(pages(&original), pages(&replayed));
        let sizes = |t: &Trace| t.events().iter().map(|e| e.bytes).collect::<Vec<_>>();
        assert_eq!(sizes(&original), sizes(&replayed));
    }

    #[test]
    fn empty_trace_is_a_no_op() {
        let mut mem = SimpleMemory::new();
        let stats = replay(&Trace::new(), &mut mem);
        assert_eq!(stats.events_replayed, 0);
        assert_eq!(mem.accesses, 0);
    }
}
