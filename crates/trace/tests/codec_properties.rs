//! Property-based tests for the trace codec and heat-map analytics.

use mc_mem::{AccessKind, Nanos, VPage, PAGE_SIZE};
use mc_trace::{Heatmap, Trace, TraceEvent};
use proptest::prelude::*;

fn arb_event_deltas() -> impl Strategy<Value = Vec<(u64, u64, bool, u16)>> {
    // (time delta, page, is_write, bytes)
    prop::collection::vec(
        (
            0u64..10_000,
            0u64..5_000,
            any::<bool>(),
            1u16..=PAGE_SIZE as u16,
        ),
        0..300,
    )
}

fn build(deltas: &[(u64, u64, bool, u16)]) -> Trace {
    let mut t = Trace::new();
    let mut at = 0u64;
    for (d, page, write, bytes) in deltas {
        at += d;
        t.push(TraceEvent {
            at: Nanos::from_nanos(at),
            vpage: VPage::new(*page),
            kind: if *write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            bytes: *bytes,
        });
    }
    t
}

proptest! {
    #[test]
    fn codec_roundtrip_is_lossless(deltas in arb_event_deltas(), mapped in 0u64..1_000_000) {
        let mut t = build(&deltas);
        // A readable file's `mapped_pages` covers every page in it.
        t.mapped_pages = t.mapped_pages.max(mapped);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn truncation_anywhere_is_detected(deltas in arb_event_deltas(), cut in 0usize..64) {
        let t = build(&deltas);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        if buf.len() > 24 {
            // Cut somewhere strictly inside the payload.
            let keep = 24 + (cut % (buf.len() - 24).max(1));
            if keep < buf.len() {
                buf.truncate(keep);
                prop_assert!(Trace::read_from(&mut buf.as_slice()).is_err());
            }
        }
    }

    #[test]
    fn heatmap_conserves_event_counts(deltas in arb_event_deltas(), window_us in 1u64..1_000) {
        let t = build(&deltas);
        let h = Heatmap::build(&t, Nanos::from_micros(window_us));
        let total: u64 = h.counts().iter().flatten().map(|c| *c as u64).sum();
        prop_assert_eq!(total, t.len() as u64, "every event lands in exactly one cell");
        let by_totals: u64 = h.totals().iter().map(|c| *c as u64).sum();
        prop_assert_eq!(by_totals, t.len() as u64);
    }

    #[test]
    fn unique_pages_matches_heatmap_page_axis(deltas in arb_event_deltas()) {
        let t = build(&deltas);
        let h = Heatmap::build(&t, Nanos::from_micros(100));
        prop_assert_eq!(h.pages().len(), t.unique_pages());
    }
}
