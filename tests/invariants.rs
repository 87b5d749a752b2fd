//! Property-based invariant tests (proptest) across the stack.

use mc_clock::{balance, IndexedList};
use mc_mem::{
    AccessKind, FrameId, MachineDesc, MemorySystem, Nanos, PageKind, TierId, TieringPolicy, VPage,
};
use mc_workloads::dist::{Latest, ScrambledZipfian, Zipfian};
use multi_clock::{MultiClock, MultiClockConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

// ---------------------------------------------------------------------
// IndexedList vs a reference deque implementation.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ListOp {
    PushBack(u32),
    PushFront(u32),
    Remove(u32),
    PopFront,
    PopBack,
    MoveToBack(u32),
    Drain,
}

/// Frame numbers from a sparse range, so the list's frame-indexed table
/// grows on demand and is exercised at high indices.
fn list_frame() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..64, 60_000u32..60_064]
}

fn list_op() -> impl Strategy<Value = ListOp> {
    prop_oneof![
        list_frame().prop_map(ListOp::PushBack),
        list_frame().prop_map(ListOp::PushFront),
        list_frame().prop_map(ListOp::Remove),
        Just(ListOp::PopFront),
        Just(ListOp::PopBack),
        list_frame().prop_map(ListOp::MoveToBack),
        Just(ListOp::Drain),
    ]
}

fn assert_list_matches(sys: &IndexedList, model: &VecDeque<u32>) {
    #[cfg(debug_assertions)]
    sys.check_links();
    assert_eq!(sys.len(), model.len());
    assert_eq!(sys.is_empty(), model.is_empty());
    assert_eq!(sys.front(), model.front().copied().map(FrameId::new));
    assert_eq!(sys.back(), model.back().copied().map(FrameId::new));
    let seen: Vec<u32> = sys.iter().map(|f| f.raw()).collect();
    let want: Vec<u32> = model.iter().copied().collect();
    assert_eq!(seen, want);
    for x in (0..64).chain(60_000..60_064) {
        assert_eq!(sys.contains(FrameId::new(x)), model.contains(&x));
    }
}

proptest! {
    #[test]
    fn indexed_list_matches_reference_model(
        ops in prop::collection::vec(list_op(), 1..200),
        fork_at in 0usize..200,
    ) {
        let mut sys = IndexedList::new();
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut fork = None;
        for (step, op) in ops.into_iter().enumerate() {
            if step == fork_at {
                fork = Some((sys.clone(), model.clone()));
            }
            match op {
                ListOp::PushBack(x) => {
                    if !model.contains(&x) {
                        sys.push_back(FrameId::new(x));
                        model.push_back(x);
                    }
                }
                ListOp::PushFront(x) => {
                    if !model.contains(&x) {
                        sys.push_front(FrameId::new(x));
                        model.push_front(x);
                    }
                }
                ListOp::Remove(x) => {
                    let was = model.iter().position(|v| *v == x);
                    let got = sys.remove(FrameId::new(x));
                    prop_assert_eq!(got, was.is_some());
                    if let Some(i) = was {
                        model.remove(i);
                    }
                }
                ListOp::PopFront => {
                    prop_assert_eq!(sys.pop_front(), model.pop_front().map(FrameId::new));
                }
                ListOp::PopBack => {
                    prop_assert_eq!(sys.pop_back(), model.pop_back().map(FrameId::new));
                }
                ListOp::MoveToBack(x) => {
                    let was = model.iter().position(|v| *v == x);
                    let got = sys.move_to_back(FrameId::new(x));
                    prop_assert_eq!(got, was.is_some());
                    if let Some(i) = was {
                        model.remove(i);
                        model.push_back(x);
                    }
                }
                ListOp::Drain => {
                    let want: Vec<FrameId> = model.drain(..).map(FrameId::new).collect();
                    prop_assert_eq!(sys.drain(), want);
                }
            }
            assert_list_matches(&sys, &model);
        }
        // A clone taken mid-sequence is independent in both directions:
        // the later operations did not reach it, and emptying it does not
        // reach the original.
        if let Some((mut forked, forked_model)) = fork {
            assert_list_matches(&forked, &forked_model);
            forked.drain();
            assert_list_matches(&sys, &model);
        }
    }

    #[test]
    fn inactive_ratio_is_monotone_in_tier_size(a in 1usize..1_000_000, b in 1usize..1_000_000) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(balance::inactive_ratio(lo) <= balance::inactive_ratio(hi));
    }

    // -----------------------------------------------------------------
    // Distributions.
    // -----------------------------------------------------------------

    #[test]
    fn zipfian_stays_in_range(items in 1u64..5_000, seed in 0u64..1000) {
        let z = Zipfian::ycsb_default(items);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(z.next(&mut rng) < items);
        }
    }

    #[test]
    fn scrambled_zipfian_stays_in_range(items in 1u64..5_000, seed in 0u64..1000) {
        let mut s = ScrambledZipfian::new(items);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(s.next(&mut rng) < items);
        }
    }

    #[test]
    fn latest_stays_in_range_while_growing(start in 1u64..2_000, grows in prop::collection::vec(1u64..50, 0..10)) {
        let mut l = Latest::new(start);
        let mut rng = StdRng::seed_from_u64(1);
        let mut n = start;
        for g in grows {
            n += g;
            l.grow(n);
            for _ in 0..50 {
                prop_assert!(l.next(&mut rng) < n);
            }
        }
    }

    // -----------------------------------------------------------------
    // Watermarks.
    // -----------------------------------------------------------------

    #[test]
    fn watermarks_ordered_for_any_split(node in 8usize..100_000, extra in 0usize..100_000) {
        let total = node + extra;
        let w = mc_mem::Watermarks::for_node(node, total);
        prop_assert!(w.min >= 1);
        prop_assert!(w.min < w.low);
        prop_assert!(w.low < w.high);
        prop_assert!(w.high < node.max(4));
    }
}

// ---------------------------------------------------------------------
// MULTI-CLOCK structural invariants under random driving.
// ---------------------------------------------------------------------

/// The library's own checker covers lists, states, tiers and flag
/// mirrors; see `multi_clock::validate`.
fn check_multi_clock_invariants(mem: &MemorySystem, mc: &MultiClock) {
    mc.assert_invariants(mem);
}

#[derive(Debug, Clone)]
enum DriveOp {
    MapTouch(u16),
    Touch(u16),
    Write(u16),
    Tick,
    Pressure(u8),
}

fn drive_op() -> impl Strategy<Value = DriveOp> {
    prop_oneof![
        (0u16..600).prop_map(DriveOp::MapTouch),
        (0u16..600).prop_map(DriveOp::Touch),
        (0u16..600).prop_map(DriveOp::Write),
        Just(DriveOp::Tick),
        (0u8..2).prop_map(DriveOp::Pressure),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn multi_clock_invariants_hold_under_random_ops(ops in prop::collection::vec(drive_op(), 1..120)) {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        let mut now = Nanos::ZERO;
        for op in ops {
            match op {
                DriveOp::MapTouch(v) => {
                    let vp = VPage::new(v as u64);
                    if mem.translate(vp).is_none() {
                        if let Ok(f) = mem.alloc_page(PageKind::Anon) {
                            mem.map(vp, f).unwrap();
                            mc.on_page_mapped(&mut mem, f);
                        }
                    }
                    if mem.translate(vp).is_some() {
                        mem.access(vp, AccessKind::Read).unwrap();
                    }
                }
                DriveOp::Touch(v) => {
                    let vp = VPage::new(v as u64);
                    if mem.translate(vp).is_some() {
                        mem.access(vp, AccessKind::Read).unwrap();
                    }
                }
                DriveOp::Write(v) => {
                    let vp = VPage::new(v as u64);
                    if mem.translate(vp).is_some() {
                        mem.access(vp, AccessKind::Write).unwrap();
                    }
                }
                DriveOp::Tick => {
                    now += Nanos::from_secs(1);
                    mc.tick(&mut mem, now);
                }
                DriveOp::Pressure(t) => {
                    mc.on_pressure(&mut mem, TierId::new(t), now);
                }
            }
            check_multi_clock_invariants(&mem, &mc);
        }
    }

    /// Accounting invariant: allocations - frees == live frames; tier
    /// free counts match watermark arithmetic.
    #[test]
    fn memory_accounting_balances(ops in prop::collection::vec((0u16..400, any::<bool>()), 1..200)) {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        for (v, write) in ops {
            let vp = VPage::new(v as u64);
            if mem.translate(vp).is_none() {
                if let Ok(f) = mem.alloc_page(PageKind::Anon) {
                    mem.map(vp, f).unwrap();
                }
            }
            if let Some(_f) = mem.translate(vp) {
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                mem.access(vp, kind).unwrap();
            }
            let live = mem.stats().allocs - mem.stats().frees;
            let used: usize = (0..mem.topology().tier_count())
                .map(|t| mem.tier_used(TierId::new(t as u8)))
                .sum();
            prop_assert_eq!(live as usize, used);
            prop_assert_eq!(mem.page_table().len(), used);
        }
    }
}
