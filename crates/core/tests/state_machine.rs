//! Exhaustive exercise of the paper's Fig. 4 transitions (1)-(13) through
//! the public policy API — each numbered edge is driven end to end. The
//! edges' *outcomes* are compared with an independent model in
//! `reference.rs`.

use mc_mem::{AccessKind, MachineDesc, MemorySystem, Nanos, NodeId, TierId, TieringPolicy, VPage};
use multi_clock::{MultiClock, MultiClockConfig, PageState, WhichList};

fn setup() -> (MemorySystem, MultiClock) {
    let mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
    let mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
    (mem, mc)
}

fn map_page(mem: &mut MemorySystem, mc: &mut MultiClock, v: u64, tier: TierId) -> mc_mem::FrameId {
    let f = mem.alloc_page_in_tier(tier).unwrap();
    mem.map(VPage::new(v), f).unwrap();
    mc.on_page_mapped(mem, f);
    f
}

#[test]
fn transition_5_new_pages_enter_inactive_unreferenced() {
    let (mut mem, mut mc) = setup();
    let f = map_page(&mut mem, &mut mc, 1, TierId::TOP);
    assert_eq!(mc.state_of(f), Some(PageState::InactiveUnref));
    mc.assert_invariants(&mem);
}

#[test]
fn transitions_1_2_reference_bit_toggles_inactive_state() {
    let (mut mem, mut mc) = setup();
    let f = map_page(&mut mem, &mut mc, 1, TierId::TOP);
    // (2): access observed at scan -> inactive referenced.
    mem.access(VPage::new(1), AccessKind::Read).unwrap();
    mc.tick(&mut mem, Nanos::from_secs(1));
    assert_eq!(mc.state_of(f), Some(PageState::InactiveRef));
    // (1) downward: unreferenced scan decays it back.
    mc.tick(&mut mem, Nanos::from_secs(2));
    assert_eq!(mc.state_of(f), Some(PageState::InactiveUnref));
}

#[test]
fn transition_6_second_observation_activates() {
    let (mut mem, mut mc) = setup();
    let f = map_page(&mut mem, &mut mc, 1, TierId::TOP);
    for s in 1..=2u64 {
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        mc.tick(&mut mem, Nanos::from_secs(s));
    }
    assert_eq!(mc.state_of(f), Some(PageState::ActiveUnref));
}

#[test]
fn transitions_7_8_active_pages_become_referenced() {
    let (mut mem, mut mc) = setup();
    let f = map_page(&mut mem, &mut mc, 1, TierId::TOP);
    for s in 1..=3u64 {
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        mc.tick(&mut mem, Nanos::from_secs(s));
    }
    assert_eq!(mc.state_of(f), Some(PageState::ActiveRef));
}

#[test]
fn transition_9_long_idle_active_page_deactivates_under_pressure() {
    let (mut mem, mut mc) = setup();
    // Fill DRAM so pressure has something to do.
    let mut v = 0u64;
    let mut frames = Vec::new();
    while let Ok(f) = mem.alloc_page_in_tier(TierId::TOP) {
        mem.map(VPage::new(v), f).unwrap();
        mc.on_page_mapped(&mut mem, f);
        frames.push(f);
        v += 1;
    }
    // Activate most pages, then let them idle: under pressure the
    // sqrt(10n):1 ratio rule forces unreferenced actives back to the
    // inactive list (transition 9).
    for f in &frames {
        mc.on_supervised_access(&mut mem, *f, AccessKind::Read);
        mc.on_supervised_access(&mut mem, *f, AccessKind::Read);
    }
    assert_eq!(mc.state_of(frames[0]), Some(PageState::ActiveUnref));
    mc.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
    assert!(mc.stats().deactivations > 0, "ratio rule deactivated pages");
    let inactive_now = mc
        .node_lists(NodeId::new(0))
        .list(WhichList::Inactive)
        .len();
    assert!(
        inactive_now > 0,
        "deactivated pages joined the inactive list"
    );
    mc.assert_invariants(&mem);
}

#[test]
fn transition_10_12_promote_entry_and_absorb() {
    let (mut mem, mut mc) = setup();
    let f = map_page(&mut mem, &mut mc, 1, TierId::TOP);
    for _ in 0..4 {
        mc.on_supervised_access(&mut mem, f, AccessKind::Read);
    }
    assert_eq!(mc.state_of(f), Some(PageState::Promote));
    // (12): further accesses keep it there.
    mc.on_supervised_access(&mut mem, f, AccessKind::Write);
    assert_eq!(mc.state_of(f), Some(PageState::Promote));
    mc.assert_invariants(&mem);
}

#[test]
fn transition_11_unreferenced_promote_page_ages_to_active() {
    let (mut mem, mut mc) = setup();
    let f = map_page(&mut mem, &mut mc, 1, TierId::TOP);
    for _ in 0..4 {
        mc.on_supervised_access(&mut mem, f, AccessKind::Read);
    }
    mc.tick(&mut mem, Nanos::from_secs(1));
    assert_eq!(mc.state_of(f), Some(PageState::ActiveUnref));
}

#[test]
fn transition_13_lower_tier_promote_pages_migrate_up() {
    let (mut mem, mut mc) = setup();
    let f = map_page(&mut mem, &mut mc, 1, TierId::new(1));
    for _ in 0..4 {
        mc.on_supervised_access(&mut mem, f, AccessKind::Read);
    }
    let out = mc.tick(&mut mem, Nanos::from_secs(1));
    assert_eq!(out.promoted, 1);
    let nf = mem.translate(VPage::new(1)).unwrap();
    assert_eq!(mem.frame(nf).tier(), TierId::TOP);
    assert_eq!(mc.state_of(nf), Some(PageState::ActiveRef));
    mc.assert_invariants(&mem);
}

#[test]
fn transition_3_cold_inactive_pages_demote_under_pressure() {
    let (mut mem, mut mc) = setup();
    let mut v = 0u64;
    while let Ok(f) = mem.alloc_page_in_tier(TierId::TOP) {
        mem.map(VPage::new(v), f).unwrap();
        mc.on_page_mapped(&mut mem, f);
        v += 1;
    }
    let out = mc.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
    assert!(out.demoted > 0);
    assert!(mem.stats().demotions > 0);
    mc.assert_invariants(&mem);
}

#[test]
fn transition_4_freed_pages_leave_the_machine() {
    // Pressure on the lowest tier evicts its coldest pages to storage.
    let (mut mem, mut mc) = setup();
    let pm = TierId::new(1);
    let oldest = map_page(&mut mem, &mut mc, 0, pm);
    let mut v = 1u64;
    while let Ok(f) = mem.alloc_page_in_tier(pm) {
        mem.map(VPage::new(v), f).unwrap();
        mc.on_page_mapped(&mut mem, f);
        v += 1;
    }
    mc.on_pressure(&mut mem, pm, Nanos::ZERO);
    assert!(mem.is_swapped(VPage::new(0)), "the oldest page left first");
    assert_eq!(mem.translate(VPage::new(0)), None);
    assert_eq!(mc.state_of(oldest), None);
    assert!(!mc.node_lists(NodeId::new(1)).contains(oldest));
    mc.assert_invariants(&mem);
}

#[test]
fn full_ladder_then_demotion_round_trip_preserves_invariants() {
    let (mut mem, mut mc) = setup();
    let _f = map_page(&mut mem, &mut mc, 7, TierId::new(1));
    // Up: four observed accesses -> promoted.
    for s in 1..=4u64 {
        mem.access(VPage::new(7), AccessKind::Read).unwrap();
        mc.tick(&mut mem, Nanos::from_secs(s));
        mc.assert_invariants(&mem);
    }
    let nf = mem.translate(VPage::new(7)).unwrap();
    assert_eq!(mem.frame(nf).tier(), TierId::TOP);
    // Down: go cold; decay to inactive; fill DRAM; pressure demotes it.
    for s in 5..=10u64 {
        mc.tick(&mut mem, Nanos::from_secs(s));
        mc.assert_invariants(&mem);
    }
    let mut v = 100u64;
    while let Ok(f2) = mem.alloc_page_in_tier(TierId::TOP) {
        mem.map(VPage::new(v), f2).unwrap();
        mc.on_page_mapped(&mut mem, f2);
        v += 1;
    }
    mc.on_pressure(&mut mem, TierId::TOP, Nanos::from_secs(11));
    mc.assert_invariants(&mem);
    // The tier is balanced again; the formerly hot page either survived
    // (fresh never-touched pages are equally cold demotion candidates) or
    // was demoted — both placements are legal; what matters is that
    // reclaim made room and the structure stayed consistent.
    assert!(mem.tier_balanced(TierId::TOP));
    assert!(mem.stats().demotions > 0);
}
