//! Edge-case tests for the memory substrate beyond the per-module units.

use mc_mem::{AccessKind, MachineDesc, MemError, MemorySystem, NodeId, PageKind, TierId, VPage};

fn small() -> MemorySystem {
    MemorySystem::new(MachineDesc::dram_pm(32, 128))
}

#[test]
fn migrate_unmapped_frame_moves_metadata_only() {
    // A frame can be allocated but not (yet) mapped; migration must still
    // work and simply carry no vpage.
    let mut mem = small();
    let f = mem.alloc_page(PageKind::File).unwrap();
    let nf = mem.migrate(f, TierId::new(1)).unwrap();
    assert_eq!(mem.frame(nf).tier(), TierId::new(1));
    assert_eq!(mem.frame(nf).vpage(), None);
    let events = mem.drain_events();
    assert_eq!(events.len(), 1);
    let mc_mem::MemEvent::Migrated { vpage, .. } = events[0];
    assert_eq!(vpage, None);
}

#[test]
fn evict_unmapped_frame_frees_without_swap_entry() {
    let mut mem = small();
    let f = mem.alloc_page(PageKind::Anon).unwrap();
    mem.evict(f).unwrap();
    assert_eq!(mem.stats().evictions, 1);
    // Nothing to swap in: no event beyond the free.
    assert!(mem.drain_events().is_empty());
}

#[test]
fn poison_then_unmap_then_remap_is_clean() {
    let mut mem = small();
    let f = mem.alloc_page(PageKind::Anon).unwrap();
    let v = VPage::new(5);
    mem.map(v, f).unwrap();
    assert!(mem.poison(v));
    mem.evict(f).unwrap();
    assert!(
        !mem.poison(VPage::new(5)),
        "unmapped page cannot be poisoned"
    );
    let f2 = mem.alloc_page(PageKind::Anon).unwrap();
    mem.note_swap_in(v);
    mem.map(v, f2).unwrap();
    let out = mem.access(v, AccessKind::Read).unwrap();
    assert!(!out.hint_fault, "fresh mapping has no stale poison");
}

#[test]
fn double_map_rejected_and_unmap_returns_frame() {
    let mut mem = small();
    let f1 = mem.alloc_page(PageKind::Anon).unwrap();
    let f2 = mem.alloc_page(PageKind::Anon).unwrap();
    let v = VPage::new(9);
    mem.map(v, f1).unwrap();
    assert_eq!(mem.map(v, f2), Err(MemError::AlreadyMapped(v)));
    assert_eq!(mem.frame(f2).vpage(), None, "the refused map left no trace");
    // Eviction unmaps the page and returns its frame to the free list.
    mem.evict(f1).unwrap();
    assert_eq!(mem.access(v, AccessKind::Read), Err(MemError::NotMapped(v)));
    assert_eq!(mem.alloc_page(PageKind::Anon), Ok(f1));
}

#[test]
fn mapping_a_free_frame_rejected() {
    let mut mem = small();
    let f = mem.alloc_page(PageKind::Anon).unwrap();
    mem.evict(f).unwrap();
    assert_eq!(
        mem.map(VPage::new(1), f),
        Err(MemError::FrameNotAllocated(f))
    );
}

#[test]
fn alloc_in_bogus_tier_rejected() {
    let mut mem = small();
    assert_eq!(
        mem.alloc_page_in_tier(PageKind::Anon, TierId::new(7)),
        Err(MemError::NoSuchTier(TierId::new(7)))
    );
}

#[test]
fn swap_cycle_preserves_swapped_set_across_frames() {
    let mut mem = small();
    let f = mem.alloc_page(PageKind::Anon).unwrap();
    let v = VPage::new(3);
    mem.map(v, f).unwrap();
    mem.access(v, AccessKind::Write).unwrap();
    mem.evict(f).unwrap();
    assert!(mem.is_swapped(v));
    // Swap-in via a brand-new frame.
    let f2 = mem.alloc_page(PageKind::Anon).unwrap();
    mem.note_swap_in(v);
    mem.map(v, f2).unwrap();
    assert!(!mem.is_swapped(v));
    assert_eq!(mem.stats().swap_ins, 1);
    // Second note is a no-op.
    mem.note_swap_in(v);
    assert_eq!(mem.stats().swap_ins, 1);
}

#[test]
fn tier_accesses_counter_tracks_placement() {
    let mut mem = small();
    let d = mem.alloc_page_in_tier(PageKind::Anon, TierId::TOP).unwrap();
    let p = mem
        .alloc_page_in_tier(PageKind::Anon, TierId::new(1))
        .unwrap();
    mem.map(VPage::new(1), d).unwrap();
    mem.map(VPage::new(2), p).unwrap();
    mem.access(VPage::new(1), AccessKind::Read).unwrap();
    mem.access(VPage::new(1), AccessKind::Read).unwrap();
    mem.access(VPage::new(2), AccessKind::Read).unwrap();
    let s = mem.stats();
    assert_eq!(s.tier_accesses[0], 2);
    assert_eq!(s.tier_accesses[1], 1);
    assert!((s.fast_tier_share(mem.topology()).unwrap() - 2.0 / 3.0).abs() < 1e-9);
}

#[test]
fn dual_socket_tier_free_spans_nodes() {
    let mut mem = MemorySystem::new(MachineDesc::dual_socket(16, 64));
    assert_eq!(mem.tier_free(TierId::TOP), 32);
    assert_eq!(mem.tier_free(TierId::new(1)), 128);
    // Drain one DRAM node fully: allocations keep succeeding from the
    // other node until both hit their reserves.
    let mut count = 0;
    while mem.alloc_page_in_tier(PageKind::Anon, TierId::TOP).is_ok() {
        count += 1;
    }
    let reserved =
        mem.node_watermarks(NodeId::new(0)).min + mem.node_watermarks(NodeId::new(1)).min;
    assert_eq!(count, 32 - reserved);
}

#[test]
fn three_tier_alloc_order_is_fastest_first() {
    let mut mem = MemorySystem::new(MachineDesc::three_tier(8, 16, 64));
    let f = mem.alloc_page(PageKind::Anon).unwrap();
    assert_eq!(
        mem.topology().tier(mem.frame(f).tier()).kind(),
        mc_mem::TierKind::Hbm
    );
}
