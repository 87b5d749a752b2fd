//! Property tests for the index-addressed tables on the access path.
//!
//! The page table used to be a `BTreeMap` and the transaction / shadow
//! tables linear `Vec`s; they are now a radix index and, for the
//! transactional layer, per-frame partner links with the begin order and
//! each tier's shadow copies on indexed lists. Each test drives the new
//! structure and a deliberately naive model of the old one through the
//! same random operations and demands the same answers, orders included.

use mc_mem::{
    AccessKind, FrameId, MachineDesc, MemError, MemorySystem, MigrationMode, PageKind, PageMove,
    PageTable, PteEntry, TierId, VPage,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Virtual pages that stress the directory: a dense run, repeats, a few
/// far-apart leaves, both sides of a leaf boundary and of the span's end.
fn arb_vpage() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..48,
        (0u64..6).prop_map(|k| k * 7_919 * 512 + 511),
        (0u64..4).prop_map(|k| (1 << 24) + k * 512),
        (0u64..3).prop_map(|k| PageTable::MAX_VPAGES - 2 + k),
        Just(u64::MAX),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn page_table_matches_btreemap_model(
        ops in prop::collection::vec((0u8..7, arb_vpage(), 0u32..1_000), 1..400),
    ) {
        let mut table = PageTable::new();
        let mut model: BTreeMap<u64, PteEntry> = BTreeMap::new();
        for (op, raw, frame) in ops {
            let (v, frame) = (VPage::new(raw), FrameId::new(frame));
            let in_span = raw < PageTable::MAX_VPAGES;
            match op {
                0 | 1 => {
                    let expected = if in_span {
                        Ok(model.insert(raw, PteEntry::new(frame)))
                    } else {
                        Err(MemError::VPageOutOfRange(v))
                    };
                    prop_assert_eq!(table.map(v, frame), expected);
                }
                2 => prop_assert_eq!(table.unmap(v), model.remove(&raw)),
                3 => {
                    let hit = model.get_mut(&raw).map(|e| {
                        e.frame = frame;
                        e.poisoned = false;
                    });
                    prop_assert_eq!(table.remap(v, frame), hit.is_some());
                }
                4 => {
                    // A hint-fault tracker poisons the entry.
                    let poison = |e: &mut PteEntry| e.poisoned = frame.raw() % 3 == 0;
                    if let Some(e) = table.get_mut(v) {
                        poison(e);
                    }
                    if let Some(e) = model.get_mut(&raw) {
                        poison(e);
                    }
                }
                5 => {
                    // An access consumes the poison.
                    let expected = model
                        .get_mut(&raw)
                        .is_some_and(|e| std::mem::take(&mut e.poisoned));
                    let got = table
                        .get_mut(v)
                        .is_some_and(|e| std::mem::take(&mut e.poisoned));
                    prop_assert_eq!(got, expected);
                }
                _ => {}
            }
            prop_assert_eq!(table.get(v), model.get(&raw));
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
        }
        // Nothing else moved: every page the model knows reads back.
        for (raw, e) in &model {
            prop_assert_eq!(table.get(VPage::new(*raw)), Some(e));
        }
    }

    /// Transaction and shadow membership as the substrate's callers see it,
    /// on three tiers so shadow copies sit in two of them: begin-on-pending
    /// is refused, a store dooms, an eviction aborts in place,
    /// `resolve_migrations` answers in begin order, a committed promotion's
    /// shadow is found by its page (store, re-migration, zero-copy
    /// demotion), a retained frame refuses `evict`, and allocation pressure
    /// in a tier releases that tier's oldest copy first.
    #[test]
    fn txn_and_shadow_membership_matches_linear_model(
        ops in prop::collection::vec((0u8..10, 0u64..24), 1..300),
    ) {
        const PAGES: u64 = 24;
        let mut mem = MemorySystem::new(MachineDesc::three_tier(64, 96, 160));
        let tier = |mem: &MemorySystem, f: FrameId| mem.frame(f).tier().index();
        let home = |page: u64| TierId::new(1 + (page % 2) as u8);
        for p in 0..PAGES {
            let f = mem.alloc_page_in_tier(home(p)).unwrap();
            mem.map(VPage::new(p), f).unwrap();
        }
        // The old tables: open transactions `(source, doomed)` in begin
        // order, shadows `(page's frame, copy)` in insertion order, searched.
        let mut txns: Vec<(FrameId, bool)> = Vec::new();
        let mut shadows: Vec<(FrameId, FrameId)> = Vec::new();
        for (op, page) in ops {
            let v = VPage::new(page);
            let frame = mem.translate(v).unwrap();
            let at = tier(&mem, frame);
            match op {
                0 | 1 => {
                    // One tier up (op 0) or down (op 1), turning at the ends.
                    let dst = match (op, at) {
                        (0, 0) | (1, 2) => 1,
                        (0, t) => t - 1,
                        (_, t) => t + 1,
                    };
                    let before = mem.stats().migration_failures;
                    let res = mem
                        .migrate_pages(&[frame], TierId::new(dst as u8), MigrationMode::Transactional)
                        .remove(0);
                    if txns.iter().any(|(f, _)| *f == frame) {
                        prop_assert_eq!(res, Err(MemError::FrameLocked(frame)));
                        prop_assert_eq!(mem.stats().migration_failures, before + 1);
                    } else {
                        // A page about to move again loses its shadow even
                        // if the destination then turns out to be full.
                        shadows.retain(|(k, _)| *k != frame);
                        if res.is_ok() {
                            prop_assert_eq!(res, Ok(PageMove::Opened));
                            txns.push((frame, false));
                        }
                    }
                }
                2 => {
                    mem.access(v, AccessKind::Write).unwrap();
                    if let Some(t) = txns.iter_mut().find(|(f, _)| *f == frame) {
                        t.1 = true;
                    }
                    shadows.retain(|(k, _)| *k != frame);
                }
                3 => {
                    mem.access(v, AccessKind::Read).unwrap();
                }
                4 => {
                    // Evict the page and fault it straight back in.
                    let aborts = mem.stats().txn_aborts;
                    prop_assert_eq!(mem.evict(frame), Ok(()));
                    let back = mem.alloc_page_in_tier(home(page)).unwrap();
                    mem.note_swap_in(v);
                    mem.map(v, back).unwrap();
                    let open = txns.len();
                    txns.retain(|(f, _)| *f != frame);
                    prop_assert_eq!(mem.stats().txn_aborts - aborts, (open - txns.len()) as u64);
                    shadows.retain(|(k, _)| *k != frame);
                }
                5 => {
                    let dsts: Vec<FrameId> =
                        mem.migration_txns().iter().map(|t| t.dst_frame).collect();
                    let resolved = mem.resolve_migrations();
                    prop_assert_eq!(resolved.len(), txns.len());
                    for (((src, res), (frame, doomed)), dst) in
                        resolved.into_iter().zip(txns.drain(..)).zip(dsts)
                    {
                        prop_assert_eq!(src, frame);
                        if doomed {
                            prop_assert_eq!(res, Err(MemError::FrameLocked(frame)));
                        } else {
                            prop_assert_eq!(res, Ok(dst));
                            if tier(&mem, dst) < tier(&mem, frame) {
                                shadows.retain(|(k, _)| *k != dst);
                                shadows.push((dst, frame));
                            }
                        }
                    }
                }
                6 | 7 => {
                    // A synchronous move one tier down (op 6) or up (op 7).
                    // A shadowed page moving to its copy's tier flips to the
                    // copy; any other move copies, which supersedes the
                    // page's open transaction and drops its shadow.
                    let dst = if op == 6 { (at + 1).min(2) } else { at.saturating_sub(1) };
                    let dst_tier = TierId::new(dst as u8);
                    let expected = shadows.iter().position(|(k, _)| *k == frame);
                    let flip = expected.filter(|&p| tier(&mem, shadows[p].1) == dst);
                    let hits = mem.stats().shadow_hits;
                    let res = mem.migrate(frame, dst_tier);
                    if dst == at {
                        prop_assert_eq!(res, Err(MemError::SameTier(frame, dst_tier)));
                    } else if let Some(p) = flip {
                        prop_assert_eq!(res, Ok(shadows.remove(p).1));
                    } else {
                        prop_assert!(res.is_ok());
                        txns.retain(|(f, _)| *f != frame);
                        shadows.retain(|(k, _)| *k != frame);
                    }
                    prop_assert_eq!(mem.stats().shadow_hits - hits, u64::from(flip.is_some()));
                }
                8 => {
                    // Try to dispose of a retained frame — a shadow copy or
                    // a reserved destination — from under its page: refused,
                    // and nothing changes.
                    let retained: Vec<FrameId> = shadows
                        .iter()
                        .map(|s| s.1)
                        .chain(mem.migration_txns().iter().map(|t| t.dst_frame))
                        .collect();
                    if !retained.is_empty() {
                        let f = retained[page as usize % retained.len()];
                        let before = mem.stats().clone();
                        prop_assert_eq!(mem.evict(f), Err(MemError::FrameNotAllocated(f)));
                        prop_assert_eq!(mem.map(VPage::new(PAGES), f), Err(MemError::FrameNotAllocated(f)));
                        prop_assert_eq!(mem.stats(), &before);
                    }
                }
                _ => {
                    // Allocation pressure: fill the page's home tier until
                    // it releases a shadow or runs out, then give the
                    // filler back. The released copy is the tier's oldest,
                    // and the allocator hands it straight out again.
                    let t = home(page);
                    let invalidations = mem.stats().shadow_invalidations;
                    let mut filler = Vec::new();
                    while mem.stats().shadow_invalidations == invalidations {
                        match mem.alloc_page_in_tier(t) {
                            Ok(f) => filler.push(f),
                            Err(e) => {
                                prop_assert_eq!(e, MemError::TierFull(t));
                                break;
                            }
                        }
                    }
                    let oldest = shadows.iter().position(|s| tier(&mem, s.1) == t.index());
                    match oldest.map(|p| shadows.remove(p)) {
                        Some((_, copy)) => prop_assert_eq!(filler.last(), Some(&copy)),
                        None => prop_assert_eq!(mem.stats().shadow_invalidations, invalidations),
                    }
                    for f in filler {
                        prop_assert_eq!(mem.evict(f), Ok(()));
                    }
                }
            }
            let open: Vec<(FrameId, bool)> =
                mem.migration_txns().iter().map(|t| (t.frame, t.doomed)).collect();
            prop_assert_eq!(open, txns.clone());
            prop_assert_eq!(mem.migration_txns().len(), txns.len());
            // The substrate lists shadows tier by tier, each oldest first.
            let mut by_tier = shadows.clone();
            by_tier.sort_by_key(|s| tier(&mem, s.1));
            prop_assert_eq!(mem.shadows().collect::<Vec<_>>(), by_tier);
            for f in 0..mem.total_frames() as u32 {
                let expected = shadows.iter().find(|(k, _)| k.raw() == f).map(|(_, c)| *c);
                prop_assert_eq!(mem.shadow_of(FrameId::new(f)), expected);
            }
            prop_assert_eq!(mem.partner_faults(), vec![]);
        }
    }
}

/// One wild mapping costs a directory and a leaf, not a table as long as
/// the address; past the span it costs nothing and fails.
#[test]
fn sparse_and_out_of_span_mappings_stay_bounded() {
    let mut mem = MemorySystem::new(MachineDesc::dram_pm(8, 32));
    let f = mem.alloc_page(PageKind::Anon).unwrap();
    let edge = VPage::new(PageTable::MAX_VPAGES);
    assert_eq!(mem.map(edge, f), Err(MemError::VPageOutOfRange(edge)));
    assert_eq!(
        mem.map(VPage::new(u64::MAX), f),
        Err(MemError::VPageOutOfRange(VPage::new(u64::MAX)))
    );
    assert_eq!(mem.page_table().len(), 0);
    assert_eq!(
        mem.frame(f).vpage(),
        None,
        "a refused mapping leaves the frame unmapped"
    );
    assert_eq!(
        mem.access(edge, AccessKind::Read),
        Err(MemError::NotMapped(edge))
    );

    // 64 GiB up the address space: still one entry.
    let far = VPage::new(1 << 24);
    mem.map(far, f).unwrap();
    assert_eq!(mem.page_table().len(), 1);
    assert_eq!(mem.translate(far), Some(f));
    assert_eq!(mem.translate(VPage::new((1 << 24) - 1)), None);
    assert!(mem.access(far, AccessKind::Write).is_ok());
    assert!(mem.harvest_referenced(f));
}
