//! The reference bit lives on the frame (`PageFlags::ACCESSED`), yet it is
//! a page's bit: a property test drives a `MemorySystem` through every
//! path that moves a page or its mapping and checks the frame bits against
//! a model keyed by virtual page. An access sets the page's bit, a harvest
//! or a migration of any kind clears it, an eviction takes it away with
//! the mapping, and no frame without a mapping ever has it set.

use mc_mem::{
    AccessKind, FrameId, MachineDesc, MemorySystem, MigrationMode, PageFlags, PageMove, TierId,
    VPage,
};
use proptest::prelude::*;

const PAGES: u64 = 24;

/// The tier a page in `frame` would migrate to: the other one.
fn other_tier(mem: &MemorySystem, frame: FrameId) -> TierId {
    if mem.frame(frame).tier() == TierId::TOP {
        TierId::new(1)
    } else {
        TierId::TOP
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn accessed_bit_follows_the_page_not_the_frame(
        ops in prop::collection::vec((0u8..10, 0u64..PAGES, 0u64..PAGES), 1..300),
    ) {
        let lower = TierId::new(1);
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(40, 128));
        for p in 0..PAGES {
            let f = mem.alloc_page_in_tier(lower).unwrap();
            mem.map(VPage::new(p), f).unwrap();
        }
        // The model: the reference bit of each virtual page.
        let mut referenced = [false; PAGES as usize];
        for (op, page, other) in ops {
            let v = VPage::new(page);
            let frame = mem.translate(v).unwrap();
            match op {
                0 | 1 => {
                    let kind = if op == 0 { AccessKind::Read } else { AccessKind::Write };
                    let out = mem.access(v, kind).unwrap();
                    prop_assert_eq!(out.frame, frame);
                    referenced[page as usize] = true;
                }
                2 => {
                    prop_assert_eq!(mem.harvest_referenced(frame), referenced[page as usize]);
                    referenced[page as usize] = false;
                    prop_assert!(!mem.harvest_referenced(frame), "second harvest is clear");
                }
                3 => {
                    // A synchronous move, or a zero-copy flip onto the
                    // page's shadow when it has one in the other tier.
                    if mem.migrate(frame, other_tier(&mem, frame)).is_ok() {
                        referenced[page as usize] = false;
                    }
                }
                4 => {
                    // A synchronous batch of two pages to the top tier.
                    let pair = [frame, mem.translate(VPage::new(other)).unwrap()];
                    let results = mem.migrate_pages(&pair, TierId::TOP, MigrationMode::Sync);
                    for (p, r) in [page, other].into_iter().zip(results) {
                        if matches!(r, Ok(PageMove::Landed(_))) {
                            referenced[p as usize] = false;
                        }
                    }
                }
                5 => {
                    // Opening a copy window leaves the bit alone.
                    let dst = other_tier(&mem, frame);
                    let _opened = mem.migrate_pages(&[frame], dst, MigrationMode::Transactional);
                }
                6 => {
                    // Commits land (a promotion keeps its source as a
                    // shadow); aborts leave the page where it was.
                    for (_, result) in mem.resolve_migrations() {
                        if let Ok(dst) = result {
                            let moved = mem.frame(dst).vpage().unwrap();
                            referenced[moved.raw() as usize] = false;
                        }
                    }
                }
                7 => {
                    // Evict and fault straight back in: a fresh mapping.
                    mem.evict(frame).unwrap();
                    let back = mem.alloc_page_in_tier(lower).unwrap();
                    mem.note_swap_in(v);
                    mem.map(v, back).unwrap();
                    referenced[page as usize] = false;
                }
                _ => {
                    // Harvest a frame with no mapping, if there is one: a
                    // free frame, a reserved destination or a shadow copy.
                    let unmapped = (0..mem.total_frames() as u32)
                        .map(FrameId::new)
                        .filter(|&f| mem.frame(f).vpage().is_none())
                        .nth(other as usize);
                    if let Some(f) = unmapped {
                        prop_assert!(!mem.harvest_referenced(f));
                    }
                }
            }
            for f in (0..mem.total_frames() as u32).map(FrameId::new) {
                let bit = mem.frame(f).flags().contains(PageFlags::ACCESSED);
                match mem.frame(f).vpage() {
                    Some(v) => {
                        prop_assert_eq!(bit, referenced[v.raw() as usize], "{:?} of {:?}", f, v);
                    }
                    None => prop_assert!(!bit, "unmapped {:?} has the accessed bit", f),
                }
            }
        }
    }
}
