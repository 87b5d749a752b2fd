//! The page bookkeeping the random-trace tests share (`chaos.rs`,
//! `migration_txn.rs`, `sharding.rs`): their traces only ever map new
//! pages, so a page leaves its frame only when reclaim evicts it.

use mc_mem::{FrameId, MemorySystem, PageKind, TieringPolicy, VPage};
use multi_clock::MultiClock;
use std::collections::HashSet;

/// Every live virtual page still translates, to a distinct frame, or
/// sits on swap after reclaim evicted it.
pub fn assert_conserved(mem: &MemorySystem, live: &[VPage]) {
    let mut frames: HashSet<FrameId> = HashSet::new();
    for vp in live {
        match mem.translate(*vp) {
            Some(frame) => {
                assert!(!mem.is_swapped(*vp), "mapped page {vp:?} is also on swap");
                assert!(
                    frames.insert(frame),
                    "two virtual pages share frame {frame:?}"
                );
            }
            None => assert!(mem.is_swapped(*vp), "live page {vp:?} lost its mapping"),
        }
    }
}

/// Whether `vp` is mapped, after faulting it back in as the engine does
/// if reclaim evicted it (a failed allocation leaves it on swap).
pub fn resident(mem: &mut MemorySystem, mc: &mut MultiClock, vp: VPage) -> bool {
    if mem.translate(vp).is_some() {
        return true;
    }
    let Ok(frame) = mem.alloc_page(PageKind::Anon) else {
        return false;
    };
    mem.note_swap_in(vp);
    mem.map(vp, frame).expect("an evicted page maps");
    mc.on_page_mapped(mem, frame);
    true
}
