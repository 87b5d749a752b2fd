//! The soft page table.
//!
//! Models the per-process page tables the paper's mechanisms read. An
//! entry carries the frame and a **poison bit** used by hint-page-fault
//! trackers (Thermostat, AutoNUMA, AutoTiering): a poisoned PTE makes the
//! next access take a software fault, which both costs time and reveals
//! the access to the tracker.
//!
//! The hardware **reference bit** — MULTI-CLOCK's "unsupervised access"
//! channel, harvested (test-and-clear) during scans exactly like
//! `page_referenced()` — is not stored here but on the mapped frame, as
//! [`PageFlags::ACCESSED`](crate::PageFlags::ACCESSED). A frame has at most
//! one mapping, so it is the same bit kept in one place, as dirtiness is
//! ([`PageFlags::DIRTY`](crate::PageFlags::DIRTY)); the scan, which walks
//! frames, reads it without translating back to this table.
//!
//! Every access translates exactly once, so a lookup has to cost an array
//! index, not a tree walk: [`PageTable`] is the PTE instantiation of the
//! radix-indexed [`VPageMap`].

use crate::error::MemError;
use crate::ids::{FrameId, VPage};
use crate::vpage_map::VPageMap;

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PteEntry {
    /// The frame this virtual page maps to.
    pub frame: FrameId,
    /// Software poison for hint-fault tracking.
    pub poisoned: bool,
}

impl PteEntry {
    /// A freshly-installed, unpoisoned entry.
    pub fn new(frame: FrameId) -> Self {
        PteEntry {
            frame,
            poisoned: false,
        }
    }
}

/// The virtual-to-physical mapping for the simulated address space: a
/// [`VPageMap`] of [`PteEntry`]s, so translation indexes instead of
/// searching.
pub type PageTable = VPageMap<PteEntry>;

impl VPageMap<PteEntry> {
    /// Installs a mapping. Returns the previous entry if one existed.
    ///
    /// # Errors
    ///
    /// [`MemError::VPageOutOfRange`] at or past [`Self::MAX_VPAGES`].
    pub fn map(&mut self, vpage: VPage, frame: FrameId) -> Result<Option<PteEntry>, MemError> {
        self.insert(vpage, PteEntry::new(frame))
    }

    /// Removes a mapping, returning the old entry.
    pub fn unmap(&mut self, vpage: VPage) -> Option<PteEntry> {
        self.remove(vpage)
    }

    /// Points an existing mapping at a different frame (migration),
    /// clearing the poison. Neither the reference bit nor dirtiness is a
    /// PTE bit here: migration lands the page on a frame whose
    /// [`PageFlags::ACCESSED`](crate::PageFlags::ACCESSED) is clear (the
    /// new PTE has not been accessed yet) and carries
    /// [`PageFlags::DIRTY`](crate::PageFlags::DIRTY) over.
    ///
    /// Returns `false` if the page was not mapped.
    pub fn remap(&mut self, vpage: VPage, new_frame: FrameId) -> bool {
        match self.get_mut(vpage) {
            Some(e) => {
                e.frame = new_frame;
                e.poisoned = false;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, MachineDesc, MemorySystem, PageFlags, PageKind, TierId};

    #[test]
    fn map_unmap_roundtrip() {
        let mut pt = PageTable::new();
        assert!(pt.is_empty());
        assert_eq!(pt.map(VPage::new(1), FrameId::new(7)), Ok(None));
        assert_eq!(pt.len(), 1);
        let e = pt.get(VPage::new(1)).unwrap();
        assert_eq!(e.frame, FrameId::new(7));
        assert!(!e.poisoned);
        let old = pt.unmap(VPage::new(1)).unwrap();
        assert_eq!(old.frame, FrameId::new(7));
        assert!(pt.is_empty());
    }

    /// The reference bit an access sets is the mapped frame's `ACCESSED`
    /// flag; the harvest test-and-clears it there, and a frame with no
    /// mapping reports unreferenced.
    #[test]
    fn harvest_is_test_and_clear() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 16));
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        let unmapped = mem.alloc_page(PageKind::Anon).unwrap();
        mem.map(VPage::new(1), f).unwrap();
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        assert!(mem.frame(f).flags().contains(PageFlags::ACCESSED));
        assert!(mem.harvest_referenced(f));
        assert!(!mem.frame(f).flags().contains(PageFlags::ACCESSED));
        assert!(!mem.harvest_referenced(f), "second harvest is clear");
        assert!(!mem.harvest_referenced(unmapped), "unmapped harvests false");
    }

    /// Migration clears the poison in the PTE and lands the page on a
    /// frame whose accessed bit is clear; the source frame's bit goes
    /// with the frame, which is freed.
    #[test]
    fn remap_clears_reference_and_poison() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 16));
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        let v = VPage::new(4);
        mem.map(v, f).unwrap();
        mem.access(v, AccessKind::Write).unwrap();
        assert!(mem.poison(v));
        assert!(mem.frame(f).flags().contains(PageFlags::ACCESSED));
        let nf = mem.migrate(f, TierId::new(1)).unwrap();
        let e = mem.page_table().get(v).unwrap();
        assert_eq!(e.frame, nf);
        assert!(!e.poisoned);
        assert!(!mem.frame(nf).flags().contains(PageFlags::ACCESSED));
        assert!(mem.frame(nf).flags().contains(PageFlags::DIRTY));
        assert!(!mem.frame(f).flags().contains(PageFlags::ACCESSED));
        let mut pt = PageTable::new();
        assert!(!pt.remap(VPage::new(5), FrameId::new(3)));
    }

    #[test]
    fn double_map_returns_previous() {
        let mut pt = PageTable::new();
        pt.map(VPage::new(1), FrameId::new(1)).unwrap();
        let prev = pt.map(VPage::new(1), FrameId::new(2)).unwrap().unwrap();
        assert_eq!(prev.frame, FrameId::new(1));
        assert_eq!(pt.get(VPage::new(1)).unwrap().frame, FrameId::new(2));
    }
}
