//! The soft page table.
//!
//! Models the per-process page tables the paper's mechanisms read:
//!
//! * the **reference bit** set by the CPU on every access — MULTI-CLOCK's
//!   "unsupervised access" channel, harvested (test-and-clear) during scans
//!   exactly like `page_referenced()`;
//! * a **poison bit** used by hint-page-fault trackers (Thermostat,
//!   AutoNUMA, AutoTiering): a poisoned PTE makes the next access take a
//!   software fault, which both costs time and reveals the access to the
//!   tracker.
//!
//! Every access translates exactly once and every scan harvests through the
//! same table, so a lookup has to cost an array index, not a tree walk:
//! [`PageTable`] is the PTE instantiation of the radix-indexed
//! [`VPageMap`].

use crate::error::MemError;
use crate::ids::{FrameId, VPage};
use crate::vpage_map::VPageMap;
use serde::{Deserialize, Serialize};

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PteEntry {
    /// The frame this virtual page maps to.
    pub frame: FrameId,
    /// Hardware-set reference bit.
    pub referenced: bool,
    /// Software poison for hint-fault tracking.
    pub poisoned: bool,
}

impl PteEntry {
    /// A freshly-installed, clean, unreferenced entry.
    pub fn new(frame: FrameId) -> Self {
        PteEntry {
            frame,
            referenced: false,
            poisoned: false,
        }
    }
}

/// The virtual-to-physical mapping for the simulated address space: a
/// [`VPageMap`] of [`PteEntry`]s, so translation and reference-bit
/// harvesting index instead of searching.
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
    /// clearing the reference bit (the new PTE has not been accessed yet)
    /// and the poison. Dirtiness is not a PTE bit here: it is the frame's
    /// [`PageFlags::DIRTY`](crate::PageFlags::DIRTY), which migration
    /// carries to the new frame.
    ///
    /// Returns `false` if the page was not mapped.
    pub fn remap(&mut self, vpage: VPage, new_frame: FrameId) -> bool {
        match self.get_mut(vpage) {
            Some(e) => {
                e.frame = new_frame;
                e.referenced = false;
                e.poisoned = false;
                true
            }
            None => false,
        }
    }

    /// Test-and-clear of the reference bit, the `page_referenced()`
    /// harvesting primitive.
    pub fn harvest_referenced(&mut self, vpage: VPage) -> bool {
        match self.get_mut(vpage) {
            Some(e) => std::mem::take(&mut e.referenced),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_unmap_roundtrip() {
        let mut pt = PageTable::new();
        assert!(pt.is_empty());
        assert_eq!(pt.map(VPage::new(1), FrameId::new(7)), Ok(None));
        assert_eq!(pt.len(), 1);
        let e = pt.get(VPage::new(1)).unwrap();
        assert_eq!(e.frame, FrameId::new(7));
        assert!(!e.referenced && !e.poisoned);
        let old = pt.unmap(VPage::new(1)).unwrap();
        assert_eq!(old.frame, FrameId::new(7));
        assert!(pt.is_empty());
    }

    #[test]
    fn harvest_is_test_and_clear() {
        let mut pt = PageTable::new();
        pt.map(VPage::new(1), FrameId::new(0)).unwrap();
        pt.get_mut(VPage::new(1)).unwrap().referenced = true;
        assert!(pt.harvest_referenced(VPage::new(1)));
        assert!(
            !pt.harvest_referenced(VPage::new(1)),
            "second harvest is clear"
        );
        assert!(
            !pt.harvest_referenced(VPage::new(99)),
            "unmapped harvests false"
        );
    }

    #[test]
    fn remap_clears_reference_and_poison() {
        let mut pt = PageTable::new();
        pt.map(VPage::new(4), FrameId::new(1)).unwrap();
        {
            let e = pt.get_mut(VPage::new(4)).unwrap();
            e.referenced = true;
            e.poisoned = true;
        }
        assert!(pt.remap(VPage::new(4), FrameId::new(2)));
        let e = pt.get(VPage::new(4)).unwrap();
        assert_eq!(e.frame, FrameId::new(2));
        assert!(!e.referenced);
        assert!(!e.poisoned);
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
