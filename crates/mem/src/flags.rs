//! Page flags — the analogue of Linux's `struct page` flags.
//!
//! Only the bits the substrate itself reads live here:
//!
//! * `DIRTY` is the one dirty record (it prices write-back on eviction,
//!   invalidates Nomad's shadow copies and orders `dirty_first` demotion);
//! * `ACCESSED` is the hardware reference bit every access sets — the
//!   paper's "unsupervised access" channel, which
//!   [`MemorySystem::harvest_referenced`](crate::MemorySystem::harvest_referenced)
//!   test-and-clears exactly like `page_referenced()`. On hardware the bit
//!   sits in the PTE; a frame here has at most one mapping, so the frame
//!   holds the same bit, and a scan that already holds the frame reads it
//!   without a reverse-map or page-table lookup. A migration lands the
//!   page with the bit clear (a fresh PTE has not been accessed), and a
//!   free, reserved or shadow-copy frame never has it set.
//!
//! The simulator never pins or locks a page, so Linux's `PG_unevictable` /
//! `PG_locked` have no counterpart; a migration that fails as if the page
//! were locked is an injected fault or an open copy window
//! ([`crate::MemError::FrameLocked`]). A page's Fig. 4 state —
//! `PG_lru`/`PG_active`/`PG_referenced` and MULTI-CLOCK's new `PagePromote`
//! (paper §IV) — is not mirrored here: the policy's `PageState` table is
//! its one record (`PagePromote` is `PageState::Promote`). A hand-rolled
//! bitset keeps the crate dependency-light.

use std::fmt;

/// A set of per-page status flags.
#[derive(Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageFlags(u16);

impl PageFlags {
    /// No flags set.
    pub(crate) const EMPTY: PageFlags = PageFlags(0);
    /// `PG_dirty` — the page has been written since last cleaned.
    pub const DIRTY: PageFlags = PageFlags(1 << 0);
    /// The PTE accessed (reference) bit, kept on the frame — set by every
    /// access, test-and-cleared by the scan.
    pub const ACCESSED: PageFlags = PageFlags(1 << 1);

    /// Returns whether every flag in `other` is set in `self`.
    pub const fn contains(self, other: PageFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Sets the given flags.
    pub(crate) fn insert(&mut self, other: PageFlags) {
        self.0 |= other.0;
    }

    /// Clears the given flags.
    pub(crate) fn remove(&mut self, other: PageFlags) {
        self.0 &= !other.0;
    }

    /// Whether no flag is set.
    #[cfg(test)]
    pub(crate) const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for PageFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (PageFlags::DIRTY, "DIRTY"),
            (PageFlags::ACCESSED, "ACCESSED"),
        ];
        let mut set = names.iter().filter(|(flag, _)| self.contains(*flag));
        f.write_str("PageFlags(")?;
        match set.next() {
            Some((_, first)) => f.write_str(first)?,
            None => f.write_str("EMPTY")?,
        }
        for (_, name) in set {
            write!(f, " | {name}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut f = PageFlags::EMPTY;
        assert!(f.is_empty());
        assert!(!f.contains(PageFlags::DIRTY));
        f.insert(PageFlags::DIRTY);
        assert!(f.contains(PageFlags::DIRTY));
        assert!(f.contains(PageFlags::EMPTY));
        f.remove(PageFlags::DIRTY);
        assert!(!f.contains(PageFlags::DIRTY));
        assert!(f.is_empty());
        f.insert(PageFlags::ACCESSED);
        assert!(f.contains(PageFlags::ACCESSED) && !f.contains(PageFlags::DIRTY));
        f.remove(PageFlags::ACCESSED);
        assert!(f.is_empty());
    }

    #[test]
    fn debug_is_never_empty_string() {
        assert_eq!(format!("{:?}", PageFlags::EMPTY), "PageFlags(EMPTY)");
        assert_eq!(format!("{:?}", PageFlags::DIRTY), "PageFlags(DIRTY)");
        assert_eq!(format!("{:?}", PageFlags::ACCESSED), "PageFlags(ACCESSED)");
        let mut both = PageFlags::DIRTY;
        both.insert(PageFlags::ACCESSED);
        assert_eq!(format!("{both:?}"), "PageFlags(DIRTY | ACCESSED)");
    }
}
