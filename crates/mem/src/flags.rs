//! Page flags — the analogue of Linux's `struct page` flags.
//!
//! Only the bit the substrate itself reads lives here: `DIRTY` is the one
//! dirty record (it prices write-back on eviction, invalidates Nomad's
//! shadow copies and orders `dirty_first` demotion). The simulator never
//! pins or locks a page, so Linux's `PG_unevictable` / `PG_locked` have
//! no counterpart; a migration that fails as if the page were locked is
//! an injected fault or an open copy window ([`crate::MemError::FrameLocked`]).
//! A page's Fig. 4 state — `PG_lru`/`PG_active`/`PG_referenced` and
//! MULTI-CLOCK's new `PagePromote` (paper §IV) — is not mirrored here: the
//! policy's `PageState` table is its one record (`PagePromote` is
//! `PageState::Promote`). A hand-rolled bitset keeps the crate
//! dependency-light.

use std::fmt;

/// A set of per-page status flags.
#[derive(Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageFlags(u16);

impl PageFlags {
    /// No flags set.
    pub(crate) const EMPTY: PageFlags = PageFlags(0);
    /// `PG_dirty` — the page has been written since last cleaned.
    pub const DIRTY: PageFlags = PageFlags(1 << 0);

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
        let name = if self.contains(PageFlags::DIRTY) {
            "DIRTY"
        } else {
            "EMPTY"
        };
        write!(f, "PageFlags({name})")
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
    }

    #[test]
    fn debug_is_never_empty_string() {
        assert_eq!(format!("{:?}", PageFlags::EMPTY), "PageFlags(EMPTY)");
        assert_eq!(format!("{:?}", PageFlags::DIRTY), "PageFlags(DIRTY)");
    }
}
