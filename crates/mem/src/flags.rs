//! Page flags — the analogue of Linux's `struct page` flags.
//!
//! Only the bits the substrate itself reads live here: `UNEVICTABLE` and
//! `LOCKED` refuse migration and eviction, and `DIRTY` is the one dirty
//! record (it prices write-back on eviction, invalidates Nomad's shadow
//! copies and orders `dirty_first` demotion). A page's Fig. 4 state —
//! `PG_lru`/`PG_active`/`PG_referenced` and MULTI-CLOCK's new
//! `PagePromote` (paper §IV) — is not mirrored here: the policy's
//! `PageState` table is its one record (`PagePromote` is
//! `PageState::Promote`). A hand-rolled bitset keeps the crate
//! dependency-light.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::BitOr;

/// A set of per-page status flags.
#[derive(Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PageFlags(u16);

impl PageFlags {
    /// No flags set.
    pub(crate) const EMPTY: PageFlags = PageFlags(0);
    /// `PG_unevictable` — the page is mlocked and may not be migrated.
    pub const UNEVICTABLE: PageFlags = PageFlags(1 << 0);
    /// `PG_dirty` — the page has been written since last cleaned.
    pub const DIRTY: PageFlags = PageFlags(1 << 1);
    /// `PG_locked` — the page is transiently locked (e.g. under I/O); a
    /// locked page cannot be migrated, matching the paper's promotion
    /// fallback ("if that is not possible — for instance, the page is
    /// locked — then it is moved to the active list").
    pub const LOCKED: PageFlags = PageFlags(1 << 2);

    /// Returns whether every flag in `other` is set in `self`.
    pub const fn contains(self, other: PageFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns whether any flag in `other` is set in `self`.
    pub(crate) const fn intersects(self, other: PageFlags) -> bool {
        self.0 & other.0 != 0
    }

    /// Sets the given flags.
    pub fn insert(&mut self, other: PageFlags) {
        self.0 |= other.0;
    }

    /// Clears the given flags.
    pub fn remove(&mut self, other: PageFlags) {
        self.0 &= !other.0;
    }

    /// Whether no flag is set.
    #[cfg(test)]
    pub(crate) const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for PageFlags {
    type Output = PageFlags;
    fn bitor(self, rhs: PageFlags) -> PageFlags {
        PageFlags(self.0 | rhs.0)
    }
}

impl fmt::Debug for PageFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (PageFlags::UNEVICTABLE, "UNEVICTABLE"),
            (PageFlags::DIRTY, "DIRTY"),
            (PageFlags::LOCKED, "LOCKED"),
        ];
        let mut wrote = false;
        write!(f, "PageFlags(")?;
        for (flag, name) in names {
            if self.contains(flag) {
                if wrote {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                wrote = true;
            }
        }
        if !wrote {
            write!(f, "EMPTY")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut f = PageFlags::EMPTY;
        assert!(f.is_empty());
        f.insert(PageFlags::LOCKED | PageFlags::DIRTY);
        assert!(f.contains(PageFlags::LOCKED));
        assert!(f.contains(PageFlags::LOCKED | PageFlags::DIRTY));
        assert!(!f.contains(PageFlags::UNEVICTABLE));
        f.remove(PageFlags::LOCKED);
        assert!(!f.contains(PageFlags::LOCKED));
        assert!(f.contains(PageFlags::DIRTY));
    }

    #[test]
    fn intersects_vs_contains() {
        let f = PageFlags::LOCKED | PageFlags::DIRTY;
        assert!(f.intersects(PageFlags::LOCKED | PageFlags::UNEVICTABLE));
        assert!(!f.contains(PageFlags::LOCKED | PageFlags::UNEVICTABLE));
    }

    #[test]
    fn debug_is_never_empty_string() {
        assert_eq!(format!("{:?}", PageFlags::EMPTY), "PageFlags(EMPTY)");
        let f = PageFlags::LOCKED | PageFlags::DIRTY;
        let s = format!("{f:?}");
        assert!(s.contains("LOCKED") && s.contains("DIRTY"));
    }
}
