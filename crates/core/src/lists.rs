//! Per-node list sets.
//!
//! "Originally, each memory node maintains its own set of LRU lists:
//! anonymous inactive, anonymous active, file inactive, file active, and
//! unevictable. We added two lists: anonymous promote and file promote"
//! (paper §IV). [`TierLists`] is that structure, instantiated once per
//! NUMA node; a tier's lists are those of its nodes. This simulator never
//! pins a page, so it keeps no unevictable list: a node holds the anon and
//! file sets of three lists each.

use mc_clock::IndexedList;
use mc_mem::{FrameId, PageKind};
use std::fmt;

/// Which of a node's lists a page is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WhichList {
    /// The inactive LRU list.
    Inactive,
    /// The active LRU list.
    Active,
    /// MULTI-CLOCK's promote list.
    Promote,
}

impl WhichList {
    /// The list's name as it appears in events and reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            WhichList::Inactive => "inactive",
            WhichList::Active => "active",
            WhichList::Promote => "promote",
        }
    }
}

impl fmt::Display for WhichList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The three evictable lists for one page kind (anon or file).
#[derive(Debug, Default, Clone)]
pub struct ListSet {
    /// The inactive LRU list (front = oldest).
    pub inactive: IndexedList,
    /// The active LRU list.
    pub active: IndexedList,
    /// The promote list.
    pub promote: IndexedList,
}

impl ListSet {
    /// Creates empty lists.
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The list named by `which`.
    pub fn list(&self, which: WhichList) -> &IndexedList {
        match which {
            WhichList::Inactive => &self.inactive,
            WhichList::Active => &self.active,
            WhichList::Promote => &self.promote,
        }
    }

    /// Mutable access to the list named by `which`.
    pub(crate) fn list_mut(&mut self, which: WhichList) -> &mut IndexedList {
        match which {
            WhichList::Inactive => &mut self.inactive,
            WhichList::Active => &mut self.active,
            WhichList::Promote => &mut self.promote,
        }
    }

    /// Total pages across the three lists.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inactive.len() + self.active.len() + self.promote.len()
    }

    /// Whether all three lists are empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any of the three lists contains the frame.
    pub(crate) fn contains(&self, frame: FrameId) -> bool {
        self.inactive.contains(frame) || self.active.contains(frame) || self.promote.contains(frame)
    }
}

/// All lists for one node: the anon and file sets.
///
/// Outside this crate the lists are read-only: `TierLists::set_mut` and
/// `ListSet::list_mut` are crate-private (DESIGN.md §9).
/// `tests/self_test.rs` compiles planted outside-crate calls to each and
/// checks rustc's error code and span.
#[derive(Debug, Default, Clone)]
pub struct TierLists {
    /// Lists for anonymous pages.
    pub anon: ListSet,
    /// Lists for file-backed pages.
    pub file: ListSet,
}

impl TierLists {
    /// Creates empty lists.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The list set for a page kind.
    pub fn set(&self, kind: PageKind) -> &ListSet {
        match kind {
            PageKind::Anon => &self.anon,
            PageKind::File => &self.file,
        }
    }

    /// Mutable list set for a page kind.
    pub(crate) fn set_mut(&mut self, kind: PageKind) -> &mut ListSet {
        match kind {
            PageKind::Anon => &mut self.anon,
            PageKind::File => &mut self.file,
        }
    }

    /// Total tracked pages on this node.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.anon.len() + self.file.len()
    }

    /// Whether any list on this node holds the frame.
    pub fn contains(&self, frame: FrameId) -> bool {
        self.anon.contains(frame) || self.file.contains(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FrameId {
        FrameId::new(i)
    }

    #[test]
    fn set_routing_by_kind() {
        let mut t = TierLists::new();
        t.set_mut(PageKind::Anon).inactive.push_back(f(1));
        t.set_mut(PageKind::File).active.push_back(f(2));
        assert!(t.set(PageKind::Anon).inactive.contains(f(1)));
        assert!(t.set(PageKind::File).active.contains(f(2)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn which_list_lookup() {
        let mut s = ListSet::new();
        s.list_mut(WhichList::Promote).push_back(f(9));
        assert_eq!(s.list(WhichList::Promote).len(), 1);
        assert!(s.contains(f(9)));
        assert!(s.list_mut(WhichList::Promote).remove(f(9)));
        assert!(s.is_empty());
    }

    #[test]
    fn display_names() {
        assert_eq!(WhichList::Inactive.to_string(), "inactive");
        assert_eq!(WhichList::Promote.to_string(), "promote");
    }
}
