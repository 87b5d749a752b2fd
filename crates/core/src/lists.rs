//! Per-node list sets.
//!
//! "Originally, each memory node maintains its own set of LRU lists:
//! anonymous inactive, anonymous active, file inactive, file active, and
//! unevictable. We added two lists: anonymous promote and file promote"
//! (paper §IV). [`ListSet`] is that structure, instantiated once per
//! NUMA node; a tier's lists are those of its nodes. Every page this
//! simulator maps is anonymous and none is pinned (DESIGN.md §2), so a node
//! holds the three anonymous lists only: inactive, active and promote.

use mc_clock::IndexedList;
use mc_mem::FrameId;
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

/// The three lists of one node.
///
/// Outside this crate the lists are read-only: `ListSet::list_mut` is
/// crate-private (DESIGN.md §9). `tests/self_test.rs` compiles a planted
/// outside-crate call to it and checks rustc's error code and span.
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
    pub fn contains(&self, frame: FrameId) -> bool {
        self.inactive.contains(frame) || self.active.contains(frame) || self.promote.contains(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FrameId {
        FrameId::new(i)
    }

    #[test]
    fn which_list_lookup() {
        let mut s = ListSet::default();
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
