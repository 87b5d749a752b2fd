//! The page state machine of the paper's Fig. 4.
//!
//! White vertices are original PFRA states; `Promote` is the state
//! MULTI-CLOCK introduces. One *observed access* (a supervised
//! `mark_page_accessed()` call, or a set reference bit harvested during a
//! scan) moves a page exactly one step up the ladder:
//!
//! ```text
//! InactiveUnref -> InactiveRef -> ActiveUnref -> ActiveRef -> Promote
//!              (2)            (6)            (7)          (10) (12: stays)
//! ```
//!
//! so reaching `Promote` requires a page to have been seen referenced
//! repeatedly — this is how MULTI-CLOCK folds *frequency* into CLOCK's
//! recency machinery. Downward transitions (1 and 8: a scan decays a
//! referenced state, 9: deactivation, 11: promote list ageing, 3:
//! demotion, 4: free) are driven by scans and pressure.

use crate::lists::WhichList;
use std::fmt;

/// The LRU-related state of a tracked page (Fig. 4 vertices, plus
/// `Unevictable` for mlocked pages which sit outside the ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageState {
    /// On the inactive list, not seen referenced since the last scan.
    InactiveUnref,
    /// On the inactive list, seen referenced once.
    InactiveRef,
    /// On the active list, not seen referenced since promotion to active.
    ActiveUnref,
    /// On the active list, seen referenced while active.
    ActiveRef,
    /// On the promote list: referenced while active+referenced — the page
    /// is a promotion candidate ("recently accessed more than once").
    Promote,
    /// Mlocked; never scanned, never migrated.
    Unevictable,
}

impl PageState {
    /// Applies one observed access (one ladder step). `Promote` absorbs
    /// (transition 12); `Unevictable` never moves.
    pub fn on_access(self) -> PageState {
        match self {
            PageState::InactiveUnref => PageState::InactiveRef, // fig4: 2
            PageState::InactiveRef => PageState::ActiveUnref,   // fig4: 6
            PageState::ActiveUnref => PageState::ActiveRef,     // fig4: 7
            PageState::ActiveRef => PageState::Promote,         // fig4: 10
            PageState::Promote => PageState::Promote,           // fig4: 12
            PageState::Unevictable => PageState::Unevictable,
        }
    }

    /// The list a page in this state lives on.
    pub(crate) fn list(self) -> WhichList {
        match self {
            PageState::InactiveUnref | PageState::InactiveRef => WhichList::Inactive,
            PageState::ActiveUnref | PageState::ActiveRef => WhichList::Active,
            PageState::Promote => WhichList::Promote,
            PageState::Unevictable => WhichList::Unevictable,
        }
    }
}

impl fmt::Display for PageState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PageState::InactiveUnref => "inactive-unreferenced",
            PageState::InactiveRef => "inactive-referenced",
            PageState::ActiveUnref => "active-unreferenced",
            PageState::ActiveRef => "active-referenced",
            PageState::Promote => "promote",
            PageState::Unevictable => "unevictable",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_requires_four_observations_from_cold() {
        let mut s = PageState::InactiveUnref;
        for expected in [
            PageState::InactiveRef,
            PageState::ActiveUnref,
            PageState::ActiveRef,
            PageState::Promote,
        ] {
            s = s.on_access();
            assert_eq!(s, expected);
        }
        // Transition 12: further accesses keep it in promote.
        assert_eq!(s.on_access(), PageState::Promote);
    }

    #[test]
    fn unevictable_never_moves() {
        assert_eq!(PageState::Unevictable.on_access(), PageState::Unevictable);
    }

    #[test]
    fn list_assignment_matches_state() {
        assert_eq!(PageState::InactiveUnref.list(), WhichList::Inactive);
        assert_eq!(PageState::InactiveRef.list(), WhichList::Inactive);
        assert_eq!(PageState::ActiveUnref.list(), WhichList::Active);
        assert_eq!(PageState::ActiveRef.list(), WhichList::Active);
        assert_eq!(PageState::Promote.list(), WhichList::Promote);
        assert_eq!(PageState::Unevictable.list(), WhichList::Unevictable);
    }

    #[test]
    fn display_is_descriptive() {
        assert_eq!(PageState::Promote.to_string(), "promote");
        assert_eq!(
            PageState::InactiveUnref.to_string(),
            "inactive-unreferenced"
        );
    }
}
