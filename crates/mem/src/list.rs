//! An ordered page list with O(1) membership, insertion and unlinking
//! anywhere, and no hashing or allocation per operation.
//!
//! The kernel threads pages onto `list_head`s embedded in `struct page`:
//! the page *is* its list node, so unlinking is two pointer stores and
//! `kpromoted` rotates a list at a few stores per page. Frames here are
//! dense small integers, so the same structure is a table of `prev`/`next`
//! frame numbers indexed by [`FrameId::index`]. Each list owns one table,
//! grown on demand to the highest frame ever pushed (8 bytes per frame
//! below that mark, member or not); a reserved `next` value marks "not on
//! this list", so the membership test is one load.
//!
//! Convention: the **front is the oldest** (coldest, next reclaim
//! candidate) and the **back is the newest** — `push_back` on insertion or
//! re-activation, `pop_front` to take the scan/eviction candidate.

use crate::ids::FrameId;
use std::iter::{from_fn, successors};

/// `next` of a frame that is not on the list.
const ABSENT: u32 = u32::MAX;
/// "No neighbour on this side"; as an address, the list's own `ends`.
const END: u32 = u32::MAX - 1;

/// A node's neighbours, as raw frame numbers or [`END`].
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// A node with no neighbours: the anchor of an empty list.
impl Default for Link {
    fn default() -> Self {
        Link {
            prev: END,
            next: END,
        }
    }
}

/// The frame a link value names, if it names one.
fn neighbour(raw: u32) -> Option<FrameId> {
    (raw != END).then(|| FrameId::new(raw))
}

/// An ordered list of page frames.
///
/// A frame may appear in at most one position; pushing a frame that is
/// already a member panics, because the kernel invariant this models is
/// "a page is on exactly one LRU list", and silently reordering would hide
/// policy bugs.
#[derive(Debug, Default, Clone)]
pub struct IndexedList {
    /// Per-frame links, indexed by [`FrameId::index`].
    links: Vec<Link>,
    /// The anchor node: `next` is the front, `prev` is the back.
    ends: Link,
    len: usize,
}

impl IndexedList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list has no live members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether a frame is on this list.
    pub fn contains(&self, frame: FrameId) -> bool {
        matches!(self.links.get(frame.index()), Some(l) if l.next != ABSENT)
    }

    /// Appends a frame at the back (newest position).
    ///
    /// # Panics
    ///
    /// Panics if the frame is already a member.
    pub fn push_back(&mut self, frame: FrameId) {
        self.insert(frame, self.ends.prev, END);
    }

    /// Inserts a frame at the front (oldest position). Used when a page
    /// should be the next reclaim candidate.
    ///
    /// # Panics
    ///
    /// Panics if the frame is already a member.
    pub fn push_front(&mut self, frame: FrameId) {
        self.insert(frame, END, self.ends.next);
    }

    /// Removes a frame from anywhere in the list. Returns whether it was a
    /// member.
    pub fn remove(&mut self, frame: FrameId) -> bool {
        if !self.contains(frame) {
            return false;
        }
        let Link { prev, next } = self.links[frame.index()];
        self.links[frame.index()].next = ABSENT;
        self.node(prev).next = next;
        self.node(next).prev = prev;
        self.len -= 1;
        true
    }

    /// Removes and returns the oldest member.
    pub fn pop_front(&mut self) -> Option<FrameId> {
        let frame = self.front()?;
        self.remove(frame).then_some(frame)
    }

    /// Removes and returns the newest member.
    pub fn pop_back(&mut self) -> Option<FrameId> {
        let frame = self.back()?;
        self.remove(frame).then_some(frame)
    }

    /// Peeks at the oldest member without removing it.
    pub fn front(&self) -> Option<FrameId> {
        neighbour(self.ends.next)
    }

    /// Peeks at the newest member without removing it.
    pub fn back(&self) -> Option<FrameId> {
        neighbour(self.ends.prev)
    }

    /// Moves an existing member to the back (newest position); the CLOCK
    /// "second chance" rotation. Returns whether the frame was a member.
    pub fn move_to_back(&mut self, frame: FrameId) -> bool {
        let member = self.remove(frame);
        if member {
            self.push_back(frame);
        }
        member
    }

    /// Rotates at most `limit` members from the front to the back, one at
    /// a time, stopping after the first that `pick` accepts, and returns
    /// that one. The result, and the order left behind, are those of
    /// `pop_front` + `push_back` repeated, but the walk only reads `next`
    /// links and the walked prefix moves to the back in one splice.
    pub fn rotate_until(
        &mut self,
        limit: usize,
        mut pick: impl FnMut(FrameId) -> bool,
    ) -> Option<FrameId> {
        let (mut walked, mut last, mut picked) = (0, END, None);
        let mut cur = self.ends.next;
        while walked < limit && cur != END {
            (walked, last) = (walked + 1, cur);
            if pick(FrameId::new(cur)) {
                picked = Some(FrameId::new(cur));
                break;
            }
            cur = self.links[cur as usize].next;
        }
        // Moving the whole list (or none of it) to the back changes nothing.
        if walked > 0 && walked < self.len {
            let (first, back) = (self.ends.next, self.ends.prev);
            let after = self.links[last as usize].next;
            self.ends.next = after;
            self.links[after as usize].prev = END;
            self.links[back as usize].next = first;
            self.links[first as usize].prev = back;
            self.links[last as usize].next = END;
            self.ends.prev = last;
        }
        picked
    }

    /// Iterates over live members from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = FrameId> + '_ {
        successors(self.front(), |f| neighbour(self.links[f.index()].next))
    }

    /// Removes every member and returns them oldest-first.
    pub fn drain(&mut self) -> Vec<FrameId> {
        from_fn(|| self.pop_front()).collect()
    }

    /// Links `frame` in between `prev` and `next` (members or [`END`]),
    /// growing the table to reach its slot.
    fn insert(&mut self, frame: FrameId, prev: u32, next: u32) {
        assert!(
            frame.raw() < END,
            "{frame} collides with the list's reserved link values"
        );
        assert!(
            !self.contains(frame),
            "{frame} is already on this list (a page lives on exactly one list)"
        );
        if frame.index() >= self.links.len() {
            // Only `next` of a vacant slot is ever read.
            let vacant = Link { prev, next: ABSENT };
            self.links.resize(frame.index() + 1, vacant);
        }
        self.links[frame.index()] = Link { prev, next };
        self.node(prev).next = frame.raw();
        self.node(next).prev = frame.raw();
        self.len += 1;
    }

    /// The node a link value addresses: a member's slot, or `ends`.
    fn node(&mut self, raw: u32) -> &mut Link {
        match raw {
            END => &mut self.ends,
            // Indexing: any other link value names a member, and members have slots.
            member => &mut self.links[member as usize],
        }
    }

    /// Asserts the links form one chain: the forward walk visits `len`
    /// members, every `prev` mirrors it back to the front, and no other
    /// slot is marked as a member.
    #[cfg(any(test, debug_assertions))]
    #[doc(hidden)]
    pub fn check_links(&self) {
        let (mut walked, mut last) = (0, END);
        for frame in self.iter().take(self.len + 1) {
            let prev = self.links[frame.index()].prev;
            assert_eq!(prev, last, "{frame}: prev does not mirror the walk");
            (walked, last) = (walked + 1, frame.raw());
        }
        assert_eq!(walked, self.len, "forward walk disagrees with len");
        assert_eq!(self.ends.prev, last, "back is not where the walk ended");
        let marked = self.links.iter().filter(|l| l.next != ABSENT).count();
        assert_eq!(marked, self.len, "a frame off the chain is marked a member");
    }
}

impl FromIterator<FrameId> for IndexedList {
    fn from_iter<T: IntoIterator<Item = FrameId>>(iter: T) -> Self {
        let mut l = IndexedList::new();
        l.extend(iter);
        l
    }
}

impl Extend<FrameId> for IndexedList {
    fn extend<T: IntoIterator<Item = FrameId>>(&mut self, iter: T) {
        for f in iter {
            self.push_back(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn f(i: u32) -> FrameId {
        FrameId::new(i)
    }

    /// Runs `rotate_until` and the `pop_front` + `push_back` loop it
    /// replaced on two copies of `frames` and demands the same frame, the
    /// same calls to `pick` and the same order afterwards.
    fn rotate_matches_the_loop(frames: &[u32], limit: usize, accept: impl Fn(FrameId) -> bool) {
        let mut spliced: IndexedList = frames.iter().map(|&i| f(i)).collect();
        let mut looped = spliced.clone();
        let (mut seen_spliced, mut seen_looped) = (Vec::new(), Vec::new());
        let got = spliced.rotate_until(limit, |fr| {
            seen_spliced.push(fr);
            accept(fr)
        });
        let mut want = None;
        for _ in 0..limit.min(looped.len()) {
            let Some(fr) = looped.pop_front() else { break };
            looped.push_back(fr);
            seen_looped.push(fr);
            if accept(fr) {
                want = Some(fr);
                break;
            }
        }
        assert_eq!(got, want, "{frames:?} limit {limit}: picked frame");
        assert_eq!(seen_spliced, seen_looped, "{frames:?} limit {limit}: picks");
        assert_eq!(
            spliced.iter().collect::<Vec<_>>(),
            looped.iter().collect::<Vec<_>>(),
            "{frames:?} limit {limit}: order after"
        );
        spliced.check_links();
        assert_eq!(spliced.len(), looped.len());
    }

    #[test]
    fn rotate_until_edges_match_the_loop() {
        let all = [4, 9, 2, 7, 5];
        rotate_matches_the_loop(&[], 3, |_| true);
        rotate_matches_the_loop(&all, 0, |_| true);
        rotate_matches_the_loop(&[6], 1, |_| false);
        rotate_matches_the_loop(&[6], 4, |_| true);
        for limit in [1, 2, 4, 5, 6, 100] {
            rotate_matches_the_loop(&all, limit, |_| false);
        }
        // A pick at the back walks the whole list: the splice is the identity.
        rotate_matches_the_loop(&all, 5, |fr| fr == f(5));
        rotate_matches_the_loop(&all, 9, |fr| fr == f(5));
        rotate_matches_the_loop(&all, 9, |fr| fr == f(4));
        rotate_matches_the_loop(&all, 9, |fr| fr == f(7));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn rotate_until_is_the_pop_push_loop(
            raw in prop::collection::vec(0u32..48, 0..24),
            limit in prop_oneof![0usize..30, Just(usize::MAX)],
            accept in prop::collection::vec(0u8..8, 48),
        ) {
            let mut frames = Vec::new();
            for i in raw {
                if !frames.contains(&i) {
                    frames.push(i);
                }
            }
            // About one frame in eight is picked, so many walks find none.
            rotate_matches_the_loop(&frames, limit, |fr| accept[fr.index()] == 0);
        }
    }

    #[test]
    fn fifo_order() {
        let mut l = IndexedList::new();
        l.push_back(f(1));
        l.push_back(f(2));
        l.push_back(f(3));
        assert_eq!(l.len(), 3);
        assert_eq!(l.pop_front(), Some(f(1)));
        assert_eq!(l.pop_front(), Some(f(2)));
        assert_eq!(l.pop_front(), Some(f(3)));
        assert_eq!(l.pop_front(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn push_front_makes_oldest() {
        let mut l = IndexedList::new();
        l.push_back(f(1));
        l.push_front(f(2));
        assert_eq!(l.front(), Some(f(2)));
        assert_eq!(l.back(), Some(f(1)));
    }

    #[test]
    fn middle_removal() {
        let mut l: IndexedList = [f(1), f(2), f(3)].into_iter().collect();
        assert!(l.remove(f(2)));
        assert!(!l.remove(f(2)));
        assert!(!l.contains(f(2)));
        assert_eq!(l.len(), 2);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![f(1), f(3)]);
        l.check_links();
    }

    #[test]
    fn remove_then_repush_is_newest() {
        let mut l: IndexedList = [f(1), f(2), f(3)].into_iter().collect();
        l.remove(f(1));
        l.push_back(f(1));
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![f(2), f(3), f(1)]);
        assert_eq!(l.pop_front(), Some(f(2)));
        l.check_links();
    }

    #[test]
    fn move_to_back_is_second_chance() {
        let mut l: IndexedList = [f(1), f(2), f(3)].into_iter().collect();
        assert!(l.move_to_back(f(1)));
        assert_eq!(l.front(), Some(f(2)));
        assert_eq!(l.back(), Some(f(1)));
        assert!(!l.move_to_back(f(99)));
        l.check_links();
    }

    #[test]
    #[should_panic(expected = "already on this list")]
    fn double_push_panics() {
        let mut l = IndexedList::new();
        l.push_back(f(1));
        l.push_back(f(1));
    }

    #[test]
    fn pop_back_returns_newest() {
        let mut l: IndexedList = [f(1), f(2), f(3)].into_iter().collect();
        assert_eq!(l.pop_back(), Some(f(3)));
        assert_eq!(l.pop_back(), Some(f(2)));
        l.check_links();
    }

    #[test]
    fn drain_returns_in_order_and_empties() {
        let mut l: IndexedList = [f(5), f(6), f(7)].into_iter().collect();
        l.remove(f(6));
        assert_eq!(l.drain(), vec![f(5), f(7)]);
        assert!(l.is_empty());
        assert_eq!(l.pop_front(), None);
    }

    #[test]
    fn storage_is_bounded_by_the_highest_frame_not_by_operation_count() {
        const FRAMES: u32 = 1_000;
        let mut l: IndexedList = (0..FRAMES).map(f).collect();
        for op in 0..1_000_000u32 {
            let frame = f(op.wrapping_mul(2_654_435_761) % FRAMES);
            match op % 3 {
                0 => {
                    let oldest = l.pop_front().unwrap();
                    l.push_back(oldest);
                }
                1 => assert!(l.move_to_back(frame)),
                _ => {
                    assert!(l.remove(frame));
                    l.push_front(frame);
                }
            }
        }
        assert_eq!(l.len(), FRAMES as usize);
        assert_eq!(l.links.len(), FRAMES as usize, "one slot per frame index");
        l.check_links();
    }

    #[test]
    fn table_grows_on_demand_to_the_highest_frame_pushed() {
        let mut l = IndexedList::new();
        l.push_back(f(7));
        assert_eq!(l.links.len(), 8);
        l.push_front(f(60_000));
        l.push_back(f(3));
        assert_eq!(l.links.len(), 60_001);
        assert!(!l.contains(f(60_001)) && !l.remove(f(u32::MAX)));
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![f(60_000), f(7), f(3)]);
        l.check_links();
        assert_eq!(l.drain().len(), 3);
        assert_eq!(l.links.len(), 60_001, "draining keeps the table");
        l.check_links();
    }

    #[test]
    #[should_panic(expected = "reserved link values")]
    fn pushing_a_reserved_frame_number_panics() {
        IndexedList::new().push_back(f(u32::MAX - 1));
    }

    #[test]
    #[should_panic(expected = "reserved link values")]
    fn pushing_the_not_a_member_mark_to_the_front_panics() {
        IndexedList::new().push_front(f(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "marked a member")]
    fn check_links_catches_a_frame_left_marked_off_the_chain() {
        let mut l: IndexedList = [f(1), f(2), f(3)].into_iter().collect();
        l.links[0].next = END;
        l.check_links();
    }

    #[test]
    fn heavy_churn_keeps_consistency() {
        let mut l = IndexedList::new();
        for round in 0..100u32 {
            for i in 0..50 {
                l.push_back(f(round * 50 + i));
            }
            for i in 0..50 {
                if i % 2 == 0 {
                    assert!(l.remove(f(round * 50 + i)));
                }
            }
            l.check_links();
        }
        assert_eq!(l.len(), 100 * 25);
        let seen: Vec<_> = l.iter().collect();
        assert_eq!(seen.len(), l.len());
        // All remaining are odd offsets.
        for fr in seen {
            assert_eq!(fr.raw() % 2, 1);
        }
    }
}
