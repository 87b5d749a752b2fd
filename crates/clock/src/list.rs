//! An ordered page list with O(1) membership and amortised O(1) middle
//! removal.
//!
//! The kernel threads pages onto `list_head`s embedded in `struct page`,
//! giving O(1) unlink. We get the same complexity with a generation-tagged
//! deque: removed entries become tombstones that are skipped and compacted
//! lazily, and a hash map holds the live generation per frame.
//!
//! Convention: the **front is the oldest** (coldest, next reclaim
//! candidate) and the **back is the newest** — `push_back` on insertion or
//! re-activation, `pop_front` to take the scan/eviction candidate.

use mc_mem::FrameId;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

/// Fixed-key hashing. The default `RandomState` draws fresh keys per
/// process; list order never depends on them, but *when* the table
/// resizes does (a removal leaves a tombstone or an empty slot depending
/// on the hash), and with it the process's heap layout and peak RSS.
type FixedState = BuildHasherDefault<DefaultHasher>;

/// An ordered list of page frames.
///
/// A frame may appear in at most one position; pushing a frame that is
/// already a member panics, because the kernel invariant this models is
/// "a page is on exactly one LRU list", and silently reordering would hide
/// policy bugs.
#[derive(Debug, Default, Clone)]
pub struct IndexedList {
    deque: VecDeque<(FrameId, u64)>,
    live: HashMap<FrameId, u64, FixedState>,
    next_gen: u64,
}

impl IndexedList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the list has no live members.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Whether a frame is on this list.
    pub fn contains(&self, frame: FrameId) -> bool {
        self.live.contains_key(&frame)
    }

    /// Appends a frame at the back (newest position).
    ///
    /// # Panics
    ///
    /// Panics if the frame is already a member.
    pub fn push_back(&mut self, frame: FrameId) {
        assert!(
            !self.contains(frame),
            "{frame} is already on this list (a page lives on exactly one list)"
        );
        let gen = self.next_gen;
        self.next_gen += 1;
        self.live.insert(frame, gen);
        self.deque.push_back((frame, gen));
        self.maybe_compact();
    }

    /// Inserts a frame at the front (oldest position). Used when a page
    /// should be the next reclaim candidate.
    ///
    /// # Panics
    ///
    /// Panics if the frame is already a member.
    pub fn push_front(&mut self, frame: FrameId) {
        assert!(
            !self.contains(frame),
            "{frame} is already on this list (a page lives on exactly one list)"
        );
        let gen = self.next_gen;
        self.next_gen += 1;
        self.live.insert(frame, gen);
        self.deque.push_front((frame, gen));
        self.maybe_compact();
    }

    /// Removes a frame from anywhere in the list. Returns whether it was a
    /// member.
    pub fn remove(&mut self, frame: FrameId) -> bool {
        self.live.remove(&frame).is_some()
    }

    /// Removes and returns the oldest member.
    pub fn pop_front(&mut self) -> Option<FrameId> {
        while let Some((frame, gen)) = self.deque.pop_front() {
            if self.live.get(&frame) == Some(&gen) {
                self.live.remove(&frame);
                return Some(frame);
            }
        }
        None
    }

    /// Removes and returns the newest member.
    pub fn pop_back(&mut self) -> Option<FrameId> {
        while let Some((frame, gen)) = self.deque.pop_back() {
            if self.live.get(&frame) == Some(&gen) {
                self.live.remove(&frame);
                return Some(frame);
            }
        }
        None
    }

    /// Peeks at the oldest member without removing it.
    pub fn front(&self) -> Option<FrameId> {
        self.iter().next()
    }

    /// Peeks at the newest member without removing it.
    pub fn back(&self) -> Option<FrameId> {
        self.deque
            .iter()
            .rev()
            .find(|(f, g)| self.live.get(f) == Some(g))
            .map(|(f, _)| *f)
    }

    /// Moves an existing member to the back (newest position); the CLOCK
    /// "second chance" rotation. Returns whether the frame was a member.
    pub fn move_to_back(&mut self, frame: FrameId) -> bool {
        if self.remove(frame) {
            self.push_back(frame);
            true
        } else {
            false
        }
    }

    /// Iterates over live members from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.deque
            .iter()
            .filter(move |(f, g)| self.live.get(f) == Some(g))
            .map(|(f, _)| *f)
    }

    /// Removes every member and returns them oldest-first.
    pub fn drain(&mut self) -> Vec<FrameId> {
        let out: Vec<FrameId> = self.iter().collect();
        self.deque.clear();
        self.live.clear();
        out
    }

    fn maybe_compact(&mut self) {
        if self.deque.len() > 2 * self.live.len() + 32 {
            let live = &self.live;
            self.deque.retain(|(f, g)| live.get(f) == Some(g));
        }
    }
}

impl FromIterator<FrameId> for IndexedList {
    fn from_iter<T: IntoIterator<Item = FrameId>>(iter: T) -> Self {
        let mut l = IndexedList::new();
        for f in iter {
            l.push_back(f);
        }
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

    fn f(i: u32) -> FrameId {
        FrameId::new(i)
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
    }

    #[test]
    fn remove_then_repush_is_newest() {
        let mut l: IndexedList = [f(1), f(2), f(3)].into_iter().collect();
        l.remove(f(1));
        l.push_back(f(1));
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![f(2), f(3), f(1)]);
        assert_eq!(l.pop_front(), Some(f(2)));
    }

    #[test]
    fn move_to_back_is_second_chance() {
        let mut l: IndexedList = [f(1), f(2), f(3)].into_iter().collect();
        assert!(l.move_to_back(f(1)));
        assert_eq!(l.front(), Some(f(2)));
        assert_eq!(l.back(), Some(f(1)));
        assert!(!l.move_to_back(f(99)));
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
    fn compaction_bounds_internal_storage() {
        let mut l = IndexedList::new();
        for i in 0..10_000u32 {
            l.push_back(f(i));
            if i >= 4 {
                l.remove(f(i - 4));
            }
        }
        assert_eq!(l.len(), 4);
        assert!(
            l.deque.len() <= 2 * l.len() + 33,
            "tombstones must be compacted, deque={} live={}",
            l.deque.len(),
            l.len()
        );
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
