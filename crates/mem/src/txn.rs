//! Transactional (Nomad-style) migration state: in-flight migration
//! transactions and the shadow-page table.
//!
//! Synchronous migration stalls the application for the whole
//! unmap–copy–remap sequence. Nomad (arXiv 2401.13154) instead copies the
//! page *while the application keeps accessing the source*, then atomically
//! remaps once the copy window closes — aborting and retrying if a write
//! dirtied the page mid-copy. Its second idea is *non-exclusive* placement:
//! after a clean promotion the lower-tier source frame still holds a
//! byte-identical copy, so demoting that page later is a zero-copy mapping
//! flip instead of a full page copy.
//!
//! This module holds the bookkeeping types. The lifecycle lives on
//! [`crate::MemorySystem`], so every mutation of frames and the page table
//! stays inside the substrate's commit boundary: `migrate_pages` in
//! [`MigrationMode::Transactional`] opens the copy windows,
//! `resolve_migrations` commits or aborts them, and `migrate` takes the
//! flip whenever a clean shadow sits in its destination tier.

use crate::ids::{FrameId, TierId};

/// How the substrate executes migrations requested by a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationMode {
    /// The historical synchronous path: unmap, copy, remap, all charged
    /// against the application in one step. Bit-identical to the engine
    /// before transactional migration existed.
    #[default]
    Sync,
    /// Nomad-style transactional migration: the copy runs in the
    /// background over one scan interval, a dirty write during the copy
    /// window aborts the transaction, and a clean completion commits with
    /// an atomic remap. Clean promotions leave a shadow copy behind for
    /// zero-copy demotion.
    Transactional,
}

/// What [`crate::MemorySystem::migrate_pages`] did with one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageMove {
    /// The page moved: it now occupies this frame of the destination tier.
    Landed(FrameId),
    /// A copy window opened; the page stays mapped at its source until
    /// [`crate::MemorySystem::resolve_migrations`] commits or aborts it.
    Opened,
}

/// One in-flight migration transaction: the copy of `frame` towards
/// `dst_frame` started when [`crate::MemorySystem::migrate_pages`] opened
/// it and resolves (commit or abort) at the next
/// [`crate::MemorySystem::resolve_migrations`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationTxn {
    /// The source frame. It keeps the mapping — the application reads and
    /// writes the source for the whole copy window, so concurrent-access
    /// cost is charged against the source tier.
    pub frame: FrameId,
    /// The destination frame, pre-allocated at begin time. Allocated but
    /// unmapped until the commit remaps atomically.
    pub dst_frame: FrameId,
    /// The destination tier (denormalised for cheap validation).
    pub dst_tier: TierId,
    /// Set when a write hit the source during the copy window: the copy
    /// is stale and the transaction must abort.
    pub doomed: bool,
}

/// The shadow-page table: non-exclusive lower-tier copies left behind by
/// clean transactional promotions.
///
/// Each entry maps the *live* (upper-tier) frame of a page to a retained
/// lower-tier frame holding a byte-identical copy. The copy frame stays
/// allocated but unmapped and untracked; it is reclaimed when the shadow
/// is invalidated (first dirty write, any migration/eviction of the key
/// frame, or allocation pressure in its tier) or consumed by a zero-copy
/// demotion ([`crate::MemorySystem::migrate`]).
///
/// Every store asks whether its frame is shadowed, and with most demotions
/// served from shadows the table is neither small nor empty, so membership
/// is a frame-indexed slot: `get`/`insert`/`remove` are O(1). The entries
/// themselves stay in insertion order — the order `pop_oldest_in_tier` and
/// `iter` promise and the bit-identity differential tests rely on — with a
/// removed entry left as a hole until holes outnumber live entries. Pops
/// take the oldest entries, so the holes gather at the front; a cursor
/// past them keeps each pop from searching through them again.
#[derive(Debug, Clone, Default)]
pub struct ShadowPages {
    /// `(key, copy)` in insertion order; `None` is a removed entry.
    entries: Vec<Option<(FrameId, FrameId)>>,
    /// Indexed by key frame: 1 + the entry's position in `entries`, or 0.
    /// Grown on insert only, so it costs nothing until shadows are in use.
    slot: Vec<u32>,
    live: usize,
    /// Every entry before this position is a hole.
    head: usize,
}

impl ShadowPages {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live shadow entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The retained copy frame for `key`, if one exists.
    pub fn get(&self, key: FrameId) -> Option<FrameId> {
        let pos = (*self.slot.get(key.index())? as usize).checked_sub(1)?;
        self.entries.get(pos)?.map(|(_, copy)| copy)
    }

    /// Inserts a shadow entry, replacing any previous entry for `key` and
    /// returning the displaced copy frame (which the caller must free).
    pub fn insert(&mut self, key: FrameId, copy: FrameId) -> Option<FrameId> {
        let old = self.remove(key);
        if self.slot.len() <= key.index() {
            self.slot.resize(key.index() + 1, 0);
        }
        self.entries.push(Some((key, copy)));
        self.slot[key.index()] = self.entries.len() as u32;
        self.live += 1;
        old
    }

    /// Removes the entry for `key`, returning its copy frame.
    pub fn remove(&mut self, key: FrameId) -> Option<FrameId> {
        let pos = (*self.slot.get(key.index())? as usize).checked_sub(1)?;
        let (_, copy) = self.entries.get_mut(pos)?.take()?;
        self.slot[key.index()] = 0;
        self.live -= 1;
        if pos == self.head {
            let holes = self.entries[pos..].iter().take_while(|e| e.is_none());
            self.head += holes.count();
        }
        if self.entries.len() > 2 * self.live + 64 {
            // Squeeze the holes out, keeping order, and re-point the slots.
            self.entries.retain(Option::is_some);
            self.head = 0;
            for (pos, (key, _)) in self.entries.iter().flatten().enumerate() {
                self.slot[key.index()] = pos as u32 + 1;
            }
        }
        Some(copy)
    }

    /// Removes the *oldest* entry whose copy frame lies in `tier`,
    /// returning it. Used to release shadow capacity under allocation
    /// pressure: shadows are opportunistic and must never cause an
    /// out-of-memory condition.
    pub fn pop_oldest_in_tier(
        &mut self,
        tier: TierId,
        tier_of: impl Fn(FrameId) -> TierId,
    ) -> Option<(FrameId, FrameId)> {
        let (key, copy) = self.iter().find(|(_, copy)| tier_of(*copy) == tier)?;
        self.remove(key);
        Some((key, copy))
    }

    /// Iterates `(key, copy)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (FrameId, FrameId)> + '_ {
        self.entries[self.head..].iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn migration_mode_defaults_to_sync() {
        assert_eq!(MigrationMode::default(), MigrationMode::Sync);
    }

    #[test]
    fn shadow_table_insert_get_remove() {
        let mut s = ShadowPages::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(FrameId::new(1), FrameId::new(10)), None);
        assert_eq!(s.get(FrameId::new(1)), Some(FrameId::new(10)));
        // Replacing returns the displaced copy.
        assert_eq!(
            s.insert(FrameId::new(1), FrameId::new(11)),
            Some(FrameId::new(10))
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove(FrameId::new(1)), Some(FrameId::new(11)));
        assert_eq!(s.remove(FrameId::new(1)), None);
    }

    #[test]
    fn pop_oldest_in_tier_respects_insertion_order() {
        let mut s = ShadowPages::new();
        s.insert(FrameId::new(1), FrameId::new(10));
        s.insert(FrameId::new(2), FrameId::new(20));
        s.insert(FrameId::new(3), FrameId::new(30));
        // Pretend odd copies live in tier 1, even in tier 2.
        let tier_of = |f: FrameId| TierId::new(if f.index() % 20 == 10 { 1 } else { 2 });
        assert_eq!(
            s.pop_oldest_in_tier(TierId::new(2), tier_of),
            Some((FrameId::new(2), FrameId::new(20)))
        );
        assert_eq!(
            s.pop_oldest_in_tier(TierId::new(1), tier_of),
            Some((FrameId::new(1), FrameId::new(10)))
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_oldest_in_tier(TierId::TOP, tier_of), None);
    }

    /// One step against the shadow table.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u32, u32),
        /// Inserts keys `k, k + 1, ..` (`n` of them) with fresh copies.
        InsertRun(u32, u32),
        Remove(u32),
        /// `n` pops of the oldest entry in a tier.
        Pop(u8, u32),
    }

    const KEYS: u32 = 160;

    /// Copies whose frame number is a multiple of 3 sit in tier 2, the rest
    /// in tier 1.
    fn tier_of(copy: FrameId) -> TierId {
        TierId::new(if copy.index().is_multiple_of(3) { 2 } else { 1 })
    }

    /// The plain model: live `(key, copy)` pairs in insertion order.
    #[derive(Default)]
    struct Model(Vec<(FrameId, FrameId)>);

    impl Model {
        fn take(&mut self, at: Option<usize>) -> Option<(FrameId, FrameId)> {
            at.map(|i| self.0.remove(i))
        }

        fn insert(&mut self, key: FrameId, copy: FrameId) -> Option<FrameId> {
            let old = self.remove(key);
            self.0.push((key, copy));
            old
        }

        fn remove(&mut self, key: FrameId) -> Option<FrameId> {
            let at = self.0.iter().position(|e| e.0 == key);
            self.take(at).map(|(_, copy)| copy)
        }

        fn pop_oldest_in_tier(&mut self, tier: TierId) -> Option<(FrameId, FrameId)> {
            let at = self.0.iter().position(|e| tier_of(e.1) == tier);
            self.take(at)
        }
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            (0..KEYS, 0..1000u32).prop_map(|(k, c)| Op::Insert(k, c)),
            (0..KEYS, 1..90u32).prop_map(|(k, n)| Op::InsertRun(k, n)),
            (0..KEYS).prop_map(Op::Remove),
            (1..3u8, 1..60u32).prop_map(|(t, n)| Op::Pop(t, n)),
        ];
        prop::collection::vec(op, 1..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_table_is_an_insertion_ordered_list(ops in ops()) {
            let (mut table, mut model) = (ShadowPages::new(), Model::default());
            let mut fresh = 1000;
            for (i, op) in ops.into_iter().enumerate() {
                let f = FrameId::new;
                match op {
                    Op::Insert(k, c) => {
                        let (key, copy) = (f(k), f(c));
                        prop_assert_eq!(table.insert(key, copy), model.insert(key, copy));
                    }
                    Op::InsertRun(k, n) => {
                        for key in (k..k + n).map(|k| f(k % KEYS)) {
                            fresh += 1;
                            let copy = f(fresh);
                            prop_assert_eq!(table.insert(key, copy), model.insert(key, copy));
                        }
                    }
                    Op::Remove(k) => prop_assert_eq!(table.remove(f(k)), model.remove(f(k))),
                    Op::Pop(t, n) => {
                        for _ in 0..n {
                            let tier = TierId::new(t);
                            let got = table.pop_oldest_in_tier(tier, tier_of);
                            let want = model.pop_oldest_in_tier(tier);
                            prop_assert_eq!(got, want, "op {} {:?}", i, op);
                        }
                    }
                }
                prop_assert_eq!(table.len(), model.0.len(), "op {} {:?}", i, op);
                let entries: Vec<_> = table.iter().collect();
                prop_assert_eq!(entries, model.0.clone(), "op {} {:?}", i, op);
                for k in 0..KEYS {
                    let copy = model.0.iter().find(|e| e.0 == f(k)).map(|e| e.1);
                    prop_assert_eq!(table.get(f(k)), copy, "op {} {:?}, key {}", i, op, k);
                }
            }
        }
    }
}
