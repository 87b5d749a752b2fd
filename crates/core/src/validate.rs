//! Structural invariant validation for [`MultiClock`].
//!
//! The kernel invariants the paper's data structures rely on, checkable
//! at any quiescent point (used heavily by the property-based tests, and
//! available to downstream users as a debugging aid):
//!
//! 1. every tracked frame is on **exactly one** list;
//! 2. list membership agrees with the page-state table
//!    ([`PageState::list`]), the one record of a page's Fig. 4 state
//!    (no page flag mirrors it);
//! 3. a page is listed under the node its frame reports;
//! 4. untracked frames are on no list;
//! 5. retry bookkeeping (a paused promotion episode) exists only for
//!    pages in `Promote` state;
//! 6. transactional-migration bookkeeping is sound: a frame is the
//!    source of **at most one** open transaction, every such source
//!    is tracked in `Promote` state and on no list (by design — the copy
//!    window spans the tick boundary), transaction destination frames
//!    are allocated but unmapped reservations, shadow copies exist only
//!    for clean mapped pages with the retained frame one or more tiers
//!    below, and stored retry bookkeeping never exceeds the
//!    [`mc_fault::RetryPolicy`] budget.
//!
//! Debug builds first assert each list's own link consistency
//! (`IndexedList::check_links`).
//!
//! Validation runs at quiescent points (tick end, post-promote,
//! post-reclaim), never while a step holds pages detached mid-migration.

use crate::lists::WhichList;
use crate::multi_clock::MultiClock;
use crate::state::PageState;
use mc_mem::{FrameId, MemorySystem, NodeId};
use std::collections::HashSet;
use std::fmt;

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The frame at fault.
    pub frame: FrameId,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.frame, self.message)
    }
}

impl MultiClock {
    /// Checks every structural invariant; returns all violations (empty
    /// means the structure is consistent).
    pub fn check_invariants(&self, mem: &MemorySystem) -> Vec<InvariantViolation> {
        let mut violations = Vec::new();
        let mut seen: HashSet<u32> = HashSet::new();
        for (n, lists) in self.nodes.iter().enumerate() {
            let node = NodeId::new(n as u8);
            self.check_node(mem, node, lists, &mut seen, &mut violations);
        }

        for raw in 0..mem.total_frames() as u32 {
            let frame = FrameId::new(raw);
            if self.state_of(frame).is_some() && !seen.contains(&raw) && !mem.txn_open(frame) {
                violations.push(InvariantViolation {
                    frame,
                    message: "tracked but on no list".into(),
                });
            }
            // 5. retry bookkeeping only exists for paused promotion
            //    episodes, which by definition sit in Promote state.
            if self.retry_state[frame.index()].is_some()
                && self.state_of(frame) != Some(PageState::Promote)
            {
                violations.push(InvariantViolation {
                    frame,
                    message: "has retry bookkeeping but is not in Promote state".into(),
                });
            }
            // 6 (retry-boundedness). A stored episode is a *paused* one:
            //    its attempt count must still leave budget, or the give-up
            //    path failed to fire.
            if let Some(rs) = self.retry_state[frame.index()] {
                if self.cfg.knobs.retry.exhausted(rs.attempts) {
                    violations.push(InvariantViolation {
                        frame,
                        message: format!(
                            "retry bookkeeping holds {} attempts but the policy \
                             exhausts at {}",
                            rs.attempts,
                            self.cfg.knobs.retry.max_attempts()
                        ),
                    });
                }
            }
        }
        self.check_txn_bookkeeping(mem, &seen, &mut violations);
        violations
    }

    /// Invariant 6: checks the substrate's open transactions and shadow
    /// table, and the tracking state of every transaction's source
    /// (`listed` holds the frames found on some list).
    fn check_txn_bookkeeping(
        &self,
        mem: &MemorySystem,
        listed: &HashSet<u32>,
        violations: &mut Vec<InvariantViolation>,
    ) {
        let mut src_seen: HashSet<u32> = HashSet::new();
        for txn in mem.migration_txns() {
            if !src_seen.insert(txn.frame.raw()) {
                violations.push(InvariantViolation {
                    frame: txn.frame,
                    message: "frame is the source of more than one open transaction".into(),
                });
            }
            if self.state_of(txn.frame) != Some(PageState::Promote) {
                violations.push(InvariantViolation {
                    frame: txn.frame,
                    message: "open transaction source is not in Promote state".into(),
                });
            }
            if listed.contains(&txn.frame.raw()) {
                violations.push(InvariantViolation {
                    frame: txn.frame,
                    message: "open transaction source is on a list".into(),
                });
            }
            let dst = mem.frame(txn.dst_frame);
            if dst.state() != mc_mem::FrameState::Allocated || dst.vpage().is_some() {
                violations.push(InvariantViolation {
                    frame: txn.dst_frame,
                    message: "transaction destination is not an unmapped reservation".into(),
                });
            }
        }
        for (key, copy) in mem.shadow_pages().iter() {
            let live = mem.frame(key);
            if live.state() != mc_mem::FrameState::Allocated
                || live.vpage().is_none()
                || live.flags().contains(mc_mem::PageFlags::DIRTY)
            {
                violations.push(InvariantViolation {
                    frame: key,
                    message: "shadowed page is not a clean mapped page".into(),
                });
            }
            let retained = mem.frame(copy);
            if retained.state() != mc_mem::FrameState::Allocated
                || retained.vpage().is_some()
                || retained.tier() <= live.tier()
            {
                violations.push(InvariantViolation {
                    frame: copy,
                    message: "shadow copy is not an unmapped lower-tier retention".into(),
                });
            }
        }
    }

    /// Checks invariants 1–4 for one node's lists, accumulating into
    /// `seen`/`violations`.
    fn check_node(
        &self,
        mem: &MemorySystem,
        node: NodeId,
        lists: &crate::lists::ListSet,
        seen: &mut HashSet<u32>,
        violations: &mut Vec<InvariantViolation>,
    ) {
        for (which, list) in [
            (WhichList::Inactive, &lists.inactive),
            (WhichList::Active, &lists.active),
            (WhichList::Promote, &lists.promote),
        ] {
            // Asserted, not reported: on a broken chain the walk below
            // would be meaningless or endless.
            #[cfg(debug_assertions)]
            list.check_links();
            for frame in list.iter() {
                if !seen.insert(frame.raw()) {
                    violations.push(InvariantViolation {
                        frame,
                        message: "appears on more than one list".into(),
                    });
                    continue;
                }
                match self.state_of(frame) {
                    None => violations.push(InvariantViolation {
                        frame,
                        message: format!("on the {which} list but untracked"),
                    }),
                    Some(st) if st.list() != which => violations.push(InvariantViolation {
                        frame,
                        message: format!("state {st} but on the {which} list"),
                    }),
                    Some(_) => {}
                }
                Self::check_node_of(mem, node, frame, violations);
            }
        }
    }

    /// Invariant 3's placement half: `frame` is listed under `node`, so
    /// its frame must report that node.
    fn check_node_of(
        mem: &MemorySystem,
        node: NodeId,
        frame: FrameId,
        violations: &mut Vec<InvariantViolation>,
    ) {
        let actual = mem.frame(frame).node();
        if actual != node {
            violations.push(InvariantViolation {
                frame,
                message: format!("listed under {node} but physically on {actual}"),
            });
        }
    }

    /// Debug-build self-check, wired after every scan, migrate and
    /// reclaim step: asserts the full invariant set via `debug_assert!`,
    /// so release builds compile it out entirely (the check is O(frames)
    /// and would dominate the simulation).
    #[inline]
    pub(crate) fn debug_validate(&self, mem: &MemorySystem) {
        // Nested steps (a promotion making room downstairs, a demotion
        // cascading) run while the outer step holds legitimately detached
        // in-flight pages, so validate only at quiescent points: when no
        // pressure run is active anywhere and nothing is mid-migration.
        if self.in_flight > 0 || self.pressure_guard.iter().any(|g| *g) {
            return;
        }
        debug_assert!(
            self.check_invariants(mem).is_empty(),
            "MULTI-CLOCK invariant violations:\n{}",
            self.check_invariants(mem)
                .iter()
                .map(|x| format!("  {x}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Panics with a readable report if any invariant is violated.
    ///
    /// # Panics
    ///
    /// Panics when [`Self::check_invariants`] finds anything.
    pub fn assert_invariants(&self, mem: &MemorySystem) {
        let v = self.check_invariants(mem);
        assert!(
            v.is_empty(),
            "MULTI-CLOCK invariant violations:\n{}",
            v.iter()
                .map(|x| format!("  {x}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MultiClockConfig;
    use mc_mem::{AccessKind, MachineDesc, Nanos, TieringPolicy, VPage};

    #[test]
    fn fresh_policy_is_consistent() {
        let mem = MemorySystem::new(MachineDesc::dram_pm(32, 64));
        let mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        assert!(mc.check_invariants(&mem).is_empty());
    }

    #[test]
    fn consistent_after_activity() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(32, 128));
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page(mc_mem::PageKind::Anon) {
            mem.map(VPage::new(v), f).unwrap();
            mc.on_page_mapped(&mut mem, f);
            v += 1;
        }
        for s in 1..=5u64 {
            for touched in 0..v / 2 {
                mem.access(VPage::new(touched), AccessKind::Read).unwrap();
            }
            mc.tick(&mut mem, Nanos::from_secs(s));
            mc.assert_invariants(&mem);
        }
    }

    #[test]
    fn violation_is_detected() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(32, 64));
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        let f = mem.alloc_page(mc_mem::PageKind::Anon).unwrap();
        mem.map(VPage::new(1), f).unwrap();
        mc.on_page_mapped(&mut mem, f);
        // Plant a second membership: the inactive page also joins the
        // active list.
        mc.nodes[0].active.push_back(f);
        let violations = mc.check_invariants(&mem);
        assert_eq!(violations.len(), 1);
        assert!(violations[0]
            .message
            .contains("appears on more than one list"));
        assert!(!format!("{}", violations[0]).is_empty());
    }
}
