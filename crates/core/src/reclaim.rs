//! The demotion/reclaim path (paper §III-C).
//!
//! When a tier crosses its low watermark it is reclaimed until balanced:
//!
//! 1. promote-list pages are migrated up (or parked on the active list if
//!    that is impossible);
//! 2. while the active:inactive ratio exceeds PFRA's `sqrt(10n):1`
//!    threshold, unreferenced active pages are deactivated (transition 9);
//! 3. the inactive list is shrunk from its cold end: unreferenced pages
//!    are migrated to the next lower tier (transition 3) or, on the lowest
//!    tier, written back / swapped out (the paper's eviction fallback).

use crate::multi_clock::MultiClock;
use crate::state::PageState;
use mc_clock::balance::inactive_is_low;
use mc_mem::{FrameId, MemError, MemorySystem, NodeId, TickOutcome, TierId};
use mc_obs::{saturating_bump, EventKind};

/// What one inactive-list shrink step achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShrinkResult {
    /// The page was migrated down a tier.
    Demoted,
    /// The page was not demoted: it was evicted to backing storage, or it
    /// was referenced/unmovable and rotated back.
    Stepped,
    /// The list was empty.
    Empty,
}

impl MultiClock {
    /// Reclaims `tier` until it is back above its high watermark, the
    /// reclaim budget is exhausted, or nothing more can be moved.
    ///
    /// `force` distinguishes real memory pressure (allocation failures,
    /// watermark breaches — reclaim *must* free memory, deactivating
    /// not-recently-referenced pages if the inactive lists run dry) from
    /// promotion-driven room-making, which is gentle: it only demotes
    /// pages that are genuinely cold, and lets promotions fall back to
    /// the active list when the upper tier is all-hot. Without this
    /// distinction a warm-page promotion storm would strip the hot core
    /// out of DRAM (each reclaim pass runs between reference-bit
    /// harvests, so it cannot see that those pages are being re-touched
    /// continuously).
    pub(crate) fn run_pressure(
        &mut self,
        mem: &mut MemorySystem,
        tier: TierId,
        force: bool,
    ) -> TickOutcome {
        self.run_pressure_toward(mem, tier, force, None)
    }

    /// [`Self::run_pressure`] with an explicit free-page goal: gentle
    /// (promotion-driven) reclaim passes the number of promotion
    /// candidates wanting room, so a big batch of worthy pages is not
    /// starved by the small watermark gap.
    pub(crate) fn run_pressure_toward(
        &mut self,
        mem: &mut MemorySystem,
        tier: TierId,
        force: bool,
        want_free: Option<usize>,
    ) -> TickOutcome {
        let mut out = TickOutcome::default();
        if self.pressure_guard[tier.index()] {
            return out;
        }
        self.pressure_guard[tier.index()] = true;
        saturating_bump(&mut self.stats.pressure_runs);
        let evictions_before = mem.stats().evictions;

        // Step 1: the promote list goes first — up if possible, otherwise
        // those pages join the active list.
        if tier.is_top() {
            self.flush_promote_to_active(mem, tier);
        } else {
            out.promoted += self.promote_all(mem, tier);
        }

        let mut budget = crate::RECLAIM_BATCH;

        // Step 2: rebalance active vs inactive.
        out.pages_scanned += self.rebalance_lists(mem, tier, &mut budget, force);

        // Step 3: shrink the inactive lists until the tier is balanced
        // (or, for goal-directed gentle reclaim, has the requested room).
        let goal_met = |mem: &MemorySystem| match want_free {
            Some(want) => mem.tier_free(tier) >= want,
            None => mem.tier_balanced(tier),
        };
        while !goal_met(mem) && budget > 0 {
            match self.shrink_inactive_any(mem, tier, force) {
                ShrinkResult::Demoted => out.demoted += 1,
                ShrinkResult::Stepped => {}
                ShrinkResult::Empty => {
                    // Gentle mode: out of genuinely cold pages - stop.
                    // Forced: the inactive lists are empty, so deactivate
                    // regardless of the ratio to let reclaim continue, or
                    // give up if even the active lists are empty.
                    if !force || !self.shrink_active_any(mem, tier, force) {
                        break;
                    }
                }
            }
            out.pages_scanned += 1;
            budget -= 1;
        }

        // Demotions drained the inactive list; restore the ratio so the
        // next reclaim pass has cold candidates ready.
        out.pages_scanned += self.rebalance_lists(mem, tier, &mut budget, force);

        self.pressure_guard[tier.index()] = false;
        self.debug_validate(mem);
        let freed = out.demoted + (mem.stats().evictions - evictions_before);
        mem.instruments.emit(|| EventKind::PressureRun {
            tier: tier.index() as u8,
            freed: freed.min(u64::from(u32::MAX)) as u32,
        });
        out
    }

    /// Deactivates unreferenced active pages while the inactive list is
    /// too small (PFRA's `sqrt(10n):1` rule). Returns pages scanned.
    ///
    /// Each call examines each active list at most once end-to-end: if
    /// every active page is protected by its referenced state, the ratio
    /// stays violated and reclaim simply has nothing cold to offer.
    fn rebalance_lists(
        &mut self,
        mem: &mut MemorySystem,
        tier: TierId,
        budget: &mut usize,
        force: bool,
    ) -> u64 {
        let tier_pages = mem.topology().tier(tier).pages();
        let mut scanned = 0;
        for i in 0..mem.topology().tier(tier).nodes().len() {
            let node = mem.topology().tier(tier).nodes()[i];
            let mut visits = self.nodes[node.index()].active.len();
            while *budget > 0 && visits > 0 {
                let set = &self.nodes[node.index()];
                if !inactive_is_low(set.active.len(), set.inactive.len(), tier_pages) {
                    break;
                }
                if !self.shrink_active_one(mem, tier, node, force) {
                    break;
                }
                visits -= 1;
                *budget -= 1;
                scanned += 1;
            }
        }
        scanned
    }

    /// Moves every promote-list page of the top tier to its active list
    /// (promotion is impossible there).
    fn flush_promote_to_active(&mut self, mem: &mut MemorySystem, tier: TierId) {
        for i in 0..mem.topology().tier(tier).nodes().len() {
            let node = mem.topology().tier(tier).nodes()[i];
            let pages = self.nodes[node.index()].promote.drain();
            for frame in pages {
                // fig4: 11 — flush: promote pages rejoin the active list.
                // Promote pages were referenced repeatedly; parking them
                // as ActiveRef keeps the hot core two decay steps away
                // from deactivation (otherwise reclaim would demote the
                // hottest pages of the tier right after flushing them).
                self.nodes[node.index()].active.push_back(frame);
                self.states[frame.index()] = Some(PageState::ActiveRef);
                mem.instruments.emit(|| EventKind::Fig4 {
                    edge: 11,
                    frame: frame.index() as u64,
                    tier: tier.index() as u8,
                });
            }
        }
    }

    /// [`Self::shrink_active_one`] over the tier's nodes in order: the
    /// first node with a non-empty active list is shrunk. Returns whether
    /// any page was processed.
    fn shrink_active_any(&mut self, mem: &mut MemorySystem, tier: TierId, force: bool) -> bool {
        for i in 0..mem.topology().tier(tier).nodes().len() {
            let node = mem.topology().tier(tier).nodes()[i];
            if self.shrink_active_one(mem, tier, node, force) {
                return true;
            }
        }
        false
    }

    /// [`Self::shrink_inactive_one`] over the tier's nodes in order: the
    /// first node whose inactive list yields a page decides the result.
    fn shrink_inactive_any(
        &mut self,
        mem: &mut MemorySystem,
        tier: TierId,
        force: bool,
    ) -> ShrinkResult {
        for i in 0..mem.topology().tier(tier).nodes().len() {
            let node = mem.topology().tier(tier).nodes()[i];
            let r = self.shrink_inactive_one(mem, tier, node, force);
            if r != ShrinkResult::Empty {
                return r;
            }
        }
        ShrinkResult::Empty
    }

    /// One `shrink_active_list()` step: the oldest active page either
    /// steps the ladder (if referenced) or is deactivated to the inactive
    /// list (transition 9). Returns whether a page was processed.
    fn shrink_active_one(
        &mut self,
        mem: &mut MemorySystem,
        tier: TierId,
        node: NodeId,
        force: bool,
    ) -> bool {
        let active = &mut self.nodes[node.index()].active;
        let Some(frame) = active.pop_front() else {
            return false;
        };
        // Re-insert so ladder moves operate on a member page.
        active.push_back(frame);
        if mem.harvest_referenced(frame) {
            self.apply_access(mem, frame);
        } else if self.state_of(frame) == Some(PageState::ActiveRef) {
            // The software referenced state (set by a scan that already
            // consumed the PTE bit) protects the page from gentle
            // (promotion-driven) reclaim: only the periodic scan may
            // decay it, otherwise a reclaim pass running between two
            // harvests would strip the hot core out of the tier. Forced
            // reclaim (real memory shortage) must make progress, so it
            // decays the page one step per rotation like the kernel's
            // direct-reclaim second chance.
            if force {
                // fig4: 8 — forced decay, one step per rotation.
                self.transition(mem, frame, PageState::ActiveUnref);
                mem.instruments.emit(|| EventKind::Fig4 {
                    edge: 8,
                    frame: frame.index() as u64,
                    tier: tier.index() as u8,
                });
            }
        } else {
            // fig4: 9 — deactivation to the inactive list.
            saturating_bump(&mut self.stats.deactivations);
            self.transition(mem, frame, PageState::InactiveUnref);
            mem.instruments.emit(|| EventKind::Fig4 {
                edge: 9,
                frame: frame.index() as u64,
                tier: tier.index() as u8,
            });
        }
        true
    }

    /// One `shrink_inactive_list()` step on the cold end of the inactive
    /// list.
    fn shrink_inactive_one(
        &mut self,
        mem: &mut MemorySystem,
        tier: TierId,
        node: NodeId,
        force: bool,
    ) -> ShrinkResult {
        let Some(frame) = self.nodes[node.index()].inactive.pop_front() else {
            return ShrinkResult::Empty;
        };
        if mem.harvest_referenced(frame) {
            // Referenced: rotate and step the ladder (transitions 1/6).
            self.nodes[node.index()].inactive.push_back(frame);
            self.apply_access(mem, frame);
            return ShrinkResult::Stepped;
        }
        if self.state_of(frame) == Some(PageState::InactiveRef) {
            // A scan saw this page referenced recently: rotate, do not
            // demote. Gentle reclaim never decays it (that is the
            // periodic scan's job); forced reclaim decays one step per
            // rotation so it cannot livelock when everything was just
            // touched.
            self.nodes[node.index()].inactive.push_back(frame);
            if force {
                // fig4: 1 — forced decay of the software referenced state.
                self.transition(mem, frame, PageState::InactiveUnref);
                mem.instruments.emit(|| EventKind::Fig4 {
                    edge: 1,
                    frame: frame.index() as u64,
                    tier: tier.index() as u8,
                });
            }
            return ShrinkResult::Stepped;
        }
        self.demote_or_evict(mem, frame, tier)
    }

    /// Migrates a cold page down one tier (a zero-copy flip when the
    /// substrate still holds the page's clean shadow there), or evicts it
    /// from the lowest tier. The page is currently detached from all lists.
    fn demote_or_evict(
        &mut self,
        mem: &mut MemorySystem,
        frame: FrameId,
        tier: TierId,
    ) -> ShrinkResult {
        let Some(lower) = tier.lower(mem.topology().tier_count()) else {
            if mem.evict(frame).is_ok() {
                // fig4: 4 — eviction unmaps the page and ends tracking.
                self.states[frame.index()] = None;
                mem.instruments.emit(|| EventKind::Fig4 {
                    edge: 4,
                    frame: frame.index() as u64,
                    tier: tier.index() as u8,
                });
                return ShrinkResult::Stepped;
            }
            return self.rotate_unmoved(mem, frame);
        };
        let mut moved = mem.migrate(frame, lower);
        if matches!(moved, Err(MemError::TierFull(_))) {
            // The lower tier is full too: reclaim it (which on the lowest
            // tier evicts to storage), then retry.
            if !self.pressure_guard[lower.index()] {
                self.run_pressure(mem, lower, true);
            }
            moved = mem.migrate(frame, lower);
        }
        let Ok(new_frame) = moved else {
            return self.rotate_unmoved(mem, frame);
        };
        // fig4: 3 — demotion lands cold on the lower tier.
        self.retrack_after_migration(mem, frame, new_frame, PageState::InactiveUnref);
        mem.instruments.emit(|| EventKind::Fig4 {
            edge: 3,
            frame: new_frame.index() as u64,
            tier: lower.index() as u8,
        });
        ShrinkResult::Demoted
    }

    /// Puts a page that could be neither demoted nor evicted back at the
    /// tail of the inactive list it was popped from.
    fn rotate_unmoved(&mut self, mem: &MemorySystem, frame: FrameId) -> ShrinkResult {
        self.frame_lists_mut(mem, frame).inactive.push_back(frame);
        ShrinkResult::Stepped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MultiClockConfig;
    use mc_mem::{AccessKind, MachineDesc, Nanos, PageKind, TieringPolicy, VPage};

    fn fill_dram(mem: &mut MemorySystem, mc: &mut MultiClock, start_v: u64) -> Vec<(u64, FrameId)> {
        let mut mapped = Vec::new();
        let mut v = start_v;
        while let Ok(f) = mem.alloc_page_in_tier(TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            mc.on_page_mapped(mem, f);
            mapped.push((v, f));
            v += 1;
        }
        mapped
    }

    #[test]
    fn pressure_demotes_cold_pages_to_pm() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        let pages = fill_dram(&mut mem, &mut mc, 0);
        assert!(mem.tier_under_pressure(TierId::TOP));
        let out = mc.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
        assert!(out.demoted > 0, "cold pages must demote under pressure");
        assert!(
            mem.tier_balanced(TierId::TOP),
            "reclaim restores high watermark"
        );
        // Demoted pages are mapped in PM now, tracked as inactive there.
        let demoted = pages
            .iter()
            .filter(|(v, _)| {
                let nf = mem.translate(VPage::new(*v)).unwrap();
                mem.frame(nf).tier() == TierId::new(1)
            })
            .count();
        assert_eq!(demoted as u64, out.demoted);
        assert_eq!(mem.stats().demotions, out.demoted);
    }

    #[test]
    fn referenced_pages_survive_pressure_longer_than_cold_ones() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        let pages = fill_dram(&mut mem, &mut mc, 0);
        // Touch the second half of the pages (sets PTE reference bits).
        let half = pages.len() / 2;
        for (v, _) in &pages[half..] {
            mem.access(VPage::new(*v), AccessKind::Read).unwrap();
        }
        mc.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
        let survivors: Vec<bool> = pages
            .iter()
            .map(|(v, _)| {
                let nf = mem.translate(VPage::new(*v)).unwrap();
                mem.frame(nf).tier() == TierId::TOP
            })
            .collect();
        let cold_survivors = survivors[..half].iter().filter(|s| **s).count();
        let hot_survivors = survivors[half..].iter().filter(|s| **s).count();
        assert!(
            hot_survivors > cold_survivors,
            "referenced pages ({hot_survivors}) must outlive cold ones ({cold_survivors})"
        );
    }

    #[test]
    fn lowest_tier_pressure_evicts_to_storage() {
        // Tiny machine: fill both tiers, then demand reclaim on PM.
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 32));
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page(PageKind::Anon) {
            mem.map(VPage::new(v), f).unwrap();
            mc.on_page_mapped(&mut mem, f);
            v += 1;
        }
        assert!(mem.tier_under_pressure(TierId::new(1)));
        let before = mem.stats().evictions;
        mc.on_pressure(&mut mem, TierId::new(1), Nanos::ZERO);
        assert!(mem.stats().evictions > before, "lowest tier evicts");
        assert!(mem.tier_balanced(TierId::new(1)));
    }

    #[test]
    fn demotion_cascade_dram_to_pm_to_storage() {
        // Both tiers full: DRAM pressure demotes into PM, which must first
        // evict its own cold pages.
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 32));
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page(PageKind::Anon) {
            mem.map(VPage::new(v), f).unwrap();
            mc.on_page_mapped(&mut mem, f);
            v += 1;
        }
        let out = mc.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
        assert!(out.demoted > 0, "DRAM pages demoted despite full PM");
        assert!(mem.stats().evictions > 0, "PM made room by evicting");
        assert!(mem.tier_balanced(TierId::TOP));
    }

    #[test]
    fn pressure_is_reentrancy_safe_and_terminates() {
        // A pathological machine where everything is tiny.
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(8, 8));
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page(PageKind::Anon) {
            mem.map(VPage::new(v), f).unwrap();
            mc.on_page_mapped(&mut mem, f);
            v += 1;
        }
        // Must not hang or overflow the stack.
        for _ in 0..3 {
            mc.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
            mc.on_pressure(&mut mem, TierId::new(1), Nanos::ZERO);
        }
    }

    #[test]
    fn active_inactive_ratio_is_restored_under_pressure() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        let pages = fill_dram(&mut mem, &mut mc, 0);
        // Make everything active (two supervised accesses each).
        for (_, f) in &pages {
            mc.on_supervised_access(&mut mem, *f, AccessKind::Read);
            mc.on_supervised_access(&mut mem, *f, AccessKind::Read);
        }
        let lists = mc.node_lists(NodeId::new(0));
        assert!(lists.active.len() > lists.inactive.len());
        mc.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
        let lists = mc.node_lists(NodeId::new(0));
        let tier_pages = mem.topology().tier(TierId::TOP).pages();
        assert!(
            !inactive_is_low(lists.active.len(), lists.inactive.len(), tier_pages),
            "ratio restored: active={} inactive={}",
            lists.active.len(),
            lists.inactive.len()
        );
        assert!(mc.stats().deactivations > 0);
    }

    #[test]
    fn three_tier_demotion_goes_one_tier_down() {
        let mut mem = MemorySystem::new(MachineDesc::three_tier(16, 64, 256));
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        // Fill HBM.
        let mut v = 0u64;
        let mut hbm_pages = Vec::new();
        while let Ok(f) = mem.alloc_page_in_tier(TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            mc.on_page_mapped(&mut mem, f);
            hbm_pages.push(v);
            v += 1;
        }
        let out = mc.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
        assert!(out.demoted > 0);
        // Demoted pages land in DRAM (tier 1), not PM (tier 2).
        for pv in &hbm_pages {
            let nf = mem.translate(VPage::new(*pv)).unwrap();
            assert_ne!(mem.frame(nf).tier(), TierId::new(2));
        }
    }
}
