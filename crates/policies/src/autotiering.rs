//! AutoTiering baselines (Kim et al., ATC'21), CPM and OPM flavours.
//!
//! AutoTiering tracks page accesses with **software hint page faults**
//! (AutoNUMA-style PTE poisoning): a sampled page's PTE is invalidated;
//! the next access takes a fault that both *reveals* the access and
//! *costs* fault-handling time — the overhead the MULTI-CLOCK paper blames
//! for AutoTiering's losses (§V-C.1).
//!
//! * **AT-CPM** (conservative promotion migration): when a lower-tier page
//!   faults, it is migrated to the upper tier *synchronously on the fault
//!   path*; if the upper tier is full it performs a two-sided **page
//!   exchange** with a cold upper-tier page — both copies stall the
//!   application. Promotion is recency-triggered (a single fault).
//! * **AT-OPM** (opportunistic promotion migration): keeps an N-bit
//!   per-page fault-history vector (the paper's "maintain N-bit history
//!   for demotion"; here N = 8, one `u8` per frame); a background pass
//!   demotes zero-history pages to keep `HEADROOM_PAGES` free for
//!   promotion, so fault-path promotions are asynchronous and cheaper —
//!   but the technique still pays for every hint fault and carries
//!   per-page metadata (Table I "Space Overhead").

use crate::ring::{self, Rings, RECLAIM_BATCH};
use mc_mem::{
    AccessKind, Charge, FrameId, MemError, MemorySystem, Nanos, PolicyTraits, TickOutcome, TierId,
    TieringPolicy, Topology,
};
use mc_obs::EventKind;

/// OPM: free pages the background demoter tries to keep available in the
/// top tier for incoming promotions.
const HEADROOM_PAGES: usize = 64;

/// Which AutoTiering variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoTieringMode {
    /// Conservative promotion migration (synchronous fault-path exchange).
    Cpm,
    /// Opportunistic promotion migration (N-bit history + background
    /// demotion).
    Opm,
}

impl AutoTieringMode {
    /// Short display name matching the paper's figures.
    #[cfg(test)]
    pub(crate) fn label(self) -> &'static str {
        match self {
            AutoTieringMode::Cpm => "AT-CPM",
            AutoTieringMode::Opm => "AT-OPM",
        }
    }
}

/// The AutoTiering policy (CPM or OPM).
#[derive(Debug)]
pub struct AutoTiering {
    mode: AutoTieringMode,
    scan_interval: Nanos,
    /// PTEs poisoned per tick (the AutoNUMA scan-size analogue).
    sample_batch: usize,
    /// Round-robin poisoning ring per tier.
    rings: Rings,
    /// Per-frame fault-history bits (bit 0 = most recent interval).
    history: Vec<u8>,
    /// Frames that hint-faulted during the current interval.
    faulted: Vec<bool>,
}

impl AutoTiering {
    /// Creates an AutoTiering instance: one sampling pass every
    /// `scan_interval`, poisoning up to `sample_batch` PTEs.
    pub fn new(
        mode: AutoTieringMode,
        topology: &Topology,
        scan_interval: Nanos,
        sample_batch: usize,
    ) -> Self {
        assert!(sample_batch > 0, "sample batch must be positive");
        AutoTiering {
            mode,
            scan_interval,
            sample_batch,
            rings: Rings::new(topology),
            history: vec![0; topology.total_pages()],
            faulted: vec![false; topology.total_pages()],
        }
    }

    /// CPM with a 1 s interval and 4096-PTE samples.
    pub fn cpm(topology: &Topology) -> Self {
        Self::new(AutoTieringMode::Cpm, topology, Nanos::from_secs(1), 4096)
    }

    /// OPM with a 1 s interval and 4096-PTE samples.
    pub fn opm(topology: &Topology) -> Self {
        Self::new(AutoTieringMode::Opm, topology, Nanos::from_secs(1), 4096)
    }

    /// The variant in use.
    #[cfg(test)]
    pub(crate) fn mode(&self) -> AutoTieringMode {
        self.mode
    }

    /// The fault history of a frame.
    #[cfg(test)]
    pub(crate) fn history_of(&self, frame: FrameId) -> u8 {
        self.history[frame.index()]
    }

    fn untrack(&mut self, frame: FrameId, tier: TierId) {
        self.rings.untrack(tier, frame);
        self.history[frame.index()] = 0;
        self.faulted[frame.index()] = false;
    }

    /// Follows a migration, carrying the frame's history and fault mark.
    fn retrack(&mut self, old: FrameId, new: FrameId, src: TierId, dst: TierId) {
        self.rings.moved(old, new, src, dst);
        self.history[new.index()] = std::mem::take(&mut self.history[old.index()]);
        self.faulted[new.index()] = std::mem::take(&mut self.faulted[old.index()]);
    }

    /// Finds a cold (zero-history, unfaulted) victim in `tier`, scanning
    /// up to `limit` ring entries.
    fn find_cold_victim(&mut self, tier: TierId, limit: usize) -> Option<FrameId> {
        let (history, faulted) = (&self.history, &self.faulted);
        self.rings.rotate_until(tier, limit, |f| {
            history[f.index()] == 0 && !faulted[f.index()]
        })
    }

    /// Demotes one cold page out of `tier`; returns whether a page moved.
    /// Synchronous (fault-path) demotions fall back to the next
    /// round-robin victim when no cold page exists: CPM *must* free a
    /// frame to complete the exchange, which is one of the ways it hurts
    /// itself on the critical path.
    fn demote_cold(&mut self, mem: &mut MemorySystem, tier: TierId, sync: bool) -> bool {
        let Some(lower) = tier.lower(mem.topology().tier_count()) else {
            return false;
        };
        let victim = self
            .find_cold_victim(tier, 256)
            .or_else(|| sync.then(|| self.rings.rotate(tier)).flatten());
        let Some(victim) = victim else {
            return false;
        };
        match mem.migrate(victim, lower) {
            Ok(new_frame) => {
                if sync {
                    // CPM exchanges run on the fault path: the copy stalls
                    // the application too.
                    let extra = mem.latency().migration(tier, lower).background;
                    mem.charge(Charge::MigrationStall, extra);
                }
                self.retrack(victim, new_frame, tier, lower);
                true
            }
            Err(_) => false,
        }
    }

    /// Attempts to promote `frame` to the tier above.
    fn promote(&mut self, mem: &mut MemorySystem, frame: FrameId, tier: TierId) {
        let Some(upper) = tier.upper() else { return };
        match mem.migrate(frame, upper) {
            Ok(new_frame) => {
                if self.mode == AutoTieringMode::Cpm {
                    let extra = mem.latency().migration(tier, upper).background;
                    mem.charge(Charge::MigrationStall, extra);
                }
                self.retrack(frame, new_frame, tier, upper);
            }
            Err(MemError::TierFull(_)) => match self.mode {
                AutoTieringMode::Cpm => {
                    // Synchronous two-sided exchange.
                    if self.demote_cold(mem, upper, true) {
                        if let Ok(new_frame) = mem.migrate(frame, upper) {
                            let extra = mem.latency().migration(tier, upper).background;
                            mem.charge(Charge::MigrationStall, extra);
                            self.retrack(frame, new_frame, tier, upper);
                        }
                    }
                }
                AutoTieringMode::Opm => {
                    // Defer: the background demoter will open headroom.
                }
            },
            Err(_) => {}
        }
    }
}

impl TieringPolicy for AutoTiering {
    fn name(&self) -> &'static str {
        match self.mode {
            AutoTieringMode::Cpm => "at-cpm",
            AutoTieringMode::Opm => "at-opm",
        }
    }

    fn traits(&self) -> PolicyTraits {
        PolicyTraits {
            name: match self.mode {
                AutoTieringMode::Cpm => "AutoTiering-CPM",
                AutoTieringMode::Opm => "AutoTiering-OPM",
            },
            page_access_tracking: "Software Page Fault",
            selection_promotion: "Recency",
            selection_demotion: "Frequency",
            numa_aware: true,
            space_overhead: true,
            generality: "All",
            key_insight: "Maintain N-bit history for demotion",
        }
    }

    fn on_page_mapped(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        self.rings.track(mem.frame(frame).tier(), frame);
        self.history[frame.index()] = 0;
        self.faulted[frame.index()] = false;
    }

    fn on_supervised_access(
        &mut self,
        _mem: &mut MemorySystem,
        _frame: FrameId,
        _kind: AccessKind,
    ) {
        // AutoTiering only observes accesses through hint faults.
    }

    fn on_hint_fault(&mut self, mem: &mut MemorySystem, frame: FrameId, _kind: AccessKind) {
        self.faulted[frame.index()] = true;
        let tier = mem.frame(frame).tier();
        if !tier.is_top() {
            self.promote(mem, frame, tier);
        }
    }

    fn tick(&mut self, mem: &mut MemorySystem, now: Nanos) -> TickOutcome {
        // Fold the interval's faults into the history vectors of every
        // tracked page, then poison the next sample of PTEs, round robin
        // across tiers in proportion to their size.
        for frame in self.rings.iter() {
            let h = &mut self.history[frame.index()];
            *h = (*h << 1) | u8::from(self.faulted[frame.index()]);
            self.faulted[frame.index()] = false;
        }
        let (poisoned, total) = self.rings.poison(mem, self.sample_batch, |_| {});
        mem.instruments.emit(|| EventKind::Custom {
            tag: "autotiering_poison_batch",
            a: poisoned,
            b: total as u64,
        });
        let mut out = TickOutcome {
            pages_scanned: poisoned,
            ..TickOutcome::default()
        };

        // OPM: keep promotion headroom in the top tier.
        if self.mode == AutoTieringMode::Opm {
            let mut guard = RECLAIM_BATCH;
            while mem.tier_free(TierId::TOP) < HEADROOM_PAGES && guard > 0 {
                if !self.demote_cold(mem, TierId::TOP, false) {
                    break;
                }
                out.demoted += 1;
                guard -= 1;
            }
        }

        out.merge(&ring::relieve_pressure(self, mem, now));
        out
    }

    /// Not `ring::reclaim`: victims are picked by history, not popped,
    /// and a failed demotion is not followed by an eviction.
    fn on_pressure(&mut self, mem: &mut MemorySystem, tier: TierId, _now: Nanos) -> TickOutcome {
        let mut out = TickOutcome::default();
        let mut budget = RECLAIM_BATCH;
        let lower = tier.lower(mem.topology().tier_count());
        while !mem.tier_balanced(tier) && budget > 0 {
            budget -= 1;
            out.pages_scanned += 1;
            // Coldest-first: zero-history victims, else round-robin.
            let victim = self
                .find_cold_victim(tier, 128)
                .or_else(|| self.rings.rotate(tier));
            let Some(victim) = victim else { break };
            match lower {
                Some(lower_tier) => {
                    if let Ok(new_frame) = mem.migrate(victim, lower_tier) {
                        self.retrack(victim, new_frame, tier, lower_tier);
                        out.demoted += 1;
                    }
                }
                None => {
                    if mem.evict(victim).is_ok() {
                        self.untrack(victim, tier);
                    }
                }
            }
        }
        out
    }

    fn tick_interval(&self) -> Option<Nanos> {
        Some(self.scan_interval)
    }

    fn counters(&self, mem: &MemorySystem) -> Vec<(&'static str, u64)> {
        vec![
            ("autotiering_promotions", mem.stats().promotions),
            ("autotiering_demotions", mem.stats().demotions),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_mem::{MachineDesc, PageKind, VPage};

    fn map_in_tier(mem: &mut MemorySystem, at: &mut AutoTiering, v: u64, tier: TierId) -> FrameId {
        let f = mem.alloc_page_in_tier(tier).unwrap();
        mem.map(VPage::new(v), f).unwrap();
        at.on_page_mapped(mem, f);
        f
    }

    #[test]
    fn tick_poisons_ptes() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mut at = AutoTiering::cpm(mem.topology());
        for v in 0..20u64 {
            map_in_tier(&mut mem, &mut at, v, TierId::new(1));
        }
        let out = at.tick(&mut mem, Nanos::from_secs(1));
        assert!(out.pages_scanned > 0);
        let poisoned = (0..20u64)
            .filter(|v| mem.page_table().get(VPage::new(*v)).unwrap().poisoned)
            .count();
        assert_eq!(poisoned, 20, "small working sets are fully sampled");
    }

    #[test]
    fn hint_fault_promotes_pm_page() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mut at = AutoTiering::cpm(mem.topology());
        let f = map_in_tier(&mut mem, &mut at, 1, TierId::new(1));
        at.tick(&mut mem, Nanos::from_secs(1));
        let out = mem.access(VPage::new(1), AccessKind::Read).unwrap();
        assert!(out.hint_fault, "poisoned PTE faults");
        at.on_hint_fault(&mut mem, f, AccessKind::Read);
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP, "promoted on fault path");
        assert_eq!(mem.stats().promotions, 1);
    }

    #[test]
    fn cpm_exchanges_when_dram_full() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 64));
        let mut at = AutoTiering::cpm(mem.topology());
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page_in_tier(TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            at.on_page_mapped(&mut mem, f);
            v += 1;
        }
        let hot = map_in_tier(&mut mem, &mut at, 1000, TierId::new(1));
        at.on_hint_fault(&mut mem, hot, AccessKind::Read);
        // The exchange: one cold DRAM page down, the hot page up.
        assert_eq!(mem.stats().promotions, 1);
        assert_eq!(
            mem.stats().demotions,
            1,
            "CPM exchanged with a cold DRAM page"
        );
        assert_eq!(
            mem.frame(mem.translate(VPage::new(1000)).unwrap()).tier(),
            TierId::TOP
        );
    }

    #[test]
    fn opm_defers_promotion_until_headroom_exists() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(128, 512));
        let mut at = AutoTiering::opm(mem.topology());
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page_in_tier(TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            at.on_page_mapped(&mut mem, f);
            v += 1;
        }
        let hot = map_in_tier(&mut mem, &mut at, 1000, TierId::new(1));
        at.on_hint_fault(&mut mem, hot, AccessKind::Read);
        assert_eq!(
            mem.stats().promotions,
            0,
            "OPM does not exchange on the fault path"
        );
        // Background demotion opens headroom at the next tick.
        at.tick(&mut mem, Nanos::from_secs(1));
        assert!(mem.stats().demotions > 0, "background demoter ran");
        assert!(mem.tier_free(TierId::TOP) > 0);
        // Next fault succeeds.
        at.on_hint_fault(&mut mem, hot, AccessKind::Read);
        assert_eq!(mem.stats().promotions, 1);
    }

    #[test]
    fn history_folds_faults_and_shifts() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mut at = AutoTiering::opm(mem.topology());
        let f = map_in_tier(&mut mem, &mut at, 1, TierId::TOP);
        at.on_hint_fault(&mut mem, f, AccessKind::Read);
        at.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(at.history_of(f) & 1, 1, "fault recorded");
        at.tick(&mut mem, Nanos::from_secs(2));
        assert_eq!(at.history_of(f) & 1, 0, "history shifted");
        assert_eq!(at.history_of(f) & 2, 2);
    }

    #[test]
    fn opm_protects_pages_with_history_from_background_demotion() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 64));
        let mut at = AutoTiering::opm(mem.topology());
        let mut frames = Vec::new();
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page_in_tier(TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            at.on_page_mapped(&mut mem, f);
            frames.push(f);
            v += 1;
        }
        // Give the first three pages fault history.
        for f in frames.iter().take(3) {
            at.on_hint_fault(&mut mem, *f, AccessKind::Read);
        }
        at.tick(&mut mem, Nanos::from_secs(1));
        for f in frames.iter().take(3) {
            assert_eq!(
                mem.frame(*f).tier(),
                TierId::TOP,
                "faulted page must not be demoted by the background pass"
            );
        }
        assert!(
            mem.stats().demotions > 0,
            "cold pages were demoted for headroom"
        );
    }

    #[test]
    fn pressure_reclaims_lowest_tier_by_eviction() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 32));
        let mut at = AutoTiering::cpm(mem.topology());
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page(PageKind::Anon) {
            mem.map(VPage::new(v), f).unwrap();
            at.on_page_mapped(&mut mem, f);
            v += 1;
        }
        at.on_pressure(&mut mem, TierId::new(1), Nanos::ZERO);
        assert!(mem.stats().evictions > 0);
        assert!(mem.tier_balanced(TierId::new(1)));
    }

    #[test]
    fn traits_differ_by_mode_name_only() {
        let mem = MemorySystem::new(MachineDesc::dram_pm(16, 64));
        let cpm = AutoTiering::cpm(mem.topology());
        let opm = AutoTiering::opm(mem.topology());
        assert_eq!(cpm.traits().page_access_tracking, "Software Page Fault");
        assert!(cpm.traits().space_overhead);
        assert_ne!(cpm.traits().name, opm.traits().name);
        assert_eq!(cpm.mode().label(), "AT-CPM");
        assert_eq!(opm.mode().label(), "AT-OPM");
    }
}
