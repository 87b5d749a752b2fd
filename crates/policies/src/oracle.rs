//! Oracle selection policies for ablation.
//!
//! The paper argues strict LRU/LFU are impractical in a kernel ("tracking
//! every in-memory page access is not feasible", §II-D) and therefore does
//! not compare against them on real hardware. In simulation we *can*
//! observe every access, so these oracles bound how much of MULTI-CLOCK's
//! win comes from selection quality versus tracking cost. They require the
//! engine's oracle-visibility mode (every access is delivered through
//! [`mc_mem::TieringPolicy::on_supervised_access`]).
//!
//! Recency stamps come from a single global counter so they stay
//! comparable across tiers and across migrations.
//!
//! The oracles wake on their own clock: every 1 s of virtual time, moving
//! up to 1 024 pages per tier, whatever the simulation's `scan_interval`.
//! At a scaled-down interval they therefore tick far less often than every
//! other system, and promote correspondingly fewer pages.

use crate::ring::{self, RECLAIM_BATCH};
use mc_mem::{
    AccessKind, FrameId, MemError, MemorySystem, Nanos, PolicyTraits, TickOutcome, TierId,
    TieringPolicy, Topology,
};
use std::cmp::Reverse;

/// Which oracle to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Strict least-recently-used: promote the most recently used
    /// lower-tier pages, demote the least recently used top-tier pages.
    Lru,
    /// Least-frequently-used with periodic decay: promote by access count.
    Lfu,
}

impl OracleKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            OracleKind::Lru => "oracle-LRU",
            OracleKind::Lfu => "oracle-LFU",
        }
    }
}

/// A full-visibility selection oracle.
#[derive(Debug)]
pub struct OraclePolicy {
    kind: OracleKind,
    /// Last-use stamp per frame (higher = more recent); 0 = not tracked.
    stamps: Vec<u64>,
    /// The stamp handed out last.
    last_stamp: u64,
    /// Per-frame access counts (LFU), halved every tick.
    counts: Vec<u64>,
    /// Pages to promote per tick.
    batch: usize,
    interval: Nanos,
    promotions: u64,
}

impl OraclePolicy {
    /// Creates an oracle policy.
    pub fn new(kind: OracleKind, topology: &Topology) -> Self {
        OraclePolicy {
            kind,
            stamps: vec![0; topology.total_pages()],
            last_stamp: 0,
            counts: vec![0; topology.total_pages()],
            batch: 1024,
            interval: Nanos::from_secs(1),
            promotions: 0,
        }
    }

    /// The oracle flavour.
    pub fn kind(&self) -> OracleKind {
        self.kind
    }

    /// Pages promoted so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Records a use of `frame`: most recent from now on.
    fn touch(&mut self, frame: FrameId) {
        self.last_stamp += 1;
        self.stamps[frame.index()] = self.last_stamp;
    }

    /// Stops tracking `frame`.
    fn forget(&mut self, frame: FrameId) {
        self.stamps[frame.index()] = 0;
        self.counts[frame.index()] = 0;
    }

    /// The score of a frame under this oracle (higher = hotter).
    fn score(&self, frame: FrameId) -> u64 {
        match self.kind {
            OracleKind::Lru => self.stamps[frame.index()],
            OracleKind::Lfu => self.counts[frame.index()],
        }
    }

    /// All tracked frames of one tier, hottest first.
    fn by_heat(&self, mem: &MemorySystem, tier: TierId) -> Vec<FrameId> {
        let mut v: Vec<(u64, FrameId)> = (0..self.stamps.len())
            .map(|i| FrameId::new(i as u32))
            .filter(|f| self.stamps[f.index()] > 0 && mem.frame(*f).tier() == tier)
            .map(|f| (self.score(f), f))
            .collect();
        v.sort_by_key(|(s, f)| (Reverse(*s), f.raw()));
        v.into_iter().map(|(_, f)| f).collect()
    }

    /// Carries recency/count metadata across a migration: a migrated page
    /// is exactly as recent as it was, not freshly used.
    fn transfer(&mut self, old: FrameId, new: FrameId) {
        self.stamps[new.index()] = std::mem::take(&mut self.stamps[old.index()]);
        self.counts[new.index()] = std::mem::take(&mut self.counts[old.index()]);
    }

    /// Demotes the coldest migratable page of a tier; returns success.
    fn demote_coldest(&mut self, mem: &mut MemorySystem, tier: TierId) -> bool {
        let Some(lower) = tier.lower(mem.topology().tier_count()) else {
            return false;
        };
        let mut members = self.by_heat(mem, tier);
        members.reverse(); // coldest first
        for victim in members.into_iter().take(16) {
            if !mem.frame(victim).migratable() {
                continue;
            }
            if let Ok(new_frame) = mem.migrate(victim, lower) {
                self.transfer(victim, new_frame);
                return true;
            }
        }
        false
    }
}

impl TieringPolicy for OraclePolicy {
    fn name(&self) -> &'static str {
        match self.kind {
            OracleKind::Lru => "oracle-lru",
            OracleKind::Lfu => "oracle-lfu",
        }
    }

    fn traits(&self) -> PolicyTraits {
        PolicyTraits {
            name: match self.kind {
                OracleKind::Lru => "Oracle-LRU",
                OracleKind::Lfu => "Oracle-LFU",
            },
            page_access_tracking: "Full visibility (simulation only)",
            selection_promotion: match self.kind {
                OracleKind::Lru => "Recency",
                OracleKind::Lfu => "Frequency",
            },
            selection_demotion: match self.kind {
                OracleKind::Lru => "Recency",
                OracleKind::Lfu => "Frequency",
            },
            numa_aware: true,
            space_overhead: true,
            generality: "All",
            key_insight: "Upper bound on selection quality",
        }
    }

    fn on_page_mapped(&mut self, _mem: &mut MemorySystem, frame: FrameId) {
        self.touch(frame);
        self.counts[frame.index()] = 0;
    }

    fn on_page_unmapped(&mut self, _mem: &mut MemorySystem, frame: FrameId) {
        self.forget(frame);
    }

    fn on_supervised_access(&mut self, _mem: &mut MemorySystem, frame: FrameId, _kind: AccessKind) {
        self.touch(frame);
        self.counts[frame.index()] += 1;
    }

    fn tick(&mut self, mem: &mut MemorySystem, now: Nanos) -> TickOutcome {
        let mut out = TickOutcome::default();
        // Promote the hottest lower-tier pages, demoting to make room —
        // but only while the candidate is hotter than the tier-up victim
        // (the oracle never makes a placement worse).
        for t in (1..mem.topology().tier_count()).rev() {
            let tier = TierId::new(t as u8);
            let Some(upper) = tier.upper() else {
                continue; // t >= 1: never the top tier
            };
            let hot: Vec<FrameId> = self
                .by_heat(mem, tier)
                .into_iter()
                .take(self.batch)
                .collect();
            for frame in hot {
                if !mem.frame(frame).migratable() || mem.frame(frame).tier() != tier {
                    continue;
                }
                let moved = match mem.migrate(frame, upper) {
                    Ok(nf) => Some(nf),
                    Err(MemError::TierFull(_)) => {
                        // Worth an exchange only if the candidate beats
                        // the coldest upper-tier page.
                        let coldest_upper = self.by_heat(mem, upper).last().map(|f| self.score(*f));
                        if coldest_upper.is_some_and(|c| self.score(frame) > c)
                            && self.demote_coldest(mem, upper)
                        {
                            mem.migrate(frame, upper).ok()
                        } else {
                            None
                        }
                    }
                    Err(_) => None,
                };
                if let Some(new_frame) = moved {
                    self.transfer(frame, new_frame);
                    self.promotions += 1;
                    out.promoted += 1;
                } else {
                    // Nothing colder upstairs: later candidates are colder
                    // still.
                    break;
                }
            }
        }
        // LFU decay.
        if self.kind == OracleKind::Lfu {
            for c in &mut self.counts {
                *c /= 2;
            }
        }
        out.merge(&ring::relieve_pressure(self, mem, now));
        out
    }

    fn on_pressure(&mut self, mem: &mut MemorySystem, tier: TierId, _now: Nanos) -> TickOutcome {
        let mut out = TickOutcome::default();
        let mut budget = RECLAIM_BATCH;
        while !mem.tier_balanced(tier) && budget > 0 {
            budget -= 1;
            if self.demote_coldest(mem, tier) {
                out.demoted += 1;
                continue;
            }
            // Lowest tier (or stuck): evict the coldest member.
            let victim = self.by_heat(mem, tier).pop();
            let Some(victim) = victim else { break };
            if mem.evict(victim).is_ok() {
                self.forget(victim);
            } else {
                break;
            }
        }
        out
    }

    fn tick_interval(&self) -> Option<Nanos> {
        Some(self.interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_mem::{MachineDesc, PageKind, VPage};

    fn map_in_tier(mem: &mut MemorySystem, p: &mut OraclePolicy, v: u64, tier: TierId) -> FrameId {
        let f = mem.alloc_page_in_tier(PageKind::Anon, tier).unwrap();
        mem.map(VPage::new(v), f).unwrap();
        p.on_page_mapped(mem, f);
        f
    }

    #[test]
    fn lru_oracle_promotes_recent_pages() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mut p = OraclePolicy::new(OracleKind::Lru, mem.topology());
        let f = map_in_tier(&mut mem, &mut p, 1, TierId::new(1));
        p.on_supervised_access(&mut mem, f, AccessKind::Read);
        let out = p.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.promoted, 1);
        assert_eq!(
            mem.frame(mem.translate(VPage::new(1)).unwrap()).tier(),
            TierId::TOP
        );
    }

    #[test]
    fn exchange_requires_candidate_hotter_than_victim() {
        // Fill DRAM with pages touched *after* the PM page: the PM page is
        // colder than everything upstairs, so the oracle must refuse the
        // exchange.
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 64));
        let mut p = OraclePolicy::new(OracleKind::Lru, mem.topology());
        let cold_pm = map_in_tier(&mut mem, &mut p, 999, TierId::new(1));
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page_in_tier(PageKind::Anon, TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            p.on_page_mapped(&mut mem, f);
            p.on_supervised_access(&mut mem, f, AccessKind::Read);
            v += 1;
        }
        let out = p.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.promoted, 0, "cold PM page must not displace hot DRAM");
        assert_eq!(mem.frame(cold_pm).tier(), TierId::new(1));
    }

    #[test]
    fn hot_pm_page_displaces_cold_dram_page() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 64));
        let mut p = OraclePolicy::new(OracleKind::Lru, mem.topology());
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page_in_tier(PageKind::Anon, TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            p.on_page_mapped(&mut mem, f);
            v += 1;
        }
        let hot = map_in_tier(&mut mem, &mut p, 999, TierId::new(1));
        p.on_supervised_access(&mut mem, hot, AccessKind::Read);
        let out = p.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.promoted, 1);
        let nf = mem.translate(VPage::new(999)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
    }

    #[test]
    fn recency_survives_migration() {
        // The fix for the cross-tier stamp bug: a page's heat must be
        // comparable before and after it moves.
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mut p = OraclePolicy::new(OracleKind::Lru, mem.topology());
        let a = map_in_tier(&mut mem, &mut p, 1, TierId::new(1));
        let b = map_in_tier(&mut mem, &mut p, 2, TierId::new(1));
        p.on_supervised_access(&mut mem, a, AccessKind::Read);
        p.on_supervised_access(&mut mem, b, AccessKind::Read);
        let score_b_before = p.score(b);
        p.tick(&mut mem, Nanos::from_secs(1)); // promotes both
        let nb = mem.translate(VPage::new(2)).unwrap();
        assert_eq!(mem.frame(nb).tier(), TierId::TOP);
        assert_eq!(p.score(nb), score_b_before, "stamp carried across tiers");
    }

    #[test]
    fn lfu_oracle_prefers_frequent_pages_under_contention() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mut p = OraclePolicy::new(OracleKind::Lfu, mem.topology());
        p.batch = 1;
        let frequent = map_in_tier(&mut mem, &mut p, 1, TierId::new(1));
        let rare = map_in_tier(&mut mem, &mut p, 2, TierId::new(1));
        for _ in 0..10 {
            p.on_supervised_access(&mut mem, frequent, AccessKind::Read);
        }
        p.on_supervised_access(&mut mem, rare, AccessKind::Read);
        p.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(
            mem.frame(mem.translate(VPage::new(1)).unwrap()).tier(),
            TierId::TOP,
            "the frequent page wins the single slot"
        );
        let _ = rare;
    }

    #[test]
    fn untouched_pages_are_not_promoted_by_lfu() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mut p = OraclePolicy::new(OracleKind::Lfu, mem.topology());
        let f = map_in_tier(&mut mem, &mut p, 1, TierId::new(1));
        let out = p.tick(&mut mem, Nanos::from_secs(1));
        // A zero-count page may be promoted only into *free* space (it
        // never displaces anything).
        let _ = out;
        let _ = f;
        assert_eq!(p.counts[f.index()], 0);
    }

    #[test]
    fn pressure_demotes_coldest_first() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(32, 128));
        let mut p = OraclePolicy::new(OracleKind::Lru, mem.topology());
        let mut frames = Vec::new();
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page_in_tier(PageKind::Anon, TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            p.on_page_mapped(&mut mem, f);
            frames.push((v, f));
            v += 1;
        }
        // Touch the last half so they are recent.
        let half = frames.len() / 2;
        for (_, f) in &frames[half..] {
            p.on_supervised_access(&mut mem, *f, AccessKind::Read);
        }
        p.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
        let survivors_recent = frames[half..]
            .iter()
            .filter(|(v, _)| {
                mem.frame(mem.translate(VPage::new(*v)).unwrap()).tier() == TierId::TOP
            })
            .count();
        let survivors_old = frames[..half]
            .iter()
            .filter(|(v, _)| {
                mem.frame(mem.translate(VPage::new(*v)).unwrap()).tier() == TierId::TOP
            })
            .count();
        assert!(survivors_recent > survivors_old);
    }

    #[test]
    fn labels() {
        assert_eq!(OracleKind::Lru.label(), "oracle-LRU");
        assert_eq!(OracleKind::Lfu.label(), "oracle-LFU");
    }
}
