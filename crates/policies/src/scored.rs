//! Scored selection (Table I rows AMP, Oracle-LRU and Oracle-LFU): rank
//! each tier's pages by a score, promote the best lower-tier pages and
//! demote worse upper-tier ones to make room.
//!
//! The paper rejects both kinds as impractical in a kernel (§II-D): AMP
//! must "scan and profile all the memory pages from both DRAM and PM
//! tier", and strict LRU / LFU must see every access. In simulation both
//! are possible, so they measure selection quality, and AMP's
//! `pages_scanned` shows the full-scan cost that made it undeployable.
//!
//! A [`ScoredKind`] chooses only the score and how its inputs are
//! gathered. AMP harvests every tracked page's reference bit each tick
//! into an 8-bit history and a decayed frequency, and adds a random term
//! drawn once per page in list order. The oracles need the engine's
//! oracle visibility ([`TieringPolicy::on_supervised_access`] on every
//! access): LRU scores by a last-use stamp from one global counter, LFU
//! by an access count halved every tick, and neither counts a page
//! scanned. The rest is shared: a zero score is never a candidate,
//! victims are ranked once per tick and each one popped is compared with
//! the candidate, and reclaim stops at the first demotion the lower tier
//! refuses (only the lowest tier evicts).

use crate::ring::{self, Rings, RECLAIM_BATCH};
use mc_mem::{
    AccessKind, FrameId, MemError, MemorySystem, Nanos, PolicyTraits, TickOutcome, TierId,
    TieringPolicy, Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;

/// Seed of AMP's random score component.
const SEED: u64 = 42;

/// What a [`Scored`] policy ranks pages by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoredKind {
    /// AMP's hybrid of recency, frequency and a random term, gathered by
    /// a full reference-bit scan.
    Amp,
    /// The strict least-recently-used oracle: the last-use stamp.
    Lru,
    /// The least-frequently-used oracle: the access count, halved every
    /// tick.
    Lfu,
}

/// A policy that ranks each tier's pages by a score and exchanges the
/// best lower-tier pages for worse upper-tier ones.
#[derive(Debug)]
pub struct Scored {
    kind: ScoredKind,
    rings: Rings,
    /// Per frame: AMP's 8-bit reference history (bit 0 = last interval),
    /// or an oracle's last-use stamp (higher = more recent).
    recency: Vec<u64>,
    /// Per frame: AMP's decayed reference frequency, or an oracle's
    /// access count.
    freq: Vec<u64>,
    /// The stamp handed out last.
    last_stamp: u64,
    rng: StdRng,
    /// Most pages promoted per tier per tick.
    batch: usize,
    interval: Nanos,
}

impl Scored {
    /// A policy of `kind` that ticks every `interval` and promotes at most
    /// `batch` pages per tier per tick.
    pub fn new(kind: ScoredKind, topology: &Topology, interval: Nanos, batch: usize) -> Self {
        assert!(batch > 0, "batch must be positive");
        Scored {
            kind,
            rings: Rings::new(topology),
            recency: vec![0; topology.total_pages()],
            freq: vec![0; topology.total_pages()],
            last_stamp: 0,
            rng: StdRng::seed_from_u64(SEED),
            batch,
            interval,
        }
    }

    /// The score of a frame (higher = hotter). AMP's draws its random
    /// term, which breaks ties.
    fn score(&mut self, frame: FrameId) -> u64 {
        let (recency, freq) = (self.recency[frame.index()], self.freq[frame.index()]);
        match self.kind {
            ScoredKind::Amp => {
                let jitter: u32 = self.rng.gen_range(0..4);
                u64::from(recency.count_ones() * 8) + freq.min(200) + u64::from(jitter)
            }
            ScoredKind::Lru => recency,
            ScoredKind::Lfu => freq,
        }
    }

    /// Every page of `tier` with its score, hottest first (so `pop()`
    /// yields the coldest). Scores are drawn in list order, once per page.
    fn ranked(&mut self, tier: TierId) -> Vec<(u64, FrameId)> {
        let frames: Vec<FrameId> = self.rings.tier(tier).iter().collect();
        let mut ranked: Vec<(u64, FrameId)> =
            frames.into_iter().map(|f| (self.score(f), f)).collect();
        ranked.sort_by_key(|(s, f)| (Reverse(*s), f.raw()));
        ranked
    }

    /// AMP's full-memory profiling pass: harvests every tracked page's
    /// reference bit (the cost that made AMP undeployable at kernel scale)
    /// and returns the pages scanned. The oracles have nothing to gather.
    fn profile(&mut self, mem: &mut MemorySystem) -> u64 {
        if self.kind != ScoredKind::Amp {
            return 0;
        }
        let mut scanned = 0;
        for frame in self.rings.iter() {
            scanned += 1;
            let referenced = u64::from(mem.harvest_referenced(frame));
            let h = &mut self.recency[frame.index()];
            *h = ((*h << 1) | referenced) & 0xff;
            let f = &mut self.freq[frame.index()];
            *f = *f / 2 + referenced * 8;
        }
        scanned
    }

    /// With `upper` full, demotes the coldest victim into `tier` if it
    /// scores below the candidate's `score`, then retries promoting
    /// `frame`. Returns the candidate's new frame.
    fn exchange(
        &mut self,
        mem: &mut MemorySystem,
        victims: &mut Vec<(u64, FrameId)>,
        (score, frame): (u64, FrameId),
        tier: TierId,
        upper: TierId,
    ) -> Option<FrameId> {
        let (ws, victim) = victims.pop()?;
        if ws >= score {
            return None;
        }
        let nv = mem.migrate(victim, tier).ok()?;
        self.rings.moved(victim, nv, upper, tier);
        self.transfer(victim, nv);
        // A failed retry leaves a one-sided exchange.
        mem.migrate(frame, upper).ok()
    }

    /// Carries a page's score inputs across a migration: a migrated page
    /// is exactly as hot as it was, not freshly used.
    fn transfer(&mut self, old: FrameId, new: FrameId) {
        self.recency[new.index()] = std::mem::take(&mut self.recency[old.index()]);
        self.freq[new.index()] = std::mem::take(&mut self.freq[old.index()]);
    }

    /// Stamps a use of `frame`: the most recent from now on.
    fn touch(&mut self, frame: FrameId) {
        self.last_stamp += 1;
        self.recency[frame.index()] = self.last_stamp;
    }

    /// Zeroes a frame's score inputs.
    fn forget(&mut self, frame: FrameId) {
        self.recency[frame.index()] = 0;
        self.freq[frame.index()] = 0;
    }
}

impl TieringPolicy for Scored {
    fn name(&self) -> &'static str {
        match self.kind {
            ScoredKind::Amp => "amp",
            ScoredKind::Lru => "oracle-lru",
            ScoredKind::Lfu => "oracle-lfu",
        }
    }

    fn traits(&self) -> PolicyTraits {
        let oracle = |name, selection| PolicyTraits {
            name,
            page_access_tracking: "Full visibility (simulation only)",
            selection_promotion: selection,
            selection_demotion: selection,
            numa_aware: true,
            space_overhead: true,
            generality: "All",
            key_insight: "Upper bound on selection quality",
        };
        match self.kind {
            ScoredKind::Amp => PolicyTraits {
                name: "AMP",
                page_access_tracking: "Reference Bit",
                selection_promotion: "Recency+Frequency+Random",
                selection_demotion: "Recency",
                numa_aware: false,
                space_overhead: true,
                generality: "All",
                key_insight: "Hybrid page selection",
            },
            ScoredKind::Lru => oracle("Oracle-LRU", "Recency"),
            ScoredKind::Lfu => oracle("Oracle-LFU", "Frequency"),
        }
    }

    fn on_page_mapped(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        self.rings.track(mem.frame(frame).tier(), frame);
        self.forget(frame);
        if self.kind != ScoredKind::Amp {
            self.touch(frame); // mapping is a use
        }
    }

    fn on_supervised_access(&mut self, _: &mut MemorySystem, frame: FrameId, _: AccessKind) {
        if self.kind != ScoredKind::Amp {
            self.touch(frame);
            self.freq[frame.index()] += 1;
        }
    }

    fn tick(&mut self, mem: &mut MemorySystem, now: Nanos) -> TickOutcome {
        let mut out = TickOutcome {
            pages_scanned: self.profile(mem),
            ..Default::default()
        };
        // Promote the best lower-tier pages, demoting worse upper-tier
        // pages to make room.
        for t in (1..mem.topology().tier_count()).rev() {
            let tier = TierId::new(t as u8);
            let Some(upper) = tier.upper() else {
                continue; // t >= 1: never the top tier
            };
            let candidates = self.ranked(tier);
            let mut victims = self.ranked(upper);
            for (score, frame) in candidates.into_iter().take(self.batch) {
                if score == 0 {
                    continue;
                }
                let moved = match mem.migrate(frame, upper) {
                    Err(MemError::TierFull(_)) => {
                        self.exchange(mem, &mut victims, (score, frame), tier, upper)
                    }
                    moved => moved.ok(),
                };
                let Some(nf) = moved else {
                    break; // ranked: later candidates score no higher
                };
                self.rings.moved(frame, nf, tier, upper);
                self.transfer(frame, nf);
                out.promoted += 1;
            }
        }
        if self.kind == ScoredKind::Lfu {
            for count in &mut self.freq {
                *count /= 2;
            }
        }
        out.merge(&ring::relieve_pressure(self, mem, now));
        out
    }

    fn on_pressure(&mut self, mem: &mut MemorySystem, tier: TierId, _now: Nanos) -> TickOutcome {
        let mut out = TickOutcome::default();
        let lower = tier.lower(mem.topology().tier_count());
        let mut budget = RECLAIM_BATCH;
        let mut victims = self.ranked(tier);
        while !mem.tier_balanced(tier) && budget > 0 {
            budget -= 1;
            if self.kind == ScoredKind::Amp {
                out.pages_scanned += 1;
            }
            let Some((_, victim)) = victims.pop() else {
                break;
            };
            match lower {
                Some(lower) => {
                    let Ok(nv) = mem.migrate(victim, lower) else {
                        break;
                    };
                    self.rings.moved(victim, nv, tier, lower);
                    self.transfer(victim, nv);
                    out.demoted += 1;
                }
                None => {
                    if mem.evict(victim).is_err() {
                        break;
                    }
                    self.rings.untrack(tier, victim);
                    self.forget(victim);
                }
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

    const KINDS: [ScoredKind; 3] = [ScoredKind::Amp, ScoredKind::Lru, ScoredKind::Lfu];

    fn policy(kind: ScoredKind, mem: &MemorySystem) -> Scored {
        Scored::new(kind, mem.topology(), Nanos::from_secs(1), 1024)
    }

    fn map_in_tier(mem: &mut MemorySystem, p: &mut Scored, v: u64, tier: TierId) -> FrameId {
        let f = mem.alloc_page_in_tier(PageKind::Anon, tier).unwrap();
        mem.map(VPage::new(v), f).unwrap();
        p.on_page_mapped(mem, f);
        f
    }

    /// Fills `tier` with fresh pages from `v` on; returns their pages.
    fn fill(mem: &mut MemorySystem, p: &mut Scored, v: &mut u64, tier: TierId) -> Vec<u64> {
        let mut pages = Vec::new();
        while let Ok(f) = mem.alloc_page_in_tier(PageKind::Anon, tier) {
            mem.map(VPage::new(*v), f).unwrap();
            p.on_page_mapped(mem, f);
            pages.push(*v);
            *v += 1;
        }
        pages
    }

    /// One access to page `v`, seen the way every kind sees it: a
    /// reference bit for AMP's scan, a supervised access for the oracles.
    fn use_page(mem: &mut MemorySystem, p: &mut Scored, v: u64) {
        let out = mem.access(VPage::new(v), AccessKind::Read).unwrap();
        p.on_supervised_access(mem, out.frame, AccessKind::Read);
    }

    fn tier_of(mem: &MemorySystem, v: u64) -> TierId {
        mem.frame(mem.translate(VPage::new(v)).unwrap()).tier()
    }

    #[test]
    fn profiles_every_tracked_page_each_tick() {
        for kind in KINDS {
            let mut mem = MemorySystem::new(MachineDesc::dram_pm(32, 128));
            let mut p = policy(kind, &mem);
            for v in 0..40u64 {
                let f = mem.alloc_page(PageKind::Anon).unwrap();
                mem.map(VPage::new(v), f).unwrap();
                p.on_page_mapped(&mut mem, f);
            }
            let out = p.tick(&mut mem, Nanos::from_secs(1));
            if kind == ScoredKind::Amp {
                let why = "full-memory profiling is AMP's defining (and damning) trait";
                assert!(out.pages_scanned >= 40, "{why}");
            } else {
                assert_eq!(out.pages_scanned, 0, "{kind:?}: visibility is free");
            }
        }
    }

    #[test]
    fn hot_pm_page_promotes_within_two_ticks() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(32, 128));
        let mut amp = policy(ScoredKind::Amp, &mem);
        map_in_tier(&mut mem, &mut amp, 1, TierId::new(1));
        use_page(&mut mem, &mut amp, 1);
        let out = amp.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(tier_of(&mem, 1), TierId::TOP);
        assert_eq!(out.promoted, 1);
    }

    /// A PM page mapped before DRAM fills with pages used every tick is
    /// colder than everything upstairs, so it never displaces one.
    fn assert_exchange_requires_beating_the_victim(kind: ScoredKind) {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(32, 128));
        let mut p = policy(kind, &mem);
        map_in_tier(&mut mem, &mut p, 999, TierId::new(1));
        let dram = fill(&mut mem, &mut p, &mut 0, TierId::TOP);
        for s in 1..=3u64 {
            for v in &dram {
                use_page(&mut mem, &mut p, *v);
            }
            let out = p.tick(&mut mem, Nanos::from_secs(s));
            // Later ticks promote DRAM pages that reclaim demoted.
            if s == 1 {
                assert_eq!(out.promoted, 0, "{kind:?}: no exchange");
            }
        }
        assert_eq!(
            tier_of(&mem, 999),
            TierId::new(1),
            "{kind:?}: a cold page cannot displace hot DRAM pages"
        );
    }

    #[test]
    fn exchange_requires_beating_the_victim() {
        assert_exchange_requires_beating_the_victim(ScoredKind::Amp);
    }

    #[test]
    fn exchange_requires_candidate_hotter_than_victim() {
        for kind in [ScoredKind::Lru, ScoredKind::Lfu] {
            assert_exchange_requires_beating_the_victim(kind);
        }
    }

    #[test]
    fn hot_pm_page_displaces_cold_dram_page() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 64));
        let mut p = policy(ScoredKind::Lru, &mem);
        fill(&mut mem, &mut p, &mut 0, TierId::TOP);
        let hot = map_in_tier(&mut mem, &mut p, 999, TierId::new(1));
        p.on_supervised_access(&mut mem, hot, AccessKind::Read);
        let out = p.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.promoted, 1);
        assert_eq!(tier_of(&mem, 999), TierId::TOP);
    }

    #[test]
    fn lru_oracle_promotes_recent_pages() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mut p = policy(ScoredKind::Lru, &mem);
        let f = map_in_tier(&mut mem, &mut p, 1, TierId::new(1));
        p.on_supervised_access(&mut mem, f, AccessKind::Read);
        let out = p.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.promoted, 1);
        assert_eq!(tier_of(&mem, 1), TierId::TOP);
    }

    #[test]
    fn recency_survives_migration() {
        // A page's heat must be comparable before and after it moves.
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mut p = policy(ScoredKind::Lru, &mem);
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
        let mut p = Scored::new(ScoredKind::Lfu, mem.topology(), Nanos::from_secs(1), 1);
        let frequent = map_in_tier(&mut mem, &mut p, 1, TierId::new(1));
        let rare = map_in_tier(&mut mem, &mut p, 2, TierId::new(1));
        for _ in 0..10 {
            p.on_supervised_access(&mut mem, frequent, AccessKind::Read);
        }
        p.on_supervised_access(&mut mem, rare, AccessKind::Read);
        p.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(tier_of(&mem, 1), TierId::TOP, "the frequent page wins");
        assert_eq!(tier_of(&mem, 2), TierId::new(1), "the single slot");
    }

    #[test]
    fn untouched_pages_are_not_promoted_by_lfu() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mut p = policy(ScoredKind::Lfu, &mem);
        let f = map_in_tier(&mut mem, &mut p, 1, TierId::new(1));
        let out = p.tick(&mut mem, Nanos::from_secs(1));
        // A zero count is never a candidate, not even for free DRAM.
        assert_eq!(out.promoted, 0);
        assert_eq!(mem.frame(f).tier(), TierId::new(1));
    }

    /// Under pressure the top tier keeps its recently used half and
    /// demotes the rest first.
    fn assert_pressure_demotes_lowest_scoring_pages(kind: ScoredKind) {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(32, 128));
        let mut p = policy(kind, &mem);
        let dram = fill(&mut mem, &mut p, &mut 0, TierId::TOP);
        let (old, recent) = dram.split_at(dram.len() / 2);
        // Only AMP's scan needs ticks to see the uses.
        for s in 1..=2u64 {
            for v in recent {
                use_page(&mut mem, &mut p, *v);
            }
            if kind == ScoredKind::Amp {
                p.tick(&mut mem, Nanos::from_secs(s));
            }
        }
        p.on_pressure(&mut mem, TierId::TOP, Nanos::from_secs(3));
        let survivors = |pages: &[u64]| {
            let on_top = |v: &&u64| tier_of(&mem, **v) == TierId::TOP;
            pages.iter().filter(on_top).count()
        };
        assert!(survivors(recent) > survivors(old), "{kind:?}");
    }

    #[test]
    fn pressure_demotes_lowest_scoring_pages() {
        assert_pressure_demotes_lowest_scoring_pages(ScoredKind::Amp);
    }

    #[test]
    fn pressure_demotes_coldest_first() {
        for kind in [ScoredKind::Lru, ScoredKind::Lfu] {
            assert_pressure_demotes_lowest_scoring_pages(kind);
        }
    }

    #[test]
    fn pressure_never_evicts_from_a_tier_that_can_demote() {
        for kind in KINDS {
            // PM is full, so no DRAM page can go down: the top tier's
            // reclaim stops there rather than evicting straight to storage.
            let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 64));
            let mut p = policy(kind, &mem);
            let mut v = 0;
            fill(&mut mem, &mut p, &mut v, TierId::new(1));
            fill(&mut mem, &mut p, &mut v, TierId::TOP);
            assert!(!mem.tier_balanced(TierId::TOP));
            let out = p.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
            assert_eq!(out.demoted, 0, "{kind:?}");
            assert_eq!(
                mem.stats().evictions,
                0,
                "{kind:?}: nothing goes to storage"
            );
        }
    }

    #[test]
    fn traits_match_table_one_row() {
        let mem = MemorySystem::new(MachineDesc::dram_pm(32, 128));
        let rows = KINDS.map(|kind| {
            let t = policy(kind, &mem).traits();
            (t.name, t.selection_promotion, t.numa_aware)
        });
        assert_eq!(
            rows,
            [
                ("AMP", "Recency+Frequency+Random", false),
                ("Oracle-LRU", "Recency", true),
                ("Oracle-LFU", "Frequency", true),
            ]
        );
        let amp = policy(ScoredKind::Amp, &mem).traits();
        assert_eq!(amp.key_insight, "Hybrid page selection");
        assert!(amp.space_overhead);
    }

    #[test]
    fn labels() {
        let mem = MemorySystem::new(MachineDesc::dram_pm(32, 128));
        let names = KINDS.map(|kind| policy(kind, &mem).name());
        assert_eq!(names, ["amp", "oracle-lru", "oracle-lfu"]);
    }
}
