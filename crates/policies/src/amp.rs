//! AMP (Table I row): hybrid page selection over full-memory profiling.
//!
//! AMP proposes tiered-memory page selection built from classic cache
//! replacement policies — LRU, LFU and random — combined into a hybrid
//! score. The MULTI-CLOCK paper could not deploy it on real hardware
//! (§II-D): AMP's "core design principle requires it to scan and profile
//! all the memory pages from both DRAM and PM tier, which is impractical
//! in the kernel ... as the number of in-memory pages can grow to
//! hundreds of millions". In simulation the full-memory scan is possible,
//! which makes this implementation useful for exactly one thing the
//! paper argues qualitatively: comparing AMP's *selection quality* while
//! its `pages_scanned` output exposes the full-scan cost that made it
//! undeployable.
//!
//! Per tick AMP scans **every** tracked page (charged to the daemon),
//! harvesting reference bits into an 8-bit recency history and a decayed
//! frequency counter, then promotes the top-scoring lower-tier pages —
//! `score = recency_history + frequency + jitter` — demoting the
//! bottom-scoring upper-tier pages to make room.

use crate::ring::{self, Rings, RECLAIM_BATCH};
use mc_mem::{
    AccessKind, FrameId, MemError, MemorySystem, Nanos, PolicyTraits, TickOutcome, TierId,
    TieringPolicy, Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;

/// Seed of the random score component.
const SEED: u64 = 42;

/// The AMP hybrid-selection baseline.
#[derive(Debug)]
pub struct Amp {
    rings: Rings,
    /// 8-bit reference history per frame (bit 0 = last interval).
    history: Vec<u8>,
    /// Decayed access-frequency estimate per frame.
    freq: Vec<u32>,
    /// Pages promoted per tick.
    batch: usize,
    interval: Nanos,
    rng: StdRng,
    promotions: u64,
}

impl Amp {
    /// Creates an AMP instance.
    pub fn new(topology: &Topology, interval: Nanos, batch: usize) -> Self {
        assert!(batch > 0, "batch must be positive");
        Amp {
            rings: Rings::new(topology),
            history: vec![0; topology.total_pages()],
            freq: vec![0; topology.total_pages()],
            batch,
            interval,
            rng: StdRng::seed_from_u64(SEED),
            promotions: 0,
        }
    }

    /// Defaults mirroring the other baselines.
    pub fn with_defaults(topology: &Topology) -> Self {
        Self::new(topology, Nanos::from_secs(1), 1024)
    }

    /// Pages promoted so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// The hybrid score of a frame (higher = hotter). The random term
    /// breaks ties, mirroring AMP's random component.
    fn score(&mut self, frame: FrameId) -> u32 {
        // Recency component: the history popcount, weighted so that
        // recent-interval bits dominate (bit 0 = last interval).
        let h = self.history[frame.index()];
        let recency = h.count_ones() * 8;
        let jitter: u32 = self.rng.gen_range(0..4);
        recency + self.freq[frame.index()].min(200) + jitter
    }

    /// Every page of `tier` with its score, hottest first (so `pop()`
    /// yields the coldest). Scores are drawn in list order, once per page.
    fn scored(&mut self, tier: TierId) -> Vec<(u32, FrameId)> {
        let frames: Vec<FrameId> = self.rings.tier(tier).iter().collect();
        let mut scored: Vec<(u32, FrameId)> =
            frames.into_iter().map(|f| (self.score(f), f)).collect();
        scored.sort_by_key(|(s, f)| (Reverse(*s), f.raw()));
        scored
    }

    fn transfer(&mut self, old: FrameId, new: FrameId) {
        self.history[new.index()] = std::mem::take(&mut self.history[old.index()]);
        self.freq[new.index()] = std::mem::take(&mut self.freq[old.index()]);
    }

    /// Full-memory profiling pass: harvest every tracked page's reference
    /// bit (this is the cost that made AMP undeployable at kernel scale).
    fn profile(&mut self, mem: &mut MemorySystem) -> u64 {
        let mut scanned = 0;
        for frame in self.rings.iter() {
            scanned += 1;
            let referenced = mem.harvest_referenced(frame);
            let h = &mut self.history[frame.index()];
            *h = (*h << 1) | u8::from(referenced);
            let f = &mut self.freq[frame.index()];
            *f = *f / 2 + u32::from(referenced) * 8;
        }
        scanned
    }
}

impl TieringPolicy for Amp {
    fn name(&self) -> &'static str {
        "amp"
    }

    fn traits(&self) -> PolicyTraits {
        PolicyTraits {
            name: "AMP",
            page_access_tracking: "Reference Bit",
            selection_promotion: "Recency+Frequency+Random",
            selection_demotion: "Recency",
            numa_aware: false,
            space_overhead: true,
            generality: "All",
            key_insight: "Hybrid page selection",
        }
    }

    fn on_page_mapped(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        self.rings.track(mem.frame(frame).tier(), frame);
        self.history[frame.index()] = 0;
        self.freq[frame.index()] = 0;
    }

    fn on_page_unmapped(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        self.rings.untrack(mem.frame(frame).tier(), frame);
        self.history[frame.index()] = 0;
        self.freq[frame.index()] = 0;
    }

    fn on_supervised_access(&mut self, _: &mut MemorySystem, _: FrameId, _: AccessKind) {}

    fn tick(&mut self, mem: &mut MemorySystem, now: Nanos) -> TickOutcome {
        let mut out = TickOutcome {
            pages_scanned: self.profile(mem),
            ..Default::default()
        };

        // Promote the best lower-tier pages, demoting the worst upper-tier
        // pages to make room. Victim candidates are scored *once* per
        // tick so the exchange loop stays O(n log n).
        for t in (1..mem.topology().tier_count()).rev() {
            let tier = TierId::new(t as u8);
            let Some(upper) = tier.upper() else {
                continue; // t >= 1: never the top tier
            };
            let scored = self.scored(tier);
            let mut victims = self.scored(upper);
            for (score, frame) in scored.into_iter().take(self.batch) {
                if score == 0 || !mem.frame(frame).migratable() {
                    continue;
                }
                let moved = match mem.migrate(frame, upper) {
                    Ok(nf) => Some(nf),
                    Err(MemError::TierFull(_)) => {
                        // Demote the coldest upper-tier page if it scores
                        // lower than the candidate.
                        let mut exchanged = None;
                        while let Some((ws, victim)) = victims.pop() {
                            if ws >= score {
                                break;
                            }
                            if !mem.frame(victim).migratable() {
                                continue;
                            }
                            if let Ok(nv) = mem.migrate(victim, tier) {
                                self.rings.moved(victim, nv, upper, tier);
                                self.transfer(victim, nv);
                                // A failed back-promotion leaves a one-sided exchange; the
                                // value is consumed via `exchanged`.
                                exchanged = mem.migrate(frame, upper).ok();
                            }
                            break;
                        }
                        exchanged
                    }
                    Err(_) => None,
                };
                if let Some(nf) = moved {
                    self.rings.moved(frame, nf, tier, upper);
                    self.transfer(frame, nf);
                    self.promotions += 1;
                    out.promoted += 1;
                } else {
                    break; // sorted: later candidates score no higher
                }
            }
        }

        out.merge(&ring::relieve_pressure(self, mem, now));
        out
    }

    fn on_pressure(&mut self, mem: &mut MemorySystem, tier: TierId, _now: Nanos) -> TickOutcome {
        let mut out = TickOutcome::default();
        let lower = tier.lower(mem.topology().tier_count());
        let mut budget = RECLAIM_BATCH;
        // Score the tier once, coldest last (pop order).
        let mut victims = self.scored(tier);
        while !mem.tier_balanced(tier) && budget > 0 {
            budget -= 1;
            out.pages_scanned += 1;
            let victim = loop {
                match victims.pop() {
                    Some((_, v)) if mem.frame(v).migratable() => break Some(v),
                    Some(_) => continue,
                    None => break None,
                }
            };
            let Some(victim) = victim else { break };
            match lower {
                Some(lt) => match mem.migrate(victim, lt) {
                    Ok(nv) => {
                        self.rings.moved(victim, nv, tier, lt);
                        self.transfer(victim, nv);
                        out.demoted += 1;
                    }
                    Err(_) => break,
                },
                None => {
                    if mem.evict(victim).is_ok() {
                        self.rings.untrack(tier, victim);
                        self.history[victim.index()] = 0;
                        self.freq[victim.index()] = 0;
                    } else {
                        break;
                    }
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

    fn setup() -> (MemorySystem, Amp) {
        let mem = MemorySystem::new(MachineDesc::dram_pm(32, 128));
        let amp = Amp::with_defaults(mem.topology());
        (mem, amp)
    }

    #[test]
    fn profiles_every_tracked_page_each_tick() {
        let (mut mem, mut amp) = setup();
        for v in 0..40u64 {
            let f = mem.alloc_page(PageKind::Anon).unwrap();
            mem.map(VPage::new(v), f).unwrap();
            amp.on_page_mapped(&mut mem, f);
        }
        let out = amp.tick(&mut mem, Nanos::from_secs(1));
        assert!(
            out.pages_scanned >= 40,
            "full-memory profiling is AMP's defining (and damning) trait"
        );
    }

    #[test]
    fn hot_pm_page_promotes_within_two_ticks() {
        let (mut mem, mut amp) = setup();
        let f = mem
            .alloc_page_in_tier(PageKind::Anon, TierId::new(1))
            .unwrap();
        mem.map(VPage::new(1), f).unwrap();
        amp.on_page_mapped(&mut mem, f);
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        amp.tick(&mut mem, Nanos::from_secs(1));
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
        assert_eq!(amp.promotions(), 1);
    }

    #[test]
    fn exchange_requires_beating_the_victim() {
        let (mut mem, mut amp) = setup();
        // DRAM full of pages with strong history.
        let mut v = 0u64;
        let mut dram = Vec::new();
        while let Ok(f) = mem.alloc_page_in_tier(PageKind::Anon, TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            amp.on_page_mapped(&mut mem, f);
            dram.push(v);
            v += 1;
        }
        let cold_pm = mem
            .alloc_page_in_tier(PageKind::Anon, TierId::new(1))
            .unwrap();
        mem.map(VPage::new(999), cold_pm).unwrap();
        amp.on_page_mapped(&mut mem, cold_pm);
        for s in 1..=3u64 {
            for pv in &dram {
                mem.access(VPage::new(*pv), AccessKind::Read).unwrap();
            }
            amp.tick(&mut mem, Nanos::from_secs(s));
        }
        assert_eq!(
            mem.frame(mem.translate(VPage::new(999)).unwrap()).tier(),
            TierId::new(1),
            "a never-touched page cannot displace hot DRAM pages"
        );
    }

    #[test]
    fn pressure_demotes_lowest_scoring_pages() {
        let (mut mem, mut amp) = setup();
        let mut frames = Vec::new();
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page_in_tier(PageKind::Anon, TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            amp.on_page_mapped(&mut mem, f);
            frames.push((v, f));
            v += 1;
        }
        // Build history for the second half over two ticks.
        for s in 1..=2u64 {
            for (pv, _) in &frames[frames.len() / 2..] {
                mem.access(VPage::new(*pv), AccessKind::Read).unwrap();
            }
            amp.tick(&mut mem, Nanos::from_secs(s));
        }
        amp.on_pressure(&mut mem, TierId::TOP, Nanos::from_secs(3));
        let survivors = |range: &[(u64, FrameId)]| {
            range
                .iter()
                .filter(|(pv, _)| {
                    mem.frame(mem.translate(VPage::new(*pv)).unwrap()).tier() == TierId::TOP
                })
                .count()
        };
        let half = frames.len() / 2;
        assert!(survivors(&frames[half..]) > survivors(&frames[..half]));
    }

    #[test]
    fn traits_match_table_one_row() {
        let (_, amp) = setup();
        let t = amp.traits();
        assert_eq!(t.selection_promotion, "Recency+Frequency+Random");
        assert_eq!(t.key_insight, "Hybrid page selection");
        assert!(!t.numa_aware);
        assert!(t.space_overhead);
    }
}
