//! The HybridTier sketch-based frequency policy.
//!
//! HybridTier (arXiv 2312.04789) targets the same problem as MULTI-CLOCK —
//! keep hot pages in fast memory — but replaces the full CLOCK scan with
//! two cheaper mechanisms:
//!
//! 1. **Sampled frequency tracking.** Instead of walking every PTE each
//!    interval, the daemon samples a fixed budget of lower-tier pages per
//!    tick (deterministic rotation through per-tier lists), harvests their
//!    reference bits, and feeds the referenced ones into a count-min
//!    sketch keyed by virtual page. Tracking cost per tick is bounded by
//!    the sample budget, not the machine size.
//! 2. **Direct data placement.** The sketch outlives page mappings (it is
//!    keyed by virtual page, not frame), so when a page faults back in or
//!    is remapped, its historical frequency is consulted *at allocation
//!    time*: pages already known hot are placed in (or immediately moved
//!    to) the fast tier instead of waiting to be rediscovered by scanning.
//!
//! Promotion is frequency-gated (sketch estimate >= threshold), demotion
//! picks low-estimate victims, and periodic halving of the sketch decays
//! stale history. All randomness is the seeded [`mc_fault::SplitMix64`]
//! hash inside the sketch, so runs are bit-deterministic per seed.

use crate::sketch::CmSketch;
use mc_clock::IndexedList;
use mc_mem::{
    AccessKind, FrameId, MemError, MemorySystem, Nanos, PolicyTraits, TickOutcome, TierId,
    TieringPolicy, Topology, VPage,
};
use mc_obs::EventKind;

/// Tunables for [`HybridTier`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridTierConfig {
    /// Daemon period.
    pub sample_interval: Nanos,
    /// Pages sampled per lower tier per tick — the tracking budget that
    /// replaces the full scan.
    pub sample_batch: usize,
    /// Sketch estimate at which a page becomes promotion-worthy.
    pub promote_threshold: u32,
    /// log2 of counters per sketch row.
    pub sketch_width_log2: u32,
    /// Sketch rows.
    pub sketch_rows: usize,
    /// Halve the sketch every this many ticks (frequency decay).
    pub age_ticks: u64,
    /// Hash seed for the sketch rows.
    pub seed: u64,
    /// Maximum pages examined per pressure invocation.
    pub reclaim_batch: usize,
}

impl Default for HybridTierConfig {
    fn default() -> Self {
        HybridTierConfig {
            sample_interval: Nanos::from_secs(1),
            sample_batch: 512,
            promote_threshold: 3,
            sketch_width_log2: 12,
            sketch_rows: 4,
            age_ticks: 8,
            seed: 42,
            reclaim_batch: 4096,
        }
    }
}

/// The HybridTier policy: CM-sketch frequency tracking over sampled
/// reference bits, with direct placement of known-hot pages on mapping.
#[derive(Debug)]
pub struct HybridTier {
    cfg: HybridTierConfig,
    sketch: CmSketch,
    /// One rotation list per tier; sampling pops from the front and pushes
    /// survivors to the back, so every page is visited in bounded time.
    tiers: Vec<IndexedList>,
    ticks: u64,
    samples: u64,
    promotions: u64,
    demotions: u64,
    direct_placements: u64,
}

impl HybridTier {
    /// Creates a HybridTier instance for a topology.
    pub fn new(cfg: HybridTierConfig, topology: &Topology) -> Self {
        assert!(cfg.sample_batch > 0, "sample batch must be positive");
        assert!(cfg.promote_threshold > 0, "threshold must be positive");
        let sketch = CmSketch::new(cfg.sketch_width_log2, cfg.sketch_rows, cfg.seed);
        HybridTier {
            cfg,
            sketch,
            tiers: (0..topology.tier_count())
                .map(|_| IndexedList::default())
                .collect(),
            ticks: 0,
            samples: 0,
            promotions: 0,
            demotions: 0,
            direct_placements: 0,
        }
    }

    /// With default tunables.
    pub fn with_defaults(topology: &Topology) -> Self {
        Self::new(HybridTierConfig::default(), topology)
    }

    /// Total pages promoted.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Pages placed directly in the fast tier because the sketch already
    /// knew them hot at map time.
    pub fn direct_placements(&self) -> u64 {
        self.direct_placements
    }

    /// Read access to the sketch (determinism tests).
    pub fn sketch(&self) -> &CmSketch {
        &self.sketch
    }

    fn ring_mut(&mut self, tier: TierId) -> Option<&mut IndexedList> {
        self.tiers.get_mut(tier.index())
    }

    /// The sketch key for a frame: its virtual page, so frequency history
    /// survives migrations and unmap/remap cycles.
    fn key_of(mem: &MemorySystem, frame: FrameId) -> Option<u64> {
        mem.frame(frame).vpage().map(VPage::raw)
    }

    /// Samples one lower tier: pops up to `sample_batch` pages, harvests
    /// their reference bits, updates the sketch for referenced ones, and
    /// returns (pages sampled, promotion candidates).
    fn sample_tier(&mut self, mem: &mut MemorySystem, tier: TierId) -> (u64, Vec<FrameId>) {
        let mut hot = Vec::new();
        let mut sampled = 0u64;
        let budget = self
            .tiers
            .get(tier.index())
            .map(|l| l.len().min(self.cfg.sample_batch))
            .unwrap_or(0);
        for _ in 0..budget {
            let Some(frame) = self.ring_mut(tier).and_then(IndexedList::pop_front) else {
                break;
            };
            sampled += 1;
            let referenced = mem.harvest_referenced(frame);
            if let Some(list) = self.ring_mut(tier) {
                list.push_back(frame);
            }
            if !referenced {
                continue;
            }
            let Some(key) = Self::key_of(mem, frame) else {
                continue;
            };
            let est = self.sketch.update(key);
            if !tier.is_top() && est >= self.cfg.promote_threshold {
                hot.push(frame);
            }
        }
        (sampled, hot)
    }

    /// Promotes frequency-qualified pages, exchanging with a cold upper
    /// page when the destination is full.
    fn promote_hot(&mut self, mem: &mut MemorySystem, tier: TierId, mut hot: Vec<FrameId>) -> u64 {
        let Some(upper) = tier.upper() else { return 0 };
        let mut promoted = 0;
        // Deterministic fairness when room is scarcer than candidates.
        if !hot.is_empty() {
            let shift = self.ticks as usize % hot.len();
            hot.rotate_left(shift);
        }
        for frame in hot {
            if mem.frame(frame).tier() != tier {
                continue;
            }
            match mem.migrate(frame, upper) {
                Ok(new_frame) => {
                    self.finish_move(frame, new_frame, tier, upper);
                    promoted += 1;
                }
                Err(MemError::TierFull(_)) => {
                    if self.demote_one_cold(mem, upper).is_some() {
                        if let Ok(new_frame) = mem.migrate(frame, upper) {
                            self.finish_move(frame, new_frame, tier, upper);
                            promoted += 1;
                        }
                    }
                }
                Err(_) => {}
            }
        }
        self.promotions += promoted;
        promoted
    }

    fn finish_move(&mut self, old: FrameId, new: FrameId, src: TierId, dst: TierId) {
        if let Some(list) = self.ring_mut(src) {
            list.remove(old);
        }
        if let Some(list) = self.ring_mut(dst) {
            list.push_back(new);
        }
    }

    /// Demotes one low-frequency page of `tier` one tier down.
    fn demote_one_cold(&mut self, mem: &mut MemorySystem, tier: TierId) -> Option<FrameId> {
        let lower = tier.lower(self.tiers.len())?;
        for _ in 0..64 {
            let victim = self.ring_mut(tier).and_then(IndexedList::pop_front)?;
            let hot = Self::key_of(mem, victim)
                .is_some_and(|k| self.sketch.estimate(k) >= self.cfg.promote_threshold);
            if hot || !mem.frame(victim).migratable() {
                if let Some(list) = self.ring_mut(tier) {
                    list.push_back(victim);
                }
                continue;
            }
            match mem.migrate(victim, lower) {
                Ok(new_frame) => {
                    if let Some(list) = self.ring_mut(lower) {
                        list.push_back(new_frame);
                    }
                    self.demotions += 1;
                    return Some(new_frame);
                }
                Err(_) => {
                    if let Some(list) = self.ring_mut(tier) {
                        list.push_back(victim);
                    }
                }
            }
        }
        None
    }
}

impl TieringPolicy for HybridTier {
    fn name(&self) -> &'static str {
        "hybridtier"
    }

    fn traits(&self) -> PolicyTraits {
        PolicyTraits {
            name: "HybridTier",
            page_access_tracking: "Sampled Reference Bit",
            selection_promotion: "Frequency (CM-sketch)",
            selection_demotion: "Frequency (CM-sketch)",
            numa_aware: true,
            space_overhead: false,
            generality: "All",
            key_insight: "Sketch-tracked frequency + direct placement",
        }
    }

    fn on_page_mapped(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        let tier = mem.frame(frame).tier();
        if let Some(list) = self.ring_mut(tier) {
            list.push_back(frame);
        }
        // Direct placement: the sketch already knows this virtual page's
        // frequency from before it was unmapped/evicted. A known-hot page
        // landing in a lower tier moves up immediately instead of waiting
        // out the sampling ladder again.
        if tier.is_top() {
            return;
        }
        let Some(key) = Self::key_of(mem, frame) else {
            return;
        };
        if self.sketch.estimate(key) < self.cfg.promote_threshold {
            return;
        }
        let Some(upper) = tier.upper() else { return };
        if let Ok(new_frame) = mem.migrate(frame, upper) {
            self.finish_move(frame, new_frame, tier, upper);
            self.direct_placements += 1;
            self.promotions += 1;
        }
    }

    fn on_page_unmapped(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        let tier = mem.frame(frame).tier();
        if let Some(list) = self.ring_mut(tier) {
            list.remove(frame);
        }
    }

    fn on_supervised_access(&mut self, mem: &mut MemorySystem, frame: FrameId, _kind: AccessKind) {
        // Supervised accesses are kernel-visible for free: feed them to
        // the sketch directly, no sampling needed.
        if let Some(key) = Self::key_of(mem, frame) {
            self.sketch.update(key);
        }
    }

    fn tick(&mut self, mem: &mut MemorySystem, now: Nanos) -> TickOutcome {
        self.ticks += 1;
        if self.cfg.age_ticks > 0 && self.ticks.is_multiple_of(self.cfg.age_ticks) {
            self.sketch.halve();
        }
        let mut out = TickOutcome::default();
        let tier_count = self.tiers.len();
        let mut hot_by_tier: Vec<(TierId, Vec<FrameId>)> = Vec::new();
        for t in 0..tier_count {
            let tier = TierId::new(t as u8);
            let (sampled, hot) = self.sample_tier(mem, tier);
            self.samples += sampled;
            out.pages_scanned += sampled;
            if !hot.is_empty() {
                hot_by_tier.push((tier, hot));
            }
        }
        for (tier, hot) in hot_by_tier {
            let promoted = self.promote_hot(mem, tier, hot);
            out.promoted += promoted;
            mem.recorder_mut().emit(|| EventKind::Custom {
                tag: "ht_promote_batch",
                a: promoted,
                b: tier.index() as u64,
            });
        }
        for t in 0..tier_count {
            let tier = TierId::new(t as u8);
            if mem.tier_under_pressure(tier) {
                let p = self.on_pressure(mem, tier, now);
                out.pages_scanned += p.pages_scanned;
                out.demoted += p.demoted;
            }
        }
        out
    }

    fn on_pressure(&mut self, mem: &mut MemorySystem, tier: TierId, _now: Nanos) -> TickOutcome {
        let mut out = TickOutcome::default();
        let mut budget = self.cfg.reclaim_batch;
        let lower = tier.lower(self.tiers.len());
        while !mem.tier_balanced(tier) && budget > 0 {
            let Some(frame) = self.ring_mut(tier).and_then(IndexedList::pop_front) else {
                break;
            };
            budget -= 1;
            out.pages_scanned += 1;
            // Known-hot pages are spared while colder candidates remain.
            let hot = Self::key_of(mem, frame)
                .is_some_and(|k| self.sketch.estimate(k) >= self.cfg.promote_threshold);
            if (hot && budget > 0) || !mem.frame(frame).migratable() {
                if let Some(list) = self.ring_mut(tier) {
                    list.push_back(frame);
                }
                continue;
            }
            match lower {
                Some(lower_tier) => match mem.migrate(frame, lower_tier) {
                    Ok(new_frame) => {
                        if let Some(list) = self.ring_mut(lower_tier) {
                            list.push_back(new_frame);
                        }
                        self.demotions += 1;
                        out.demoted += 1;
                    }
                    Err(_) => {
                        if mem.evict(frame).is_err() {
                            if let Some(list) = self.ring_mut(tier) {
                                list.push_back(frame);
                            }
                        }
                    }
                },
                None => {
                    if mem.evict(frame).is_err() {
                        if let Some(list) = self.ring_mut(tier) {
                            list.push_back(frame);
                        }
                    }
                }
            }
        }
        out
    }

    fn tick_interval(&self) -> Option<Nanos> {
        Some(self.cfg.sample_interval)
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("ht_ticks", self.ticks),
            ("ht_samples", self.samples),
            ("ht_sketch_updates", self.sketch.updates()),
            ("ht_promotions", self.promotions),
            ("ht_demotions", self.demotions),
            ("ht_direct_placements", self.direct_placements),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_mem::{MachineDesc, PageKind};

    fn setup() -> (MemorySystem, HybridTier) {
        let mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let h = HybridTier::with_defaults(mem.topology());
        (mem, h)
    }

    fn map_in_tier(mem: &mut MemorySystem, h: &mut HybridTier, v: u64, tier: TierId) -> FrameId {
        let f = mem.alloc_page_in_tier(PageKind::Anon, tier).unwrap();
        mem.map(VPage::new(v), f).unwrap();
        h.on_page_mapped(mem, f);
        f
    }

    #[test]
    fn promotes_once_frequency_threshold_is_reached() {
        let (mut mem, mut h) = setup();
        let pm = TierId::new(1);
        map_in_tier(&mut mem, &mut h, 1, pm);
        // Each interval: touch, then sample. Threshold 3 => third
        // referenced observation promotes.
        for s in 1..=2u64 {
            mem.access(VPage::new(1), AccessKind::Read).unwrap();
            let out = h.tick(&mut mem, Nanos::from_secs(s));
            assert_eq!(out.promoted, 0, "below threshold at tick {s}");
        }
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        let out = h.tick(&mut mem, Nanos::from_secs(3));
        assert_eq!(out.promoted, 1);
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
    }

    #[test]
    fn cold_pages_stay_put() {
        let (mut mem, mut h) = setup();
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut h, 1, pm);
        for s in 1..=5u64 {
            h.tick(&mut mem, Nanos::from_secs(s));
        }
        assert_eq!(mem.frame(f).tier(), pm);
        assert_eq!(h.promotions(), 0);
    }

    #[test]
    fn direct_placement_rescues_known_hot_page() {
        let (mut mem, mut h) = setup();
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut h, 7, pm);
        // Build frequency history, then unmap (sketch keeps the history).
        for s in 1..=3u64 {
            mem.access(VPage::new(7), AccessKind::Read).unwrap();
            h.tick(&mut mem, Nanos::from_secs(s));
        }
        let f = mem.translate(VPage::new(7)).unwrap_or(f);
        h.on_page_unmapped(&mut mem, f);
        mem.unmap(VPage::new(7)).unwrap();
        mem.free_page(f).unwrap();
        // Remap in PM: the policy should move it straight up.
        let nf = map_in_tier(&mut mem, &mut h, 7, pm);
        let _ = nf;
        assert!(h.direct_placements() >= 1, "placement used sketch history");
        let cur = mem.translate(VPage::new(7)).unwrap();
        assert_eq!(mem.frame(cur).tier(), TierId::TOP);
    }

    #[test]
    fn sampling_cost_is_bounded_by_batch() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(512, 4096));
        let mut h = HybridTier::new(
            HybridTierConfig {
                sample_batch: 64,
                ..Default::default()
            },
            mem.topology(),
        );
        for v in 0..2000u64 {
            map_in_tier(&mut mem, &mut h, v, TierId::new(1));
        }
        let out = h.tick(&mut mem, Nanos::from_secs(1));
        assert!(
            out.pages_scanned <= 128,
            "sampled {} pages, budget is 64 per tier",
            out.pages_scanned
        );
    }

    #[test]
    fn pressure_demotes_cold_before_hot() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 64));
        let mut h = HybridTier::with_defaults(mem.topology());
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page_in_tier(PageKind::Anon, TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            h.on_page_mapped(&mut mem, f);
            v += 1;
        }
        // Make page 0 hot in the sketch.
        let f0 = mem.translate(VPage::new(0)).unwrap();
        for _ in 0..5 {
            h.on_supervised_access(&mut mem, f0, AccessKind::Read);
        }
        let out = h.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
        assert!(out.demoted > 0);
        assert!(mem.tier_balanced(TierId::TOP));
        let cur = mem.translate(VPage::new(0)).unwrap();
        assert_eq!(mem.frame(cur).tier(), TierId::TOP, "hot page was spared");
    }

    #[test]
    fn runs_on_three_tier_cxl_machine() {
        let mut mem = MemorySystem::new(MachineDesc::dram_cxl_pm(32, 64, 256));
        let mut h = HybridTier::with_defaults(mem.topology());
        let bottom = TierId::new(2);
        map_in_tier(&mut mem, &mut h, 1, bottom);
        for s in 1..=3u64 {
            mem.access(VPage::new(1), AccessKind::Read).unwrap();
            h.tick(&mut mem, Nanos::from_secs(s));
        }
        // Promoted one tier per qualifying tick: PM -> CXL at least.
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert!(mem.frame(nf).tier() < bottom, "page moved up");
    }

    #[test]
    fn same_seed_same_behaviour() {
        let run = || {
            let mut mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
            let mut h = HybridTier::with_defaults(mem.topology());
            for v in 0..100u64 {
                map_in_tier(&mut mem, &mut h, v, TierId::new(1));
            }
            for s in 1..=10u64 {
                for v in 0..100u64 {
                    if v % 3 == 0 {
                        mem.access(VPage::new(v), AccessKind::Read).unwrap();
                    }
                }
                h.tick(&mut mem, Nanos::from_secs(s));
            }
            (h.sketch().checksum(), h.promotions(), mem.stats().clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traits_report_sketch_tracking() {
        let (_, h) = setup();
        let t = h.traits();
        assert_eq!(t.page_access_tracking, "Sampled Reference Bit");
        assert!(!t.space_overhead, "sketch is O(1), not per-page");
    }
}
