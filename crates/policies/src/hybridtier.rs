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
//! Promotion is frequency-gated (sketch estimate >= `PROMOTE_THRESHOLD`),
//! demotion picks low-estimate victims, and halving the sketch every
//! `AGE_TICKS` ticks decays stale history. All randomness is the seeded
//! [`mc_fault::SplitMix64`] hash inside the sketch, so runs are
//! bit-deterministic.

use crate::ring::{self, Rings};
use crate::sketch::CmSketch;
use mc_mem::{
    AccessKind, FrameId, MemorySystem, Nanos, PolicyTraits, TickOutcome, TierId, TieringPolicy,
    Topology, VPage,
};
use mc_obs::EventKind;

/// Sketch estimate at which a page becomes promotion-worthy.
const PROMOTE_THRESHOLD: u32 = 3;
/// log2 of counters per sketch row.
const SKETCH_WIDTH_LOG2: u32 = 12;
/// Sketch rows.
const SKETCH_ROWS: usize = 4;
/// Halve the sketch every this many ticks (frequency decay).
const AGE_TICKS: u64 = 8;
/// Hash seed for the sketch rows.
const SEED: u64 = 42;

/// The HybridTier policy: CM-sketch frequency tracking over sampled
/// reference bits, with direct placement of known-hot pages on mapping.
#[derive(Debug)]
pub struct HybridTier {
    sample_interval: Nanos,
    /// Pages sampled per tier per tick — the tracking budget that replaces
    /// the full scan.
    sample_batch: usize,
    sketch: CmSketch,
    /// One rotation list per tier; sampling pops from the front and pushes
    /// survivors to the back, so every page is visited in bounded time.
    ring: Rings,
    ticks: u64,
    samples: u64,
    direct_placements: u64,
}

/// The sketch key for a frame: its virtual page, so frequency history
/// survives migrations and unmap/remap cycles.
fn key_of(mem: &MemorySystem, frame: FrameId) -> Option<u64> {
    mem.frame(frame).vpage().map(VPage::raw)
}

/// Whether the sketch already rates `frame`'s page promotion-worthy.
fn is_hot(sketch: &CmSketch, mem: &MemorySystem, frame: FrameId) -> bool {
    key_of(mem, frame).is_some_and(|k| sketch.estimate(k) >= PROMOTE_THRESHOLD)
}

impl HybridTier {
    /// Creates a HybridTier instance for a topology: one sampling pass
    /// every `sample_interval`, of up to `sample_batch` pages per tier.
    pub fn new(topology: &Topology, sample_interval: Nanos, sample_batch: usize) -> Self {
        assert!(sample_batch > 0, "sample batch must be positive");
        HybridTier {
            sample_interval,
            sample_batch,
            sketch: CmSketch::new(SKETCH_WIDTH_LOG2, SKETCH_ROWS, SEED),
            ring: Rings::new(topology),
            ticks: 0,
            samples: 0,
            direct_placements: 0,
        }
    }

    /// A 1 s interval and 512-page samples.
    #[cfg(test)]
    pub(crate) fn with_defaults(topology: &Topology) -> Self {
        Self::new(topology, Nanos::from_secs(1), 512)
    }

    /// Pages placed directly in the fast tier because the sketch already
    /// knew them hot at map time.
    #[cfg(test)]
    pub(crate) fn direct_placements(&self) -> u64 {
        self.direct_placements
    }

    /// Read access to the sketch (determinism tests).
    #[cfg(test)]
    pub(crate) fn sketch(&self) -> &CmSketch {
        &self.sketch
    }

    /// Samples one tier: rotates up to `sample_batch` pages, harvests
    /// their reference bits, updates the sketch for referenced ones, and
    /// returns (pages sampled, promotion candidates).
    fn sample_tier(&mut self, mem: &mut MemorySystem, tier: TierId) -> (u64, Vec<FrameId>) {
        let mut hot = Vec::new();
        let mut sampled = 0u64;
        self.ring.rotate_until(tier, self.sample_batch, |frame| {
            sampled += 1;
            if !mem.harvest_referenced(frame) {
                return false;
            }
            let Some(key) = key_of(mem, frame) else {
                return false;
            };
            if self.sketch.update(key) >= PROMOTE_THRESHOLD && !tier.is_top() {
                hot.push(frame);
            }
            false
        });
        (sampled, hot)
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
        self.ring.track(tier, frame);
        // Direct placement: the sketch already knows this virtual page's
        // frequency from before it was evicted. A known-hot page
        // landing in a lower tier moves up immediately instead of waiting
        // out the sampling ladder again.
        let Some(upper) = tier.upper() else { return };
        if !is_hot(&self.sketch, mem, frame) {
            return;
        }
        if let Ok(new_frame) = mem.migrate(frame, upper) {
            self.ring.moved(frame, new_frame, tier, upper);
            self.direct_placements += 1;
        }
    }

    fn on_supervised_access(
        &mut self,
        _mem: &mut MemorySystem,
        _frame: FrameId,
        _kind: AccessKind,
    ) {
        // HybridTier only observes accesses through its sampling.
    }

    fn tick(&mut self, mem: &mut MemorySystem, now: Nanos) -> TickOutcome {
        self.ticks += 1;
        if self.ticks.is_multiple_of(AGE_TICKS) {
            self.sketch.halve();
        }
        let mut out = TickOutcome::default();
        let mut hot_by_tier: Vec<(TierId, Vec<FrameId>)> = Vec::new();
        for t in 0..mem.topology().tier_count() {
            let tier = TierId::new(t as u8);
            let (sampled, hot) = self.sample_tier(mem, tier);
            self.samples += sampled;
            out.pages_scanned += sampled;
            if !hot.is_empty() {
                hot_by_tier.push((tier, hot));
            }
        }
        for (tier, hot) in hot_by_tier {
            let promoted = ring::exchange(
                mem,
                tier,
                hot,
                self.ticks,
                &mut self.ring,
                |mem, victim| is_hot(&self.sketch, mem, victim),
                Rings::moved,
            );
            out.promoted += promoted;
            mem.instruments.emit(|| EventKind::Custom {
                tag: "ht_promote_batch",
                a: promoted,
                b: tier.index() as u64,
            });
        }
        out.merge(&ring::relieve_pressure(self, mem, now));
        out
    }

    fn on_pressure(&mut self, mem: &mut MemorySystem, tier: TierId, _now: Nanos) -> TickOutcome {
        let lower = tier.lower(mem.topology().tier_count());
        // Known-hot pages are spared while budget remains.
        ring::reclaim(mem, &mut self.ring, tier, lower, |mem, frame, left| {
            left > 0 && is_hot(&self.sketch, mem, frame)
        })
    }

    fn tick_interval(&self) -> Option<Nanos> {
        Some(self.sample_interval)
    }

    fn counters(&self, mem: &MemorySystem) -> Vec<(&'static str, u64)> {
        vec![
            ("ht_ticks", self.ticks),
            ("ht_samples", self.samples),
            ("ht_sketch_updates", self.sketch.updates()),
            ("ht_promotions", mem.stats().promotions),
            ("ht_demotions", mem.stats().demotions),
            ("ht_direct_placements", self.direct_placements),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_mem::MachineDesc;

    fn setup() -> (MemorySystem, HybridTier) {
        let mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let h = HybridTier::with_defaults(mem.topology());
        (mem, h)
    }

    fn map_in_tier(mem: &mut MemorySystem, h: &mut HybridTier, v: u64, tier: TierId) -> FrameId {
        let f = mem.alloc_page_in_tier(tier).unwrap();
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
        assert_eq!(mem.stats().promotions, 0);
    }

    #[test]
    fn direct_placement_rescues_known_hot_page() {
        let (mut mem, mut h) = setup();
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut h, 7, pm);
        // Build frequency history, then evict the page as reclaim does:
        // off the ring, out to storage (the sketch keeps the history).
        for s in 1..=3u64 {
            mem.access(VPage::new(7), AccessKind::Read).unwrap();
            h.tick(&mut mem, Nanos::from_secs(s));
        }
        let f = mem.translate(VPage::new(7)).unwrap_or(f);
        assert!(h.ring.untrack(mem.frame(f).tier(), f));
        mem.evict(f).unwrap();
        // Swap it back in to PM: the policy should move it straight up.
        mem.note_swap_in(VPage::new(7));
        map_in_tier(&mut mem, &mut h, 7, pm);
        assert!(h.direct_placements() >= 1, "placement used sketch history");
        let cur = mem.translate(VPage::new(7)).unwrap();
        assert_eq!(mem.frame(cur).tier(), TierId::TOP);
    }

    #[test]
    fn sampling_cost_is_bounded_by_batch() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(512, 4096));
        let mut h = HybridTier::new(mem.topology(), Nanos::from_secs(1), 64);
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
        while let Ok(f) = mem.alloc_page_in_tier(TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            h.on_page_mapped(&mut mem, f);
            v += 1;
        }
        // Make page 0 hot in the sketch.
        let f0 = mem.translate(VPage::new(0)).unwrap();
        let key = key_of(&mem, f0).unwrap();
        for _ in 0..5 {
            h.sketch.update(key);
        }
        let out = h.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
        assert!(out.demoted > 0);
        assert!(mem.tier_balanced(TierId::TOP));
        let cur = mem.translate(VPage::new(0)).unwrap();
        assert_eq!(mem.frame(cur).tier(), TierId::TOP, "hot page was spared");
    }

    #[test]
    fn runs_on_three_tier_machine() {
        let mut mem = MemorySystem::new(MachineDesc::three_tier(32, 64, 256));
        let mut h = HybridTier::with_defaults(mem.topology());
        let bottom = TierId::new(2);
        map_in_tier(&mut mem, &mut h, 1, bottom);
        for s in 1..=3u64 {
            mem.access(VPage::new(1), AccessKind::Read).unwrap();
            h.tick(&mut mem, Nanos::from_secs(s));
        }
        // Promoted one tier per qualifying tick: PM -> DRAM at least.
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
            (h.sketch().checksum(), mem.stats().clone())
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
