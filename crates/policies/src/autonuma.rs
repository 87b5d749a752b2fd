//! AutoNUMA-Tiering (Yang's "persistent memory as a NUMA node" design,
//! paper §II-D and §VI).
//!
//! The design MULTI-CLOCK contrasts itself with in related work: NUMA
//! balancing extended to tiers. Its distinguishing limitations, which
//! this implementation reproduces:
//!
//! * **anonymous pages only** ("handles promotion/demotion for anonymous
//!   pages only ... MULTI-CLOCK is capable of managing all types of
//!   pages"). Every page this simulator maps is anonymous (DESIGN.md §2),
//!   so the limitation shows only in the Table I row;
//! * hint-page-fault access tracking (AutoNUMA's sampled PTE poisoning),
//!   paying the software-fault cost on every sampled access;
//! * promotion on fault **only into free space** — room is made solely by
//!   the reclaim path's demotion of cold pages, so promotions stall when
//!   DRAM is full until watermark pressure demotes something.

use crate::ring::{self, Rings};
use mc_mem::{
    AccessKind, FrameId, MemorySystem, Nanos, PolicyTraits, TickOutcome, TierId, TieringPolicy,
    Topology,
};
use mc_obs::EventKind;

/// The AutoNUMA-Tiering baseline.
#[derive(Debug)]
pub struct AutoNuma {
    /// Sampling ring per tier.
    rings: Rings,
    /// Whether the page hint-faulted during the current interval.
    faulted: Vec<bool>,
    scan_interval: Nanos,
    sample_batch: usize,
}

impl AutoNuma {
    /// Creates the policy for a topology.
    pub fn new(topology: &Topology, scan_interval: Nanos, sample_batch: usize) -> Self {
        assert!(sample_batch > 0, "sample batch must be positive");
        AutoNuma {
            rings: Rings::new(topology),
            faulted: vec![false; topology.total_pages()],
            scan_interval,
            sample_batch,
        }
    }

    /// With the usual defaults (1 s, 1024 pages per tick).
    pub fn with_defaults(topology: &Topology) -> Self {
        Self::new(topology, Nanos::from_secs(1), 1024)
    }
}

impl TieringPolicy for AutoNuma {
    fn name(&self) -> &'static str {
        "autonuma-tiering"
    }

    fn traits(&self) -> PolicyTraits {
        PolicyTraits {
            name: "AutoNUMA-Tiering",
            page_access_tracking: "Software Page Fault",
            selection_promotion: "Recency",
            selection_demotion: "Recency",
            numa_aware: true,
            space_overhead: true,
            generality: "Anonymous only",
            key_insight: "NUMA balancing",
        }
    }

    fn on_page_mapped(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        self.rings.track(mem.frame(frame).tier(), frame);
        self.faulted[frame.index()] = false;
    }

    fn on_supervised_access(&mut self, _: &mut MemorySystem, _: FrameId, _: AccessKind) {}

    fn on_hint_fault(&mut self, mem: &mut MemorySystem, frame: FrameId, _kind: AccessKind) {
        self.faulted[frame.index()] = true;
        let tier = mem.frame(frame).tier();
        let Some(upper) = tier.upper() else { return };
        // Promote only into free space; never force room.
        if let Ok(new_frame) = mem.migrate(frame, upper) {
            self.rings.moved(frame, new_frame, tier, upper);
            self.faulted[new_frame.index()] = true;
            self.faulted[frame.index()] = false;
        }
    }

    fn tick(&mut self, mem: &mut MemorySystem, now: Nanos) -> TickOutcome {
        // Clear last interval's fault markers and poison the next sample.
        let faulted = &mut self.faulted;
        let (poisoned, total) = self.rings.poison(mem, self.sample_batch, |frame| {
            faulted[frame.index()] = false;
        });
        mem.instruments.emit(|| EventKind::Custom {
            tag: "autonuma_poison_batch",
            a: poisoned,
            b: total as u64,
        });
        let mut out = TickOutcome {
            pages_scanned: poisoned,
            ..TickOutcome::default()
        };
        out.merge(&ring::relieve_pressure(self, mem, now));
        out
    }

    fn on_pressure(&mut self, mem: &mut MemorySystem, tier: TierId, _now: Nanos) -> TickOutcome {
        // Reclaim-based demotion: unfaulted (not recently accessed)
        // anonymous pages move down; on the lowest tier they are evicted.
        let lower = tier.lower(mem.topology().tier_count());
        let faulted = &self.faulted;
        ring::reclaim(mem, &mut self.rings, tier, lower, |_, frame, _| {
            faulted[frame.index()]
        })
    }

    fn tick_interval(&self) -> Option<Nanos> {
        Some(self.scan_interval)
    }

    fn counters(&self, mem: &MemorySystem) -> Vec<(&'static str, u64)> {
        vec![
            ("autonuma_promotions", mem.stats().promotions),
            ("autonuma_demotions", mem.stats().demotions),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_mem::{MachineDesc, VPage};

    fn setup() -> (MemorySystem, AutoNuma) {
        let mem = MemorySystem::new(MachineDesc::dram_pm(32, 128));
        let an = AutoNuma::with_defaults(mem.topology());
        (mem, an)
    }

    #[test]
    fn anon_page_promotes_on_fault_when_dram_has_room() {
        let (mut mem, mut an) = setup();
        let f = mem.alloc_page_in_tier(TierId::new(1)).unwrap();
        mem.map(VPage::new(1), f).unwrap();
        an.on_page_mapped(&mut mem, f);
        an.tick(&mut mem, Nanos::from_secs(1));
        let out = mem.access(VPage::new(1), AccessKind::Read).unwrap();
        assert!(out.hint_fault);
        an.on_hint_fault(&mut mem, out.frame, AccessKind::Read);
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
        assert_eq!(mem.stats().promotions, 1);
    }

    #[test]
    fn promotion_stalls_when_dram_is_full() {
        let (mut mem, mut an) = setup();
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page_in_tier(TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            an.on_page_mapped(&mut mem, f);
            v += 1;
        }
        let f = mem.alloc_page_in_tier(TierId::new(1)).unwrap();
        mem.map(VPage::new(999), f).unwrap();
        an.on_page_mapped(&mut mem, f);
        an.on_hint_fault(&mut mem, f, AccessKind::Read);
        assert_eq!(
            mem.stats().promotions,
            0,
            "no exchange: promotion waits for reclaim"
        );
        assert_eq!(mem.frame(f).tier(), TierId::new(1));
    }

    #[test]
    fn pressure_demotes_unfaulted_pages_first() {
        let (mut mem, mut an) = setup();
        let mut frames = Vec::new();
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page_in_tier(TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            an.on_page_mapped(&mut mem, f);
            frames.push(f);
            v += 1;
        }
        // The first three pages hint-faulted recently.
        for f in frames.iter().take(3) {
            an.on_hint_fault(&mut mem, *f, AccessKind::Read);
        }
        let out = an.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
        assert!(out.demoted > 0);
        for f in frames.iter().take(3) {
            assert_eq!(mem.frame(*f).tier(), TierId::TOP, "faulted page protected");
        }
    }

    #[test]
    fn traits_match_table_one_row() {
        let (_, an) = setup();
        let t = an.traits();
        assert_eq!(t.generality, "Anonymous only");
        assert_eq!(t.page_access_tracking, "Software Page Fault");
        assert_eq!(t.key_insight, "NUMA balancing");
    }
}
