//! Static tiering: the normalisation baseline.
//!
//! "A memory page, once mapped to a tier, may not get reassigned to a
//! different tier during its lifetime" (§II-D). Allocation is DRAM-first
//! (the substrate already does that); there is no promotion and no
//! demotion. Under memory pressure a tier reclaims with plain CLOCK
//! second-chance *eviction* — pages leave to backing storage, never to
//! another tier, like a stock non-tiering kernel.

use crate::ring::{self, Rings};
use mc_mem::{
    AccessKind, FrameId, MemorySystem, Nanos, PolicyTraits, TickOutcome, TierId, TieringPolicy,
    Topology,
};

/// The static tiering baseline policy.
#[derive(Debug)]
pub struct StaticTiering {
    /// One reclaim list per tier (CLOCK order, front = next candidate).
    lists: Rings,
}

impl StaticTiering {
    /// Creates the policy for a topology.
    pub fn new(topology: &Topology) -> Self {
        StaticTiering {
            lists: Rings::new(topology),
        }
    }
}

impl TieringPolicy for StaticTiering {
    fn name(&self) -> &'static str {
        "static"
    }

    fn traits(&self) -> PolicyTraits {
        PolicyTraits {
            name: "Static-Tiering",
            page_access_tracking: "N/A",
            selection_promotion: "N/A",
            selection_demotion: "N/A",
            numa_aware: true,
            space_overhead: false,
            generality: "All",
            key_insight: "Straight forward",
        }
    }

    fn on_page_mapped(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        self.lists.track(mem.frame(frame).tier(), frame);
    }

    fn on_supervised_access(
        &mut self,
        _mem: &mut MemorySystem,
        _frame: FrameId,
        _kind: AccessKind,
    ) {
        // Reference bits in the PTE are enough; nothing to do eagerly.
    }

    fn tick(&mut self, _mem: &mut MemorySystem, _now: Nanos) -> TickOutcome {
        TickOutcome::default()
    }

    fn on_pressure(&mut self, mem: &mut MemorySystem, tier: TierId, _now: Nanos) -> TickOutcome {
        // CLOCK second chance, and no lower tier: victims are evicted.
        ring::reclaim(mem, &mut self.lists, tier, None, |mem, frame, _| {
            mem.harvest_referenced(frame)
        })
    }

    fn tick_interval(&self) -> Option<Nanos> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_mem::{MachineDesc, PageKind, VPage};

    #[test]
    fn never_migrates() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 64));
        let mut p = StaticTiering::new(mem.topology());
        let mut v = 0u64;
        let mut frames = Vec::new();
        while let Ok(f) = mem.alloc_page(PageKind::Anon) {
            mem.map(VPage::new(v), f).unwrap();
            p.on_page_mapped(&mut mem, f);
            frames.push((v, f, mem.frame(f).tier()));
            v += 1;
        }
        // Touch everything, run many ticks: nothing moves.
        for (v, _, _) in &frames {
            mem.access(VPage::new(*v), AccessKind::Read).unwrap();
        }
        for s in 1..=5 {
            p.tick(&mut mem, Nanos::from_secs(s));
        }
        assert_eq!(mem.stats().promotions, 0);
        assert_eq!(mem.stats().demotions, 0);
        for (v, _, tier) in &frames {
            let nf = mem.translate(VPage::new(*v)).unwrap();
            assert_eq!(mem.frame(nf).tier(), *tier, "page {v} must not move");
        }
    }

    #[test]
    fn pressure_evicts_within_tier() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 64));
        let mut p = StaticTiering::new(mem.topology());
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page_in_tier(PageKind::Anon, TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            p.on_page_mapped(&mut mem, f);
            v += 1;
        }
        assert!(mem.tier_under_pressure(TierId::TOP));
        p.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
        assert!(mem.stats().evictions > 0, "static reclaim evicts");
        assert_eq!(mem.stats().demotions, 0, "never demotes");
        assert!(mem.tier_balanced(TierId::TOP));
    }

    #[test]
    fn second_chance_prefers_unreferenced_victims() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 64));
        let mut p = StaticTiering::new(mem.topology());
        let mut pages = Vec::new();
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page_in_tier(PageKind::Anon, TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            p.on_page_mapped(&mut mem, f);
            pages.push(v);
            v += 1;
        }
        // Reference the first half.
        let half = pages.len() / 2;
        for pv in &pages[..half] {
            mem.access(VPage::new(*pv), AccessKind::Read).unwrap();
        }
        p.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
        let referenced_evicted = pages[..half]
            .iter()
            .filter(|pv| mem.is_swapped(VPage::new(**pv)))
            .count();
        let cold_evicted = pages[half..]
            .iter()
            .filter(|pv| mem.is_swapped(VPage::new(**pv)))
            .count();
        assert!(cold_evicted > referenced_evicted);
    }

    #[test]
    fn traits_match_table_one() {
        let mem = MemorySystem::new(MachineDesc::dram_pm(16, 64));
        let p = StaticTiering::new(mem.topology());
        let t = p.traits();
        assert_eq!(t.name, "Static-Tiering");
        assert_eq!(t.selection_promotion, "N/A");
        assert_eq!(p.tick_interval(), None);
    }
}
