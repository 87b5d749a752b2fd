//! Intel Optane Memory-mode: DRAM as a direct-mapped cache in front of PM.
//!
//! "DRAM is directly mapped as the cache for data stored in PM and used as
//! the last level cache ... The system recognizes only the PM as memory"
//! (§II-B). There is no OS tiering at all: every page lives in PM, and the
//! memory controller transparently caches pages in DRAM. The DRAM capacity
//! is invisible to the OS — the paper's chief criticism.
//!
//! This is modelled at page granularity: the cache has one slot per DRAM
//! page, indexed by `vpage % slots` (direct-mapped). A hit costs DRAM
//! latency; a miss costs PM latency plus a background fill (and writeback
//! of a dirty victim).

use mc_mem::{AccessKind, LatencyModel, Nanos, TierId, VPage};

/// Hit/miss counters for the memory-side cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoryModeStats {
    /// Accesses served from the DRAM cache.
    pub hits: u64,
    /// Accesses that missed to PM.
    pub misses: u64,
    /// Dirty victims written back to PM on replacement.
    pub writebacks: u64,
}

impl MemoryModeStats {
    /// The hit ratio in [0, 1]; zero when no access has happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cache slot.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    tag: Option<VPage>,
    dirty: bool,
}

/// A direct-mapped, page-granular memory-side DRAM cache.
#[derive(Debug, Clone)]
pub struct MemoryModeCache {
    slots: Vec<Slot>,
    stats: MemoryModeStats,
}

impl MemoryModeCache {
    /// Creates a cache with one slot per DRAM page.
    ///
    /// # Panics
    ///
    /// Panics if `dram_pages` is zero.
    pub fn new(dram_pages: usize) -> Self {
        assert!(dram_pages > 0, "memory-mode needs a DRAM cache");
        MemoryModeCache {
            slots: vec![Slot::default(); dram_pages],
            stats: MemoryModeStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> MemoryModeStats {
        self.stats
    }

    /// Whether a page is currently cached.
    #[cfg(test)]
    pub(crate) fn contains(&self, vpage: VPage) -> bool {
        let slot = (vpage.raw() as usize) % self.slots.len();
        self.slots[slot].tag == Some(vpage)
    }

    /// Performs one access; returns `(application latency, background
    /// time)` where background time covers fills and writebacks absorbed
    /// by the memory controller.
    ///
    /// The PM tier is assumed to be the last tier of `latency`.
    pub fn access(
        &mut self,
        vpage: VPage,
        kind: AccessKind,
        latency: &LatencyModel,
    ) -> (Nanos, Nanos) {
        let dram = TierId::TOP;
        let pm = TierId::new((latency.tier_count() - 1) as u8);
        let slot_idx = (vpage.raw() as usize) % self.slots.len();
        // Indexing: slot_idx is reduced modulo slots.len().
        let slot = &mut self.slots[slot_idx];
        if slot.tag == Some(vpage) {
            self.stats.hits += 1;
            if kind.is_write() {
                slot.dirty = true;
            }
            (latency.access(dram, kind), Nanos::ZERO)
        } else {
            self.stats.misses += 1;
            let mut background = Nanos::ZERO;
            if slot.tag.is_some() && slot.dirty {
                self.stats.writebacks += 1;
                background += latency.stream(pm, AccessKind::Write, mc_mem::PAGE_SIZE);
            }
            // Fill the line from PM into DRAM.
            background += latency.stream(pm, AccessKind::Read, mc_mem::PAGE_SIZE);
            slot.tag = Some(vpage);
            slot.dirty = kind.is_write();
            // A miss first probes the DRAM cache (tag check), then goes
            // to PM — memory-mode misses cost *more* than raw PM access.
            let probe = latency.access(TierId::TOP, AccessKind::Read);
            (probe + latency.access(pm, kind), background)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LatencyModel {
        mc_mem::MachineDesc::dram_pm(1, 1).latency()
    }

    #[test]
    fn hit_after_fill() {
        let m = model();
        let mut c = MemoryModeCache::new(4);
        let (lat_miss, bg) = c.access(VPage::new(1), AccessKind::Read, &m);
        assert!(bg > Nanos::ZERO, "miss fills from PM");
        let (lat_hit, bg2) = c.access(VPage::new(1), AccessKind::Read, &m);
        assert_eq!(bg2, Nanos::ZERO);
        assert!(lat_hit < lat_miss, "hits are DRAM-fast");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!(c.contains(VPage::new(1)));
    }

    #[test]
    fn direct_mapping_conflicts() {
        let m = model();
        let mut c = MemoryModeCache::new(4);
        // Pages 1 and 5 collide in a 4-slot cache.
        c.access(VPage::new(1), AccessKind::Read, &m);
        c.access(VPage::new(5), AccessKind::Read, &m);
        assert!(!c.contains(VPage::new(1)), "victim evicted");
        assert!(c.contains(VPage::new(5)));
        c.access(VPage::new(1), AccessKind::Read, &m);
        assert_eq!(c.stats().misses, 3, "ping-pong misses");
    }

    #[test]
    fn dirty_victims_write_back() {
        let m = model();
        let mut c = MemoryModeCache::new(4);
        c.access(VPage::new(1), AccessKind::Write, &m);
        let (_, bg) = c.access(VPage::new(5), AccessKind::Read, &m);
        assert_eq!(c.stats().writebacks, 1);
        // Writeback + fill is more background work than fill alone.
        let mut c2 = MemoryModeCache::new(4);
        c2.access(VPage::new(1), AccessKind::Read, &m);
        let (_, bg_clean) = c2.access(VPage::new(5), AccessKind::Read, &m);
        assert!(bg > bg_clean);
    }

    #[test]
    fn hit_ratio_reporting() {
        let m = model();
        let mut c = MemoryModeCache::new(8);
        assert_eq!(c.stats().hit_ratio(), 0.0);
        c.access(VPage::new(1), AccessKind::Read, &m);
        c.access(VPage::new(1), AccessKind::Read, &m);
        c.access(VPage::new(1), AccessKind::Read, &m);
        c.access(VPage::new(1), AccessKind::Read, &m);
        assert_eq!(c.stats().hit_ratio(), 0.75);
    }

    #[test]
    #[should_panic(expected = "DRAM cache")]
    fn zero_slots_rejected() {
        let _ = MemoryModeCache::new(0);
    }
}
