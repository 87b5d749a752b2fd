//! Counters and event reporting.

use crate::ids::{TierId, VPage};
use crate::topology::Topology;

/// Monotonic operation counters maintained by the substrate — the analogue
/// of `/proc/vmstat`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MemStats {
    /// Pages allocated.
    pub allocs: u64,
    /// Pages freed.
    pub frees: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Pages migrated to a higher tier.
    pub promotions: u64,
    /// Pages migrated to a lower tier.
    pub demotions: u64,
    /// Pages evicted from the lowest tier to backing storage.
    pub evictions: u64,
    /// Pages faulted back in from backing storage.
    pub swap_ins: u64,
    /// Hint page faults taken (poisoned PTEs).
    pub hint_faults: u64,
    /// Migration attempts that failed (locked page, destination full...).
    pub migration_failures: u64,
    /// Failures caused by the fault-injection layer (a subset of
    /// `migration_failures` plus injected allocation failures); always `0`
    /// when no injector is installed.
    pub injected_faults: u64,
    /// Migration transactions opened (`Transactional` mode only).
    pub txn_begins: u64,
    /// Migration transactions aborted (dirty write during the copy window,
    /// an injected fault at commit, or the source disappearing).
    pub txn_aborts: u64,
    /// Migration transactions committed via atomic remap.
    pub txn_commits: u64,
    /// Demotions satisfied by flipping the mapping to a retained shadow
    /// copy instead of copying the page down.
    pub shadow_hits: u64,
    /// Shadow copies discarded before they could be used (dirty write,
    /// migration/eviction of the live page, or allocation pressure).
    pub shadow_invalidations: u64,
    /// Accesses served per tier (index = tier id).
    pub tier_accesses: Vec<u64>,
}

impl MemStats {
    /// Fraction of accesses served by fast tiers — every tier whose kind
    /// is fast per `TierKind::is_fast` (HBM and DRAM; PM counts as
    /// capacity). `None` before any access.
    pub fn fast_tier_share(&self, topology: &Topology) -> Option<f64> {
        let total: u64 = self.tier_accesses.iter().sum();
        if total == 0 {
            return None;
        }
        let fast: u64 = self
            .tier_accesses
            .iter()
            .enumerate()
            .filter(|(idx, _)| {
                topology
                    .tiers()
                    .get(*idx)
                    .is_some_and(|t| t.kind().is_fast())
            })
            .map(|(_, count)| *count)
            .sum();
        Some(fast as f64 / total as f64)
    }
}

/// Substrate events the simulation engine consumes for windowed metrics
/// (paper Figs. 8 and 9 need per-window promotion counts and the identity
/// of recently promoted pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEvent {
    /// A page moved between tiers.
    Migrated {
        /// The virtual page that moved (if mapped).
        vpage: Option<VPage>,
        /// Source tier.
        src: TierId,
        /// Destination tier.
        dst: TierId,
    },
}

impl MemEvent {
    /// Whether this is an upward migration (promotion); every other
    /// migration is a demotion.
    pub fn is_promotion(&self) -> bool {
        let MemEvent::Migrated { src, dst, .. } = self;
        dst < src
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineDesc;

    #[test]
    fn fast_tier_share_counts_all_fast_tiers() {
        let topo = MachineDesc::three_tier(8, 8, 8).topology();
        let mut s = MemStats::default();
        assert_eq!(s.fast_tier_share(&topo), None);
        s.tier_accesses = vec![10, 30, 60];
        // Not just tier 0 (the HBM slice, 0.10): HBM + DRAM.
        assert!((s.fast_tier_share(&topo).unwrap() - 0.40).abs() < 1e-9);
    }

    #[test]
    fn event_direction_classification() {
        let promo = MemEvent::Migrated {
            vpage: Some(VPage::new(3)),
            src: TierId::new(1),
            dst: TierId::TOP,
        };
        assert!(promo.is_promotion());
        let demo = MemEvent::Migrated {
            vpage: None,
            src: TierId::TOP,
            dst: TierId::new(1),
        };
        assert!(!demo.is_promotion());
    }
}
