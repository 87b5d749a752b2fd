//! MULTI-CLOCK internal counters, the analogue of the paper's
//! `/proc/vmstat` extensions (mm/vmstat.c rows in Table II). Page
//! movements (promotions, demotions, evictions) are the substrate's to
//! count: [`mc_mem::MemStats`] keeps them once.

use serde::{Deserialize, Serialize};

/// Counters maintained by [`crate::MultiClock`].
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiClockStats {
    /// `kpromoted` wake-ups.
    pub ticks: u64,
    /// Pages examined by scans (all lists).
    pub pages_scanned: u64,
    /// Inactive pages moved to an active list (transition 6).
    pub activations: u64,
    /// Active pages moved back to an inactive list (transition 9).
    pub deactivations: u64,
    /// Pages that entered a promote list (transition 10).
    pub promote_enqueues: u64,
    /// Promote-list pages aged back to active (transition 11).
    pub promote_ages: u64,
    /// Referenced states decayed by an unreferenced scan (the downward
    /// direction of transitions 1 and 7/8).
    pub ladder_decays: u64,
    /// Promotions that could not proceed (locked page or no room even
    /// after reclaim) — the page went to the active list instead.
    pub promote_fallbacks: u64,
    /// Transient promotion failures requeued at the promote-list tail for
    /// a later, backed-off attempt.
    pub promote_retries: u64,
    /// Promotion episodes whose retry budget ran out; the page degraded
    /// gracefully to the active list (counted in `promote_fallbacks` too).
    pub promote_gave_ups: u64,
    /// Pressure invocations.
    pub pressure_runs: u64,
    /// Migration transactions opened (mirrors the substrate counter;
    /// non-zero only in [`mc_mem::MigrationMode::Transactional`]).
    pub txn_begins: u64,
    /// Migration transactions aborted (dirty write in the copy window,
    /// injected commit fault, or the source page disappearing).
    pub txn_aborts: u64,
    /// Migration transactions committed via atomic remap.
    pub txn_commits: u64,
    /// Demotions satisfied by flipping the mapping back to a retained
    /// shadow copy (zero-copy fast path).
    pub shadow_hits: u64,
    /// Shadow copies discarded before use (dirty write, page movement,
    /// or allocation pressure reclaiming the retained frame).
    pub shadow_invalidations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let s = MultiClockStats::default();
        assert_eq!(
            s.ticks + s.pages_scanned + s.activations + s.pressure_runs,
            0
        );
    }
}
