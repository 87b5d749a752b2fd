//! MULTI-CLOCK tunables.

use mc_fault::RetryPolicy;
use mc_mem::{MigrationMode, Nanos};

/// Most pages one pressure (reclaim) invocation examines — MULTI-CLOCK's
/// and every ring-based baseline's.
pub const RECLAIM_BATCH: usize = 4096;

/// MULTI-CLOCK's mechanics knobs: how its daemon moves pages, as opposed
/// to the clock it runs on. Declared once here; `mc-sim` embeds the same
/// type as `SimConfig::engine` (re-exported there as `EngineKnobs`).
///
/// The defaults (no §VII extension, one attempt, one page per call,
/// `Sync`) are bit-identical to the historical engine. Each knob changes
/// simulated results: a sync batch pays one setup and aborts as a whole
/// on an injected fault, and `Transactional` moves the copy off the
/// application's critical path and keeps shadow copies (DESIGN.md §12,
/// §16). Every combination is deterministic and pinned by the
/// differential tests under `crates/sim/tests/`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    /// §VII extension: "include the dirtiness information for memory
    /// pages in a weighted formula to compute the importance of a page",
    /// implemented as a placement priority — when promotion slots are
    /// scarce, *dirty* candidates are promoted first, biasing placement
    /// towards pages that would pay the lower tier's expensive stores.
    /// Off reproduces the paper (reads and writes indistinguishable).
    pub dirty_first: bool,
    /// §VII extension: adapt the scan interval to workload behaviour
    /// (back off while no promotions happen, up to
    /// `MultiClockConfig::max_interval`; snap back when work returns).
    pub adaptive_interval: bool,
    /// How the promote path reacts to transient migration failures
    /// (destination full, page transiently locked). The default,
    /// [`RetryPolicy::Immediate`], allows a single attempt — exactly the
    /// pre-fault-layer behaviour; [`RetryPolicy::Backoff`] retries with
    /// exponential backoff before degrading to the active-list fallback.
    pub retry: RetryPolicy,
    /// Maximum pages handed to one batched migration call when draining a
    /// promote list (Nomad-style `migrate_pages` batching). `1` (the
    /// default) migrates page-at-a-time, bit-identical to the unbatched
    /// path; larger values amortize the per-call setup cost.
    pub migrate_batch_size: usize,
    /// How promotions move pages: [`MigrationMode::Sync`] (the default)
    /// copies and remaps inside the kpromoted run, stalling the
    /// application for the whole unmap/copy/remap sequence —
    /// bit-identical to the engine before transactional migration
    /// existed. [`MigrationMode::Transactional`] opens a Nomad-style
    /// transaction instead: the page stays mapped at its source while
    /// the copy proceeds in the background, a dirty write during the
    /// copy window aborts the transaction into the retry/backoff path,
    /// and a clean copy commits with one cheap atomic remap at the next
    /// tick, leaving its source frame behind as a non-exclusive *shadow
    /// copy*: demoting a page that stayed clean upstairs is then a
    /// zero-copy mapping flip back to it. Shadows are invalidated on the
    /// first dirty write and released under allocation pressure.
    pub migration_mode: MigrationMode,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            dirty_first: false,
            adaptive_interval: false,
            retry: RetryPolicy::Immediate,
            migrate_batch_size: 1,
            migration_mode: MigrationMode::Sync,
        }
    }
}

/// Configuration for [`crate::MultiClock`].
///
/// Defaults follow the paper's prototype: a one-second `kpromoted` period
/// (chosen by the §V-E sensitivity study) and a scan batch of 1024 pages
/// ("we set the number of page scan to 1024").
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClockConfig {
    /// `kpromoted` wake-up period.
    pub scan_interval: Nanos,
    /// Pages examined per list per tick.
    pub scan_batch: usize,
    /// The mechanics knobs.
    pub knobs: Knobs,
}

impl Default for MultiClockConfig {
    fn default() -> Self {
        MultiClockConfig {
            scan_interval: Nanos::from_secs(1),
            scan_batch: 1024,
            knobs: Knobs::default(),
        }
    }
}

impl MultiClockConfig {
    /// Upper bound of the adaptive interval: 60 scan intervals (the
    /// paper-scale 1 s interval backs off to at most a minute).
    pub(crate) fn max_interval(&self) -> Nanos {
        self.scan_interval.saturating_mul(60)
    }

    /// Validates invariants; called by [`crate::MultiClock::new`].
    ///
    /// # Panics
    ///
    /// Panics on a zero scan interval, scan batch or migrate batch size.
    pub(crate) fn validate(&self) {
        assert!(
            self.scan_interval > Nanos::ZERO,
            "scan interval must be positive"
        );
        assert!(self.scan_batch > 0, "scan batch must be positive");
        assert!(
            self.knobs.migrate_batch_size > 0,
            "migrate batch size must be positive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MultiClockConfig::default();
        assert_eq!(c.scan_interval, Nanos::from_secs(1));
        assert_eq!(c.scan_batch, 1024);
        assert!(!c.knobs.adaptive_interval);
        assert!(!c.knobs.dirty_first);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "scan batch")]
    fn zero_batch_rejected() {
        let c = MultiClockConfig {
            scan_batch: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn defaults_are_unsharded_and_unbatched() {
        let c = MultiClockConfig::default();
        assert_eq!(c.knobs.migrate_batch_size, 1);
        assert_eq!(
            c.knobs.migration_mode,
            MigrationMode::Sync,
            "synchronous migration is the baseline"
        );
    }

    #[test]
    #[should_panic(expected = "migrate batch")]
    fn zero_migrate_batch_rejected() {
        let c = MultiClockConfig {
            knobs: Knobs {
                migrate_batch_size: 0,
                ..Knobs::default()
            },
            ..Default::default()
        };
        c.validate();
    }
}
