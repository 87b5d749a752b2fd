//! Fault plans: what to inject, where, and when.
//!
//! A [`FaultPlan`] combines *probability-driven* faults (each migration or
//! allocation fails with a configured rate, drawn from the injector's
//! private seeded stream) with *schedule-driven* faults (a tier is offline
//! or stalled during fixed virtual-time windows). [`FaultConfig`] wraps a
//! plan with a seed and an enable flag and is what `SimConfig` carries.

/// A virtual-time window during which one tier rejects all allocations and
/// migration targets — the analogue of a node being hot-removed or its
/// zone sitting below the min watermark for a sustained period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfflineWindow {
    /// Tier index the window applies to.
    pub tier: u8,
    /// Window start, inclusive, in virtual nanoseconds.
    pub from_ns: u64,
    /// Window end, exclusive, in virtual nanoseconds.
    pub until_ns: u64,
}

impl OfflineWindow {
    /// Whether `now` falls inside the window.
    pub(crate) fn contains(&self, now_ns: u64) -> bool {
        (self.from_ns..self.until_ns).contains(&now_ns)
    }
}

/// A virtual-time window during which accesses to one tier are slowed by
/// an integer factor — contention, thermal throttling, or a PM device in a
/// degraded media state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallWindow {
    /// Tier index the window applies to.
    pub tier: u8,
    /// Window start, inclusive, in virtual nanoseconds.
    pub from_ns: u64,
    /// Window end, exclusive, in virtual nanoseconds.
    pub until_ns: u64,
    /// Latency multiplier applied while the window is active (`1` = no
    /// effect; the injector clamps `0` up to `1`).
    pub factor: u32,
}

impl StallWindow {
    /// Whether `now` falls inside the window.
    pub(crate) fn contains(&self, now_ns: u64) -> bool {
        (self.from_ns..self.until_ns).contains(&now_ns)
    }
}

/// What to inject: per-operation failure probabilities plus scheduled
/// offline/stall windows.
///
/// Rates are probabilities in `[0, 1]`; the injector clamps values outside
/// that range. A rate of exactly `0` never fires *and never consumes
/// randomness*, so an all-zero plan is behaviourally inert.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability that a migration attempt fails with a transient
    /// destination-full error (kernel analogue: `migrate_pages` returning
    /// `-ENOMEM` under watermark pressure).
    pub migrate_fail_rate: f64,
    /// Probability that a migration attempt finds the page transiently
    /// locked (kernel analogue: `-EAGAIN` on a page under writeback/IO).
    pub migrate_lock_rate: f64,
    /// Probability that an allocation attempt in a tier fails even though
    /// frames are free (kernel analogue: `alloc_pages` losing the race to
    /// a concurrent allocator).
    pub alloc_fail_rate: f64,
    /// Scheduled windows during which whole tiers reject allocations.
    pub offline: Vec<OfflineWindow>,
    /// Scheduled windows during which tier access latency is multiplied.
    pub stalls: Vec<StallWindow>,
}

/// Fault-injection configuration carried by `SimConfig`.
///
/// The default (and [`FaultConfig::none`]) is disabled: no injector is
/// built and the engine is byte-identical to one without a fault layer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// Master switch; when `false` the plan and seed are ignored.
    pub enabled: bool,
    /// Seed for the injector's private SplitMix64 stream.
    pub seed: u64,
    /// The plan to execute when enabled.
    pub plan: FaultPlan,
}

impl FaultConfig {
    /// No fault injection at all (the default).
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// Uniform chaos: migrations and allocations each fail with
    /// probability `rate`, drawn from a stream seeded with `seed`.
    pub fn rate(seed: u64, rate: f64) -> Self {
        FaultConfig {
            enabled: true,
            seed,
            plan: FaultPlan {
                migrate_fail_rate: rate,
                alloc_fail_rate: rate,
                ..FaultPlan::default()
            },
        }
    }

    /// Whether this configuration actually injects anything (i.e. an
    /// injector should be installed).
    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_default_and_disabled() {
        let c = FaultConfig::none();
        assert_eq!(c, FaultConfig::default());
        assert!(!c.enabled());
    }

    #[test]
    fn rate_builder_sets_both_rates() {
        let c = FaultConfig::rate(42, 0.2);
        assert!(c.enabled());
        assert_eq!(c.seed, 42);
        assert_eq!(c.plan.migrate_fail_rate, 0.2);
        assert_eq!(c.plan.alloc_fail_rate, 0.2);
        assert_eq!(c.plan.migrate_lock_rate, 0.0);
        assert!(c.plan.offline.is_empty());
    }

    #[test]
    fn windows_are_half_open() {
        let w = OfflineWindow {
            tier: 0,
            from_ns: 100,
            until_ns: 200,
        };
        assert!(!w.contains(99));
        assert!(w.contains(100));
        assert!(w.contains(199));
        assert!(!w.contains(200));
        let s = StallWindow {
            tier: 1,
            from_ns: 10,
            until_ns: 20,
            factor: 4,
        };
        assert!(s.contains(10) && !s.contains(20));
    }
}
