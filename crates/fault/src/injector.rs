//! The runtime fault injector consulted by the memory substrate.
//!
//! `mc_mem::Instruments` holds an `Option<FaultInjector>`, and the memory
//! substrate asks it at each decision point: *would this migration fail?
//! is this tier offline? how slow is this access right now?* Every answer
//! is a pure function of (plan, seed, call sequence, virtual time), so runs
//! replay exactly.

use crate::plan::{FaultConfig, FaultPlan};
use crate::rng::SplitMix64;

/// A fault the injector decided to fire at a decision point. The substrate
/// maps each variant onto the matching `MemError` and tracepoint reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The destination tier transiently has no frame (`-ENOMEM`).
    TierFull,
    /// The page is transiently locked (`-EAGAIN`).
    FrameLocked,
    /// The tier is offline per the plan's schedule or a manual override.
    TierOffline,
}

impl InjectedFault {
    /// Static reason string for `migrate_fail` tracepoints, prefixed with
    /// `injected-` so traces distinguish injected faults from organic ones.
    pub fn reason(&self) -> &'static str {
        match self {
            InjectedFault::TierFull => "injected-tier-full",
            InjectedFault::FrameLocked => "injected-locked",
            InjectedFault::TierOffline => "injected-offline",
        }
    }
}

/// Counters describing what the injector actually did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Migration attempts failed by probability draws.
    pub migrate_faults: u64,
    /// Allocation attempts failed by probability draws.
    pub alloc_faults: u64,
    /// Operations rejected because the target tier was offline.
    pub offline_rejections: u64,
    /// Accesses slowed by an active stall window.
    pub stalled_accesses: u64,
}

/// The runtime handle: a plan, a private seeded stream, the current
/// virtual time, and per-tier manual offline overrides.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    now_ns: u64,
    /// Manual per-tier override: `Some(true)` forces offline, `Some(false)`
    /// forces online (masking scheduled windows), `None` follows the plan.
    overrides: Vec<Option<bool>>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector from a configuration; `None` when disabled.
    pub fn from_config(cfg: &FaultConfig) -> Option<Self> {
        if !cfg.enabled() {
            return None;
        }
        Some(FaultInjector::new(cfg.plan.clone(), cfg.seed))
    }

    /// Builds an injector from a plan and seed, clamping rates to `[0, 1]`.
    pub fn new(mut plan: FaultPlan, seed: u64) -> Self {
        plan.migrate_fail_rate = plan.migrate_fail_rate.clamp(0.0, 1.0);
        plan.migrate_lock_rate = plan.migrate_lock_rate.clamp(0.0, 1.0);
        plan.alloc_fail_rate = plan.alloc_fail_rate.clamp(0.0, 1.0);
        FaultInjector {
            plan,
            rng: SplitMix64::new(seed),
            now_ns: 0,
            overrides: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Advances the injector's view of virtual time (drives the scheduled
    /// offline and stall windows).
    pub fn set_now(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// Injection counters so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Whether `tier` currently rejects allocations and migration targets.
    pub fn tier_offline(&self, tier: u8) -> bool {
        if let Some(forced) = self.overrides.get(usize::from(tier)).copied().flatten() {
            return forced;
        }
        self.plan
            .offline
            .iter()
            .any(|w| w.tier == tier && w.contains(self.now_ns))
    }

    /// Forces a tier offline (`true`) or online (`false`) until set again,
    /// masking any scheduled windows: the chaos harness's
    /// hot-unplug/hot-add lever.
    pub fn set_tier_offline(&mut self, tier: u8, offline: bool) {
        let idx = usize::from(tier);
        if self.overrides.len() <= idx {
            self.overrides.resize(idx + 1, None);
        }
        self.overrides[idx] = Some(offline);
    }

    /// Decision point: a migration is about to target `dst_tier`. Returns
    /// the fault to fire, if any. Offline beats probability draws; the
    /// lock draw precedes the tier-full draw, and zero-rate draws consume
    /// no generator state.
    pub fn on_migrate(&mut self, dst_tier: u8) -> Option<InjectedFault> {
        if self.tier_offline(dst_tier) {
            self.stats.offline_rejections = self.stats.offline_rejections.saturating_add(1);
            return Some(InjectedFault::TierOffline);
        }
        if self.rng.chance(self.plan.migrate_lock_rate) {
            self.stats.migrate_faults = self.stats.migrate_faults.saturating_add(1);
            return Some(InjectedFault::FrameLocked);
        }
        if self.rng.chance(self.plan.migrate_fail_rate) {
            self.stats.migrate_faults = self.stats.migrate_faults.saturating_add(1);
            return Some(InjectedFault::TierFull);
        }
        None
    }

    /// Decision point: an allocation is about to try `tier`.
    pub fn on_alloc(&mut self, tier: u8) -> Option<InjectedFault> {
        if self.tier_offline(tier) {
            self.stats.offline_rejections = self.stats.offline_rejections.saturating_add(1);
            return Some(InjectedFault::TierOffline);
        }
        if self.rng.chance(self.plan.alloc_fail_rate) {
            self.stats.alloc_faults = self.stats.alloc_faults.saturating_add(1);
            return Some(InjectedFault::TierFull);
        }
        None
    }

    /// Decision point: an access is being served by `tier`. Returns the
    /// latency multiplier to apply (`1` = unperturbed) and counts stalled
    /// accesses.
    pub fn on_access(&mut self, tier: u8) -> u32 {
        let factor = self
            .plan
            .stalls
            .iter()
            .filter(|w| w.tier == tier && w.contains(self.now_ns))
            .map(|w| w.factor.max(1))
            .max()
            .unwrap_or(1);
        if factor > 1 {
            self.stats.stalled_accesses = self.stats.stalled_accesses.saturating_add(1);
        }
        factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OfflineWindow, StallWindow};

    fn plan_with_rates(migrate: f64, lock: f64, alloc: f64) -> FaultPlan {
        FaultPlan {
            migrate_fail_rate: migrate,
            migrate_lock_rate: lock,
            alloc_fail_rate: alloc,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn disabled_config_builds_no_injector() {
        assert!(FaultInjector::from_config(&FaultConfig::none()).is_none());
        assert!(FaultInjector::from_config(&FaultConfig::rate(1, 0.5)).is_some());
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = FaultInjector::new(plan_with_rates(0.3, 0.1, 0.2), 42);
        let mut b = FaultInjector::new(plan_with_rates(0.3, 0.1, 0.2), 42);
        for i in 0..2_000u64 {
            let tier = (i % 3) as u8;
            assert_eq!(a.on_migrate(tier), b.on_migrate(tier));
            assert_eq!(a.on_alloc(tier), b.on_alloc(tier));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn zero_rates_never_fire_and_draw_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::default(), 7);
        for _ in 0..1_000 {
            assert_eq!(inj.on_migrate(0), None);
            assert_eq!(inj.on_alloc(1), None);
            assert_eq!(inj.on_access(0), 1);
        }
        assert_eq!(*inj.stats(), FaultStats::default());
    }

    #[test]
    fn full_rate_always_fires() {
        let mut inj = FaultInjector::new(plan_with_rates(1.0, 0.0, 1.0), 3);
        for _ in 0..100 {
            assert_eq!(inj.on_migrate(0), Some(InjectedFault::TierFull));
            assert_eq!(inj.on_alloc(0), Some(InjectedFault::TierFull));
        }
        assert_eq!(inj.stats().migrate_faults, 100);
        assert_eq!(inj.stats().alloc_faults, 100);
    }

    #[test]
    fn lock_rate_yields_locked_faults() {
        let mut inj = FaultInjector::new(plan_with_rates(0.0, 1.0, 0.0), 5);
        assert_eq!(inj.on_migrate(1), Some(InjectedFault::FrameLocked));
    }

    #[test]
    fn rates_are_clamped() {
        // 7.0 and 2.0 act as certainty, -3.0 as never.
        let mut inj = FaultInjector::new(plan_with_rates(7.0, -3.0, 2.0), 1);
        for _ in 0..100 {
            assert_eq!(inj.on_migrate(0), Some(InjectedFault::TierFull));
            assert_eq!(inj.on_alloc(0), Some(InjectedFault::TierFull));
        }
    }

    #[test]
    fn offline_windows_follow_virtual_time() {
        let plan = FaultPlan {
            offline: vec![OfflineWindow {
                tier: 0,
                from_ns: 1_000,
                until_ns: 2_000,
            }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 0);
        assert!(!inj.tier_offline(0));
        inj.set_now(1_500);
        assert!(inj.tier_offline(0));
        assert!(!inj.tier_offline(1), "window is per-tier");
        assert_eq!(inj.on_migrate(0), Some(InjectedFault::TierOffline));
        assert_eq!(inj.on_alloc(0), Some(InjectedFault::TierOffline));
        assert_eq!(inj.stats().offline_rejections, 2);
        inj.set_now(2_000);
        assert!(!inj.tier_offline(0));
    }

    #[test]
    fn manual_override_masks_schedule() {
        let plan = FaultPlan {
            offline: vec![OfflineWindow {
                tier: 1,
                from_ns: 0,
                until_ns: u64::MAX,
            }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 0);
        assert!(inj.tier_offline(1));
        inj.set_tier_offline(1, false);
        assert!(!inj.tier_offline(1), "forced-online masks the window");
        assert!(!inj.tier_offline(0), "tier 0 follows its (empty) schedule");
        inj.set_tier_offline(0, true);
        assert!(inj.tier_offline(0), "forced-offline without any window");
    }

    #[test]
    fn stall_windows_multiply_latency() {
        let plan = FaultPlan {
            stalls: vec![
                StallWindow {
                    tier: 1,
                    from_ns: 0,
                    until_ns: 100,
                    factor: 4,
                },
                StallWindow {
                    tier: 1,
                    from_ns: 0,
                    until_ns: 100,
                    factor: 2,
                },
                StallWindow {
                    tier: 1,
                    from_ns: 0,
                    until_ns: 100,
                    factor: 0,
                },
            ],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 0);
        assert_eq!(inj.on_access(1), 4, "overlapping windows: max factor wins");
        assert_eq!(inj.on_access(0), 1);
        inj.set_now(100);
        assert_eq!(inj.on_access(1), 1);
        assert_eq!(inj.stats().stalled_accesses, 1);
    }
}
