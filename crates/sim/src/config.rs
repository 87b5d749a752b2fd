//! Simulation configuration and the system-under-test selector.

use mc_fault::{FaultConfig, RetryPolicy};
use mc_mem::{MachineDesc, MigrationMode, Nanos};
use mc_obs::{ObsConfig, PerfHooks};

/// Which memory system to simulate — the paper's comparison set plus the
/// ablation oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Static tiering (the normalisation baseline of every figure).
    Static,
    /// MULTI-CLOCK.
    MultiClock,
    /// MULTI-CLOCK selection over Nomad-style transactional migration
    /// (shadow copies on): the async-migration baseline. Forces
    /// [`MigrationMode::Transactional`] regardless of
    /// [`EngineKnobs::migration_mode`].
    Nomad,
    /// Nimble's page selection (recency only).
    Nimble,
    /// HybridTier: CM-sketch frequency tracking over sampled reference
    /// bits with direct data placement (arXiv 2312.04789) — the CXL-era
    /// comparison point.
    HybridTier,
    /// AutoTiering conservative promotion.
    AtCpm,
    /// AutoTiering opportunistic promotion.
    AtOpm,
    /// AutoNUMA-Tiering (anonymous pages only, no fault-path exchange).
    AutoNuma,
    /// AMP's hybrid selection over full-memory profiling (simulation
    /// only, like the oracles — undeployable at kernel scale).
    Amp,
    /// Intel Memory-mode (DRAM as direct-mapped cache).
    MemoryMode,
    /// Strict-LRU oracle (simulation-only ablation).
    OracleLru,
    /// LFU oracle (simulation-only ablation).
    OracleLfu,
}

impl SystemKind {
    /// The systems of Figs. 5 and 6: the paper's five plus the Nomad
    /// transactional-migration baseline and the HybridTier sketch policy.
    pub const TIERED_COMPARISON: [SystemKind; 7] = [
        SystemKind::Static,
        SystemKind::MultiClock,
        SystemKind::Nomad,
        SystemKind::Nimble,
        SystemKind::HybridTier,
        SystemKind::AtCpm,
        SystemKind::AtOpm,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Static => "Static",
            SystemKind::MultiClock => "MULTI-CLOCK",
            SystemKind::Nomad => "Nomad",
            SystemKind::Nimble => "Nimble",
            SystemKind::HybridTier => "HybridTier",
            SystemKind::AtCpm => "AT-CPM",
            SystemKind::AtOpm => "AT-OPM",
            SystemKind::AutoNuma => "AutoNUMA-Tiering",
            SystemKind::Amp => "AMP",
            SystemKind::MemoryMode => "Memory-mode",
            SystemKind::OracleLru => "Oracle-LRU",
            SystemKind::OracleLfu => "Oracle-LFU",
        }
    }

    /// Whether this system needs every access delivered to the policy
    /// (the oracles' full-visibility cheat).
    pub fn needs_oracle_visibility(self) -> bool {
        matches!(self, SystemKind::OracleLru | SystemKind::OracleLfu)
    }
}

/// Engine-mechanics knobs: how MULTI-CLOCK's daemon moves pages. The
/// defaults (one page per call, `Sync`) are bit-identical to the
/// historical engine. Each knob changes simulated results: a sync batch
/// pays one setup and aborts as a whole on an injected fault, and
/// `Transactional` moves the copy off the application's critical path
/// and keeps shadow copies (DESIGN.md §12, §16). Every combination is
/// deterministic and pinned by the differential tests under
/// `crates/sim/tests/`. The scan layout is not a knob: one list shard per
/// NUMA node, derived from [`SimConfig::mem`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineKnobs {
    /// Pages per batched promotion migration call handed to MULTI-CLOCK
    /// (`1` = historical page-at-a-time migration, bit-identical).
    pub migrate_batch_size: usize,
    /// How MULTI-CLOCK executes promotions: [`MigrationMode::Sync`]
    /// (default, bit-identical to the historical engine) or
    /// [`MigrationMode::Transactional`] (Nomad-style copy windows with
    /// shadow-page retention). [`SystemKind::Nomad`] forces
    /// `Transactional`; other systems ignore the knob.
    pub migration_mode: MigrationMode,
}

impl Default for EngineKnobs {
    fn default() -> Self {
        EngineKnobs {
            migrate_batch_size: 1,
            migration_mode: MigrationMode::Sync,
        }
    }
}

/// Instrumentation knobs: observability, fault injection and host-time
/// profiling, from which [`crate::Simulation::new`] builds the
/// substrate's one [`mc_mem::Instruments`]. All purely observational or
/// test-harness concerns — the default (everything off) is byte-identical
/// to an engine without the instrumentation layers, and enabling obs or
/// perf never changes virtual-time results.
#[derive(Debug, Clone)]
pub struct InstrumentKnobs {
    /// Observability: tracepoints, per-tick time series and run reports.
    /// Off by default; enabling never changes virtual-time results.
    pub obs: ObsConfig,
    /// Deterministic fault injection (chaos testing). The default,
    /// [`FaultConfig::none`], installs no injector.
    pub fault: FaultConfig,
    /// Optional host-time profiling hooks, in which MULTI-CLOCK's phase
    /// boundaries and the simulation tick loop open their spans. `None`
    /// (the default) makes every boundary a no-op; hooks only observe the
    /// host's monotonic clock, so enabling them never changes results.
    pub perf: Option<PerfHooks>,
}

impl Default for InstrumentKnobs {
    fn default() -> Self {
        InstrumentKnobs {
            obs: ObsConfig::off(),
            fault: FaultConfig::none(),
            perf: None,
        }
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The machine: layout and cost model are both derived from it.
    pub mem: MachineDesc,
    /// System under test.
    pub system: SystemKind,
    /// Scan/daemon interval for the policy (the Fig. 10 knob).
    pub scan_interval: Nanos,
    /// Pages scanned per list per tick ("number of page scan"). The paper
    /// uses 1024 on a terabyte-class machine; scaled-down machines keep
    /// the same absolute batch, which covers proportionally more.
    pub scan_batch: usize,
    /// Metrics window length (the paper's Figs. 8-9 use 20 s).
    pub window: Nanos,
    /// MULTI-CLOCK §VII extensions (ignored by other systems).
    pub write_weight: f64,
    /// Adaptive scan interval extension flag.
    pub adaptive_interval: bool,
    /// Promotion retry/backoff policy handed to MULTI-CLOCK (other
    /// systems keep their original single-attempt behaviour).
    pub retry: RetryPolicy,
    /// Engine-mechanics knobs (batching, migration mode).
    pub engine: EngineKnobs,
    /// Instrumentation knobs (observability, fault injection, host-time
    /// profiling).
    pub instrument: InstrumentKnobs,
}

impl SimConfig {
    /// A two-tier configuration with default knobs.
    pub fn new(system: SystemKind, dram_pages: usize, pm_pages: usize) -> Self {
        SimConfig {
            mem: MachineDesc::dram_pm(dram_pages, pm_pages),
            system,
            scan_interval: Nanos::from_secs(1),
            scan_batch: 1024,
            window: Nanos::from_secs(20),
            write_weight: 1.0,
            adaptive_interval: false,
            retry: RetryPolicy::immediate(),
            engine: EngineKnobs::default(),
            instrument: InstrumentKnobs::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_tier_config_builds() {
        let mut c = SimConfig::new(SystemKind::MultiClock, 1, 1);
        c.mem = MachineDesc::three_tier(16, 64, 256);
        assert_eq!(c.mem.topology().tier_count(), 3);
        assert_eq!(c.system, SystemKind::MultiClock);
    }

    #[test]
    fn comparison_set_matches_figures() {
        assert_eq!(SystemKind::TIERED_COMPARISON.len(), 7);
        assert_eq!(SystemKind::TIERED_COMPARISON[0], SystemKind::Static);
        assert!(SystemKind::TIERED_COMPARISON.contains(&SystemKind::MultiClock));
        assert!(SystemKind::TIERED_COMPARISON.contains(&SystemKind::Nomad));
        assert!(SystemKind::TIERED_COMPARISON.contains(&SystemKind::HybridTier));
    }

    #[test]
    fn labels_are_unique() {
        let all = [
            SystemKind::Static,
            SystemKind::MultiClock,
            SystemKind::Nomad,
            SystemKind::Nimble,
            SystemKind::HybridTier,
            SystemKind::AtCpm,
            SystemKind::AtOpm,
            SystemKind::AutoNuma,
            SystemKind::Amp,
            SystemKind::MemoryMode,
            SystemKind::OracleLru,
            SystemKind::OracleLfu,
        ];
        let mut labels: Vec<&str> = all.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn oracle_visibility_flag() {
        assert!(SystemKind::OracleLru.needs_oracle_visibility());
        assert!(!SystemKind::MultiClock.needs_oracle_visibility());
    }
}
