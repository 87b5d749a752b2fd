//! The substrate-facing interface every tiering policy implements.
//!
//! MULTI-CLOCK and all baselines (static tiering, Nimble, AutoTiering) are
//! [`TieringPolicy`] implementations. The simulation engine routes page
//! lifecycle events and periodic daemon ticks into the policy; the policy
//! drives scanning and migration through the [`MemorySystem`] it receives.
//!
//! Memory-mode is deliberately *not* a `TieringPolicy`: it is a hardware
//! cache in front of PM with no OS-visible tiering, and the simulation
//! engine models it as an alternative memory frontend.

use crate::ids::{FrameId, TierId};
use crate::latency::AccessKind;
use crate::system::MemorySystem;
use crate::time::Nanos;

/// Qualitative properties of a tiering technique — the rows of the paper's
/// Table I. Each policy self-reports these; `repro --only table1`
/// regenerates the table from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyTraits {
    /// Technique name.
    pub name: &'static str,
    /// How page accesses are observed ("Reference Bit", "Software Page
    /// Fault", "N/A").
    pub page_access_tracking: &'static str,
    /// Promotion page-selection signal ("Recency", "Recency+Frequency"...).
    pub selection_promotion: &'static str,
    /// Demotion page-selection signal.
    pub selection_demotion: &'static str,
    /// Whether the technique understands NUMA topology.
    pub numa_aware: bool,
    /// Whether per-page metadata beyond `struct page` is required.
    pub space_overhead: bool,
    /// Page generality ("All", "Huge Page").
    pub generality: &'static str,
    /// The one-line key insight from Table I.
    pub key_insight: &'static str,
}

/// What a daemon tick or pressure handler did, for engine-side accounting.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TickOutcome {
    /// Pages examined by the scan (engine charges scan CPU per page).
    pub pages_scanned: u64,
    /// Pages promoted this tick.
    pub promoted: u64,
    /// Pages demoted this tick.
    pub demoted: u64,
}

impl TickOutcome {
    /// Merges another outcome into this one.
    pub fn merge(&mut self, other: &TickOutcome) {
        self.pages_scanned += other.pages_scanned;
        self.promoted += other.promoted;
        self.demoted += other.demoted;
    }
}

/// A dynamic tiering policy.
///
/// Implementations keep their own per-frame side state (lists, history
/// bits) indexed by [`FrameId`]; migration through
/// [`MemorySystem::migrate`] hands back the new frame id so the policy can
/// carry that state across moves.
pub trait TieringPolicy {
    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Table-I style self-description.
    fn traits(&self) -> PolicyTraits;

    /// A page was allocated and mapped; the policy should start tracking it.
    fn on_page_mapped(&mut self, mem: &mut MemorySystem, frame: FrameId);

    /// A *supervised* access (syscall-mediated, e.g. page-cache read/write):
    /// the kernel sees it synchronously, as in `mark_page_accessed()`.
    /// Unsupervised (mmap) accesses are *not* reported here — policies only
    /// observe them via PTE reference bits at scan time, or via hint faults.
    fn on_supervised_access(&mut self, mem: &mut MemorySystem, frame: FrameId, kind: AccessKind);

    /// A poisoned PTE faulted: hint-fault trackers learn of an access.
    /// The engine has already charged the fault latency. Default: ignore.
    fn on_hint_fault(&mut self, mem: &mut MemorySystem, frame: FrameId, kind: AccessKind) {
        let _ = (mem, frame, kind);
    }

    /// Periodic daemon work (kpromoted / kscand). Called when virtual time
    /// crosses [`Self::tick_interval`] boundaries.
    fn tick(&mut self, mem: &mut MemorySystem, now: Nanos) -> TickOutcome;

    /// A tier fell below its low watermark; reclaim/demote until balanced
    /// or out of candidates. Called by the engine after allocations fail or
    /// pressure is detected.
    fn on_pressure(&mut self, mem: &mut MemorySystem, tier: TierId, now: Nanos) -> TickOutcome;

    /// The daemon period. `None` disables ticks (static tiering).
    fn tick_interval(&self) -> Option<Nanos>;

    /// The policy's internal counters as `(name, value)` pairs — its slice
    /// of the `/proc/vmstat` analogue. The observability layer snapshots
    /// these per tick into the run's time series; names must be stable and
    /// the set identical on every call. A counter the substrate already
    /// keeps (promotions, demotions, evictions) is read from
    /// `mem.stats()`, not counted twice. Default: no counters.
    fn counters(&self, mem: &MemorySystem) -> Vec<(&'static str, u64)> {
        let _ = mem;
        Vec::new()
    }

    /// Every structural invariant of the policy's own bookkeeping that
    /// does not hold against `mem` right now, as messages; empty means
    /// consistent. A test and debugging aid the engine never calls.
    /// Default: nothing to check.
    fn invariant_violations(&self, mem: &MemorySystem) -> Vec<String> {
        let _ = mem;
        Vec::new()
    }
}

/// A policy that does nothing — static tiering in its purest form, and a
/// useful test double.
#[derive(Debug, Default, Clone)]
pub struct NullPolicy;

impl TieringPolicy for NullPolicy {
    fn name(&self) -> &'static str {
        "null"
    }

    fn traits(&self) -> PolicyTraits {
        PolicyTraits {
            name: "Null",
            page_access_tracking: "N/A",
            selection_promotion: "N/A",
            selection_demotion: "N/A",
            numa_aware: true,
            space_overhead: false,
            generality: "All",
            key_insight: "does nothing",
        }
    }

    fn on_page_mapped(&mut self, _mem: &mut MemorySystem, _frame: FrameId) {}
    fn on_supervised_access(
        &mut self,
        _mem: &mut MemorySystem,
        _frame: FrameId,
        _kind: AccessKind,
    ) {
    }

    fn tick(&mut self, _mem: &mut MemorySystem, _now: Nanos) -> TickOutcome {
        TickOutcome::default()
    }

    fn on_pressure(&mut self, _mem: &mut MemorySystem, _tier: TierId, _now: Nanos) -> TickOutcome {
        TickOutcome::default()
    }

    fn tick_interval(&self) -> Option<Nanos> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineDesc;

    #[test]
    fn null_policy_is_inert() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 64));
        let mut p = NullPolicy;
        assert_eq!(p.name(), "null");
        assert_eq!(p.tick_interval(), None);
        let out = p.tick(&mut mem, Nanos::ZERO);
        assert_eq!(out, TickOutcome::default());
        let out = p.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
        assert_eq!(out.promoted + out.demoted, 0);
    }

    #[test]
    fn tick_outcome_merge() {
        let mut a = TickOutcome {
            pages_scanned: 10,
            promoted: 1,
            demoted: 2,
        };
        let b = TickOutcome {
            pages_scanned: 5,
            promoted: 3,
            demoted: 4,
        };
        a.merge(&b);
        assert_eq!(a.pages_scanned, 15);
        assert_eq!(a.promoted, 4);
        assert_eq!(a.demoted, 6);
    }

    #[test]
    fn policy_trait_is_object_safe() {
        let p: Box<dyn TieringPolicy> = Box::new(NullPolicy);
        assert_eq!(p.name(), "null");
    }
}
