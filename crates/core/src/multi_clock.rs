//! The [`MultiClock`] policy: tracking structure, the Fig. 4 transition
//! engine, and the [`TieringPolicy`] wiring. The periodic scan lives in
//! [`crate::scan`]; the pressure/demotion path lives in
//! [`crate::reclaim`].

use crate::config::MultiClockConfig;
use crate::lists::ListSet;
use crate::state::PageState;
use crate::stats::MultiClockStats;
use mc_mem::{
    AccessKind, FrameId, MemorySystem, Nanos, NodeId, PolicyTraits, TickOutcome, TierId,
    TieringPolicy, Topology,
};
use mc_obs::{saturating_bump, EventKind};

/// The MULTI-CLOCK dynamic tiering policy.
///
/// Keeps one [`ListSet`] per NUMA node, a per-frame [`PageState`]
/// table, and implements the paper's page state machine: supervised
/// accesses step the ladder immediately (`mark_page_accessed()`),
/// unsupervised accesses are observed via harvested PTE reference bits
/// during `kpromoted` scans, and the promote lists of lower tiers are
/// drained upwards — in batches — every tick. A page sits on the lists of
/// the node its frame reports ([`mc_mem::Frame::node`]), mirroring the
/// paper's one-`kpromoted`-per-node design.
#[derive(Debug, Clone)]
pub struct MultiClock {
    pub(crate) cfg: MultiClockConfig,
    /// One list structure per node, indexed by [`NodeId`].
    pub(crate) nodes: Vec<ListSet>,
    pub(crate) states: Vec<Option<PageState>>,
    pub(crate) stats: MultiClockStats,
    /// Current scan interval (equals `cfg.scan_interval` unless the
    /// adaptive-interval extension is enabled).
    pub(crate) current_interval: Nanos,
    /// Consecutive ticks without any promotion (adaptive back-off input).
    pub(crate) idle_ticks: u32,
    /// Re-entrancy guard for the pressure path, one slot per tier.
    pub(crate) pressure_guard: Vec<bool>,
    /// Pages detached from their list mid-step (drained promote
    /// candidates awaiting migration). Invariant validation is suspended
    /// while this is non-zero: tracked-but-listless is legal in flight.
    /// The source of an open migration transaction is detached for longer
    /// — tracked in `Promote` state but on **no** list across the tick
    /// boundary, until the next run settles it — and is not counted here:
    /// the substrate knows which frames those are
    /// ([`MemorySystem::txn_open`]) and the invariant checker exempts them.
    pub(crate) in_flight: usize,
    /// Per-frame retry bookkeeping for the promote path: `Some` only
    /// while a Promote-state page has failed at least one migration
    /// attempt and is waiting (requeued at the promote-list tail) for its
    /// backoff to elapse.
    pub(crate) retry_state: Vec<Option<RetryState>>,
    /// The pages one list scan examines, in walk order; kept so a scan
    /// does not allocate.
    pub(crate) scan_scratch: Vec<FrameId>,
}

/// Retry bookkeeping for one page's current promotion episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RetryState {
    /// Failed attempts so far (1-based after the first failure).
    pub(crate) attempts: u32,
    /// Tick ordinal at which the next attempt may run.
    pub(crate) eligible_tick: u64,
}

impl MultiClock {
    /// Creates a MULTI-CLOCK instance for the given machine topology.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// `MultiClockConfig::validate`).
    pub fn new(cfg: MultiClockConfig, topology: &Topology) -> Self {
        cfg.validate();
        let current_interval = cfg.scan_interval;
        MultiClock {
            cfg,
            nodes: vec![ListSet::default(); topology.nodes().len()],
            states: vec![None; topology.total_pages()],
            stats: MultiClockStats::default(),
            current_interval,
            idle_ticks: 0,
            pressure_guard: vec![false; topology.tier_count()],
            in_flight: 0,
            retry_state: vec![None; topology.total_pages()],
            scan_scratch: Vec::new(),
        }
    }

    /// The configuration in use.
    #[cfg(test)]
    pub(crate) fn config(&self) -> &MultiClockConfig {
        &self.cfg
    }

    /// Internal counters.
    pub fn stats(&self) -> &MultiClockStats {
        &self.stats
    }

    /// The tracked state of a frame, if it is tracked.
    pub fn state_of(&self, frame: FrameId) -> Option<PageState> {
        self.states[frame.index()]
    }

    /// Pages detached mid-migration right now. Zero at every quiescent
    /// point — a non-zero value between ticks means a migration path
    /// leaked a page (the chaos tests assert this never happens).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The lists of one node (read-only; used by tests and the invariant
    /// checker).
    pub fn node_lists(&self, node: NodeId) -> &ListSet {
        &self.nodes[node.index()]
    }

    /// The mutable lists of the node `frame` is on.
    pub(crate) fn frame_lists_mut(&mut self, mem: &MemorySystem, frame: FrameId) -> &mut ListSet {
        &mut self.nodes[mem.frame(frame).node().index()]
    }

    /// Starts tracking a freshly mapped page: Fig. 4 transition (5), the
    /// page enters `inactive-unreferenced`.
    pub(crate) fn track(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        debug_assert!(
            self.states[frame.index()].is_none(),
            "{frame} is already tracked"
        );
        let tier = mem.frame(frame).tier();
        // fig4: 5 — a new mapping enters at the bottom of the ladder.
        self.frame_lists_mut(mem, frame).inactive.push_back(frame);
        self.states[frame.index()] = Some(PageState::InactiveUnref);
        mem.instruments.emit(|| EventKind::Fig4 {
            edge: 5,
            frame: frame.index() as u64,
            tier: tier.index() as u8,
        });
    }

    /// Applies one observed access to a page: the ladder of Fig. 4
    /// transitions (2), (6), (7), (10), (12), moving the page between
    /// lists as its state changes.
    ///
    /// A page that is not on any list (mid-scan, already popped) is simply
    /// pushed into the list its new state demands; callers that pop must
    /// re-insert the page first if they want rotation semantics.
    pub(crate) fn apply_access(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        let Some(st) = self.states[frame.index()] else {
            return;
        };
        let tier = mem.frame(frame).tier();
        // fig4: 2, 6, 7, 10, 12 — an observed access climbs one edge.
        let new = st.on_access();
        if new.list() != st.list() {
            let set = self.frame_lists_mut(mem, frame);
            set.list_mut(st.list()).remove(frame);
            set.list_mut(new.list()).push_back(frame);
            match new {
                PageState::ActiveUnref => saturating_bump(&mut self.stats.activations), // fig4: 6
                PageState::Promote => saturating_bump(&mut self.stats.promote_enqueues), // fig4: 10
                // Accesses never move a page into the remaining
                // states across a list boundary: (2) and (12) stay
                // inside their list and ActiveRef is reached only by
                // the list-internal edge (7).
                PageState::InactiveUnref | PageState::InactiveRef | PageState::ActiveRef => {}
            }
        }
        // The only self-edge of the ladder is (12), an observation absorbed
        // by the promote list; it is recorded like any other — it is the
        // signal that a candidate stayed hot while queued.
        mem.instruments.emit(|| EventKind::Fig4 {
            edge: Self::access_edge(st),
            frame: frame.index() as u64,
            tier: tier.index() as u8,
        });
        self.states[frame.index()] = Some(new);
    }

    /// The Fig. 4 edge an observed access fires from each ladder state.
    pub(crate) fn access_edge(st: PageState) -> u8 {
        match st {
            PageState::InactiveUnref => 2,
            PageState::InactiveRef => 6,
            PageState::ActiveUnref => 7,
            PageState::ActiveRef => 10,
            PageState::Promote => 12,
        }
    }

    /// Moves a tracked page out of its current list and into the list a
    /// new state demands, updating the state table. Used by the
    /// scan and reclaim paths for downward transitions.
    pub(crate) fn transition(
        &mut self,
        mem: &mut MemorySystem,
        frame: FrameId,
        new_state: PageState,
    ) {
        let Some(st) = self.states[frame.index()] else {
            return;
        };
        let set = self.frame_lists_mut(mem, frame);
        set.list_mut(st.list()).remove(frame);
        set.list_mut(new_state.list()).push_back(frame);
        self.states[frame.index()] = Some(new_state);
        if new_state != PageState::Promote {
            // Leaving the promote list ends the promotion episode.
            self.retry_state[frame.index()] = None;
        }
    }

    /// Carries tracking across a migration: the old frame is forgotten and
    /// the new frame enters `landing_state` on its tier's matching list.
    pub(crate) fn retrack_after_migration(
        &mut self,
        mem: &mut MemorySystem,
        old_frame: FrameId,
        new_frame: FrameId,
        landing_state: PageState,
    ) {
        // A sync batch vacates all its frames before the first is booked
        // here, and room-making nested in between may already have landed
        // a demoted page on `old_frame`: that page's tracking must survive.
        if mem.frame(old_frame).vpage().is_none() {
            debug_assert!(
                !self.nodes.iter().any(|l| l.contains(old_frame)),
                "{old_frame} migrated while still on a list"
            );
            self.states[old_frame.index()] = None;
            self.retry_state[old_frame.index()] = None;
        }
        self.retry_state[new_frame.index()] = None;
        self.frame_lists_mut(mem, new_frame)
            .list_mut(landing_state.list())
            .push_back(new_frame);
        self.states[new_frame.index()] = Some(landing_state);
    }
}

impl TieringPolicy for MultiClock {
    fn name(&self) -> &'static str {
        "multi-clock"
    }

    fn traits(&self) -> PolicyTraits {
        PolicyTraits {
            name: "MULTI-CLOCK",
            page_access_tracking: "Reference Bit",
            selection_promotion: "Recency+Frequency",
            selection_demotion: "Recency",
            numa_aware: true,
            space_overhead: false,
            generality: "All",
            key_insight: "Low overhead Recency/Frequency",
        }
    }

    fn on_page_mapped(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        self.track(mem, frame);
    }

    fn on_supervised_access(&mut self, mem: &mut MemorySystem, frame: FrameId, _kind: AccessKind) {
        // mark_page_accessed(): supervised accesses step the ladder
        // immediately, before the data access is even served (§III-A.1).
        self.apply_access(mem, frame);
    }

    fn tick(&mut self, mem: &mut MemorySystem, now: Nanos) -> TickOutcome {
        self.kpromoted_run(mem, now)
    }

    fn on_pressure(&mut self, mem: &mut MemorySystem, tier: TierId, _now: Nanos) -> TickOutcome {
        self.run_pressure(mem, tier, true)
    }

    fn tick_interval(&self) -> Option<Nanos> {
        Some(self.current_interval)
    }

    fn counters(&self, mem: &MemorySystem) -> Vec<(&'static str, u64)> {
        let ms = mem.stats();
        vec![
            ("mc_ticks", self.stats.ticks),
            ("mc_pages_scanned", self.stats.pages_scanned),
            ("mc_activations", self.stats.activations),
            ("mc_deactivations", self.stats.deactivations),
            ("mc_promote_enqueues", self.stats.promote_enqueues),
            ("mc_promote_ages", self.stats.promote_ages),
            ("mc_ladder_decays", self.stats.ladder_decays),
            ("mc_promotions", ms.promotions),
            ("mc_promote_fallbacks", self.stats.promote_fallbacks),
            ("mc_promote_retries", self.stats.promote_retries),
            ("mc_promote_gave_ups", self.stats.promote_gave_ups),
            ("mc_demotions", ms.demotions),
            ("mc_evictions", ms.evictions),
            ("mc_pressure_runs", self.stats.pressure_runs),
            ("mc_txn_begins", self.stats.txn_begins),
            ("mc_txn_aborts", self.stats.txn_aborts),
            ("mc_txn_commits", self.stats.txn_commits),
            ("mc_shadow_hits", self.stats.shadow_hits),
            ("mc_shadow_invalidations", self.stats.shadow_invalidations),
        ]
    }

    fn invariant_violations(&self, mem: &MemorySystem) -> Vec<String> {
        let violations = self.check_invariants(mem);
        violations.iter().map(ToString::to_string).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_mem::{MachineDesc, PageKind, VPage};

    fn setup() -> (MemorySystem, MultiClock) {
        let mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        (mem, mc)
    }

    fn map_one(mem: &mut MemorySystem, mc: &mut MultiClock, v: u64) -> FrameId {
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        mem.map(VPage::new(v), f).unwrap();
        mc.on_page_mapped(mem, f);
        f
    }

    #[test]
    fn new_pages_enter_inactive_unreferenced() {
        let (mut mem, mut mc) = setup();
        let f = map_one(&mut mem, &mut mc, 1);
        assert_eq!(mc.state_of(f), Some(PageState::InactiveUnref));
        assert!(mc.node_lists(NodeId::new(0)).inactive.contains(f));
    }

    #[test]
    fn supervised_accesses_climb_ladder_to_promote() {
        let (mut mem, mut mc) = setup();
        let f = map_one(&mut mem, &mut mc, 1);
        let states = [
            PageState::InactiveRef,
            PageState::ActiveUnref,
            PageState::ActiveRef,
            PageState::Promote,
            PageState::Promote,
        ];
        for expected in states {
            mc.on_supervised_access(&mut mem, f, AccessKind::Read);
            assert_eq!(mc.state_of(f), Some(expected));
        }
        assert!(mc.node_lists(NodeId::new(0)).promote.contains(f));
        assert_eq!(mc.stats().activations, 1);
        assert_eq!(mc.stats().promote_enqueues, 1);
    }

    #[test]
    fn write_weight_never_changes_climb_speed() {
        let mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let cfg = MultiClockConfig {
            knobs: crate::Knobs {
                dirty_first: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut mc = MultiClock::new(cfg, mem.topology());
        let mut mem = mem;
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        mem.map(VPage::new(1), f).unwrap();
        mc.on_page_mapped(&mut mem, f);
        mem.access(VPage::new(1), AccessKind::Write).unwrap(); // dirty
        mc.on_supervised_access(&mut mem, f, AccessKind::Write);
        assert_eq!(
            mc.state_of(f),
            Some(PageState::InactiveRef),
            "dirtiness weights placement priority, not the frequency bar"
        );
    }

    #[test]
    fn policy_reports_paper_traits() {
        let (_, mc) = setup();
        let t = mc.traits();
        assert_eq!(t.selection_promotion, "Recency+Frequency");
        assert_eq!(t.page_access_tracking, "Reference Bit");
        assert!(t.numa_aware);
        assert!(!t.space_overhead);
    }

    #[test]
    fn tick_interval_reports_configured_period() {
        let (_, mc) = setup();
        assert_eq!(mc.tick_interval(), Some(Nanos::from_secs(1)));
    }
}
