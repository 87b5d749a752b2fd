//! The [`MultiClock`] policy: tracking structure, the Fig. 4 transition
//! engine, and the [`TieringPolicy`] wiring. The periodic scan lives in
//! [`crate::scan`]; the pressure/demotion path lives in
//! [`crate::reclaim`].

use crate::config::MultiClockConfig;
use crate::lists::{TierLists, TierShards};
use crate::state::PageState;
use crate::stats::MultiClockStats;
use mc_mem::{
    AccessKind, FrameId, MemorySystem, Nanos, PageFlags, PolicyTraits, TickOutcome, TierId,
    TieringPolicy, Topology,
};
use mc_obs::{saturating_bump, EventKind};

/// The MULTI-CLOCK dynamic tiering policy.
///
/// Keeps one [`TierShards`] per tier (per-node list shards, each a full
/// [`TierLists`]), a per-frame [`PageState`] table, and implements the
/// paper's page state machine: supervised accesses step the ladder
/// immediately (`mark_page_accessed()`), unsupervised accesses are
/// observed via harvested PTE reference bits during `kpromoted` scans, and
/// the promote lists of lower tiers are drained upwards — in batches —
/// every tick. Each frame is statically assigned to the shard of its NUMA
/// node, mirroring the paper's one-`kpromoted`-per-node design.
#[derive(Debug, Clone)]
pub struct MultiClock {
    pub(crate) cfg: MultiClockConfig,
    pub(crate) tiers: Vec<TierShards>,
    /// Shard index (within the owning tier's [`TierShards`]) of each
    /// frame. Static for the machine's lifetime: a frame that migrates
    /// lands on the shard its *new* frame number maps to.
    pub(crate) shard_table: Vec<u16>,
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
    /// [`MultiClockConfig::validate`]).
    pub fn new(cfg: MultiClockConfig, topology: &Topology) -> Self {
        cfg.validate();
        let current_interval = cfg.scan_interval;
        // One shard per NUMA node (the paper's per-node kpromoted): a
        // frame's shard is its node's ordinal within the tier, so the
        // table is static and a lookup is one index.
        let mut shard_table = vec![0u16; topology.total_pages()];
        let mut tiers = Vec::with_capacity(topology.tier_count());
        for tier in topology.tiers() {
            for (node_ord, &node) in tier.nodes().iter().enumerate() {
                for f in topology.node(node).frames() {
                    shard_table[f.index()] = node_ord as u16;
                }
            }
            tiers.push(TierShards::new(tier.nodes().len()));
        }
        MultiClock {
            cfg,
            tiers,
            shard_table,
            states: vec![None; topology.total_pages()],
            stats: MultiClockStats::default(),
            current_interval,
            idle_ticks: 0,
            pressure_guard: vec![false; topology.tier_count()],
            in_flight: 0,
            retry_state: vec![None; topology.total_pages()],
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MultiClockConfig {
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

    /// The sharded list structure of one tier (read-only; used by tests
    /// and the invariant checker).
    pub fn tier_lists(&self, tier: TierId) -> &TierShards {
        &self.tiers[tier.index()]
    }

    /// The shard (within its tier's [`TierShards`]) a frame belongs to.
    pub(crate) fn shard_of(&self, frame: FrameId) -> usize {
        self.shard_table[frame.index()] as usize
    }

    /// The mutable shard lists a frame belongs to on the given tier.
    pub(crate) fn shard_lists_mut(&mut self, tier: TierId, frame: FrameId) -> &mut TierLists {
        let s = self.shard_table[frame.index()] as usize;
        self.tiers[tier.index()].shard_mut(s)
    }

    /// Pins a page: moves it to the unevictable list; it will never be
    /// scanned or migrated until [`Self::munlock`].
    pub fn mlock(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        if self.states[frame.index()].is_none() {
            return;
        }
        // A page mid-copy-window is on no list; pinning it now would
        // corrupt the settle step. The lock lands after the transaction
        // resolves (commit retracks, abort requeues — either way the
        // page is listed again and a later mlock succeeds).
        if mem.txn_open(frame) {
            return;
        }
        let tier = mem.frame(frame).tier();
        self.tiers[tier.index()].remove(frame);
        self.shard_lists_mut(tier, frame)
            .unevictable
            .push_back(frame);
        self.states[frame.index()] = Some(PageState::Unevictable);
        self.retry_state[frame.index()] = None;
        self.sync_flags(mem, frame, PageState::Unevictable);
    }

    /// Unpins a page: it returns to the inactive list as a cold page.
    pub fn munlock(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        if self.states[frame.index()] != Some(PageState::Unevictable) {
            return;
        }
        let tier = mem.frame(frame).tier();
        let kind = mem.frame(frame).kind();
        let lists = self.shard_lists_mut(tier, frame);
        lists.unevictable.remove(frame);
        lists.set_mut(kind).inactive.push_back(frame);
        self.states[frame.index()] = Some(PageState::InactiveUnref);
        self.sync_flags(mem, frame, PageState::InactiveUnref);
    }

    /// Mirrors a [`PageState`] into the frame's page flags, keeping the
    /// `struct page` view consistent with the list view (Table II's
    /// page-flags.h changes).
    pub(crate) fn sync_flags(&self, mem: &mut MemorySystem, frame: FrameId, state: PageState) {
        let flags = mem.frame_flags_mut(frame);
        flags.insert(PageFlags::LRU);
        flags.set(PageFlags::ACTIVE, state.is_active());
        flags.set(PageFlags::PROMOTE, state == PageState::Promote);
        flags.set(PageFlags::REFERENCED, state.is_referenced());
        flags.set(PageFlags::UNEVICTABLE, state == PageState::Unevictable);
    }

    /// Starts tracking a freshly mapped page: Fig. 4 transition (5), the
    /// page enters `inactive-unreferenced`.
    pub(crate) fn track(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        debug_assert!(
            self.states[frame.index()].is_none(),
            "{frame} is already tracked"
        );
        let tier = mem.frame(frame).tier();
        let kind = mem.frame(frame).kind();
        // fig4: 5 — a new mapping enters at the bottom of the ladder.
        self.shard_lists_mut(tier, frame)
            .set_mut(kind)
            .inactive
            .push_back(frame);
        self.states[frame.index()] = Some(PageState::InactiveUnref);
        self.sync_flags(mem, frame, PageState::InactiveUnref);
        mem.instruments.emit(|| EventKind::Fig4 {
            edge: 5,
            frame: frame.index() as u64,
            tier: tier.index() as u8,
        });
    }

    /// Stops tracking a page (it is being unmapped/freed): Fig. 4
    /// transition (4).
    pub(crate) fn untrack(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        self.retry_state[frame.index()] = None;
        if self.states[frame.index()].take().is_some() {
            let tier = mem.frame(frame).tier();
            // fig4: 4 — tracking ends; the page leaves every list.
            self.tiers[tier.index()].remove(frame);
            mem.frame_flags_mut(frame).remove(
                PageFlags::LRU
                    | PageFlags::ACTIVE
                    | PageFlags::PROMOTE
                    | PageFlags::REFERENCED
                    | PageFlags::UNEVICTABLE,
            );
            mem.instruments.emit(|| EventKind::Fig4 {
                edge: 4,
                frame: frame.index() as u64,
                tier: tier.index() as u8,
            });
        }
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
        if st == PageState::Unevictable {
            return;
        }
        let tier = mem.frame(frame).tier();
        let kind = mem.frame(frame).kind();
        // fig4: 2, 6, 7, 10, 12 — an observed access climbs one edge.
        let new = st.on_access();
        if new.list() != st.list() {
            let set = self.shard_lists_mut(tier, frame).set_mut(kind);
            set.list_mut(st.list()).remove(frame);
            set.list_mut(new.list()).push_back(frame);
            match new {
                PageState::ActiveUnref => saturating_bump(&mut self.stats.activations), // fig4: 6
                PageState::Promote => saturating_bump(&mut self.stats.promote_enqueues), // fig4: 10
                // Accesses never move a page into the remaining
                // states across a list boundary: (2) and (12) stay
                // inside their list and ActiveRef is reached only by
                // the list-internal edge (7).
                PageState::InactiveUnref
                | PageState::InactiveRef
                | PageState::ActiveRef
                | PageState::Unevictable => {}
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
        self.sync_flags(mem, frame, new);
    }

    /// The Fig. 4 edge an observed access fires from each ladder state
    /// (0 for [`PageState::Unevictable`], which absorbs accesses before
    /// the ladder is consulted).
    pub(crate) fn access_edge(st: PageState) -> u8 {
        match st {
            PageState::InactiveUnref => 2,
            PageState::InactiveRef => 6,
            PageState::ActiveUnref => 7,
            PageState::ActiveRef => 10,
            PageState::Promote => 12,
            PageState::Unevictable => 0,
        }
    }

    /// Moves a tracked page out of its current list and into the list a
    /// new state demands, updating the state table and flags. Used by the
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
        let tier = mem.frame(frame).tier();
        let kind = mem.frame(frame).kind();
        let set = self.shard_lists_mut(tier, frame).set_mut(kind);
        set.list_mut(st.list()).remove(frame);
        set.list_mut(new_state.list()).push_back(frame);
        self.states[frame.index()] = Some(new_state);
        if new_state != PageState::Promote {
            // Leaving the promote list ends the promotion episode.
            self.retry_state[frame.index()] = None;
        }
        self.sync_flags(mem, frame, new_state);
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
                !self.tiers.iter().any(|t| t.contains(old_frame)),
                "{old_frame} migrated while still on a list"
            );
            self.states[old_frame.index()] = None;
            self.retry_state[old_frame.index()] = None;
        }
        self.retry_state[new_frame.index()] = None;
        let tier = mem.frame(new_frame).tier();
        let kind = mem.frame(new_frame).kind();
        self.shard_lists_mut(tier, new_frame)
            .set_mut(kind)
            .list_mut(landing_state.list())
            .push_back(new_frame);
        self.states[new_frame.index()] = Some(landing_state);
        self.sync_flags(mem, new_frame, landing_state);
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

    fn on_page_unmapped(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        self.untrack(mem, frame);
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

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("mc_ticks", self.stats.ticks),
            ("mc_pages_scanned", self.stats.pages_scanned),
            ("mc_activations", self.stats.activations),
            ("mc_deactivations", self.stats.deactivations),
            ("mc_promote_enqueues", self.stats.promote_enqueues),
            ("mc_promote_ages", self.stats.promote_ages),
            ("mc_ladder_decays", self.stats.ladder_decays),
            ("mc_promotions", self.stats.promotions),
            ("mc_promote_fallbacks", self.stats.promote_fallbacks),
            ("mc_promote_retries", self.stats.promote_retries),
            ("mc_promote_gave_ups", self.stats.promote_gave_ups),
            ("mc_demotions", self.stats.demotions),
            ("mc_evictions", self.stats.evictions),
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
        assert!(mc
            .tier_lists(TierId::TOP)
            .shard(0)
            .anon
            .inactive
            .contains(f));
        assert!(mem.frame(f).flags().contains(PageFlags::LRU));
        assert!(!mem.frame(f).flags().contains(PageFlags::ACTIVE));
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
        let lists = mc.tier_lists(TierId::TOP);
        assert!(lists.shard(0).anon.promote.contains(f));
        assert!(mem.frame(f).flags().contains(PageFlags::PROMOTE));
        assert_eq!(mc.stats().activations, 1);
        assert_eq!(mc.stats().promote_enqueues, 1);
    }

    #[test]
    fn untrack_clears_lists_and_flags() {
        let (mut mem, mut mc) = setup();
        let f = map_one(&mut mem, &mut mc, 1);
        mc.on_supervised_access(&mut mem, f, AccessKind::Read);
        mc.on_page_unmapped(&mut mem, f);
        assert_eq!(mc.state_of(f), None);
        assert!(!mc.tier_lists(TierId::TOP).contains(f));
        assert!(!mem.frame(f).flags().contains(PageFlags::LRU));
    }

    #[test]
    fn mlock_munlock_cycle() {
        let (mut mem, mut mc) = setup();
        let f = map_one(&mut mem, &mut mc, 1);
        mc.mlock(&mut mem, f);
        assert_eq!(mc.state_of(f), Some(PageState::Unevictable));
        assert!(mc.tier_lists(TierId::TOP).shard(0).unevictable.contains(f));
        assert!(mem.frame(f).flags().contains(PageFlags::UNEVICTABLE));
        // Accesses do not move unevictable pages.
        mc.on_supervised_access(&mut mem, f, AccessKind::Read);
        assert_eq!(mc.state_of(f), Some(PageState::Unevictable));
        mc.munlock(&mut mem, f);
        assert_eq!(mc.state_of(f), Some(PageState::InactiveUnref));
        assert!(mc
            .tier_lists(TierId::TOP)
            .shard(0)
            .anon
            .inactive
            .contains(f));
    }

    #[test]
    fn write_weight_never_changes_climb_speed() {
        let mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let cfg = MultiClockConfig {
            write_weight: 3.0,
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
