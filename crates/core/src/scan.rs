//! The `kpromoted` daemon: periodic list scanning, reference-bit
//! harvesting, and promote-list draining (paper §III-B, §IV).

use crate::lists::WhichList;
use crate::multi_clock::MultiClock;
use crate::state::PageState;
use mc_mem::{
    FrameId, MemError, MemorySystem, MigrationMode, Nanos, NodeId, PageMove, TickOutcome, TierId,
};
use mc_obs::{saturating_add, saturating_bump, EventKind};

impl MultiClock {
    /// One `kpromoted` wake-up:
    ///
    /// 1. scan every list of every node of every tier in place (up to
    ///    `scan_batch` pages per list — each node's lists model an
    ///    independent per-node daemon and get their own full budget),
    ///    test-and-clearing PTE reference bits and applying the Fig. 4
    ///    transitions on the spot — this is how *unsupervised* (mmap)
    ///    accesses are observed;
    /// 2. promote **all** pages on lower tiers' promote lists ("once a
    ///    page is selected for promotion, the page gets promoted to the
    ///    DRAM in the same kpromoted run"), in `migrate_batch_size`
    ///    batches;
    /// 3. run the reclaim path on any tier below its low watermark;
    /// 4. optionally adapt the scan interval (§VII extension).
    pub(crate) fn kpromoted_run(&mut self, mem: &mut MemorySystem, now: Nanos) -> TickOutcome {
        saturating_bump(&mut self.stats.ticks);
        let tick = self.stats.ticks;
        mem.instruments.set_now(now.as_nanos());
        mem.instruments.emit(|| EventKind::TickBegin { tick });
        let mut out = TickOutcome::default();
        let tier_count = mem.topology().tier_count();

        // Settle last tick's migration transactions before anything else
        // looks at the lists. The copy window spanned the inter-tick
        // application run; by now every copy has either stayed clean
        // (commit: atomic remap) or been dirtied (abort: back into the
        // retry/backoff path). Sync mode never opens one.
        out.promoted += self.settle_txns(mem);
        // Scan phase, in (tier, node, list) order, a tier's nodes in
        // topology order. A frame's reference bit is consumed by the first
        // list that visits it, so a page the inactive scan activates reads
        // as unreferenced when the active scan reaches it in the same tick.
        // Host-time phase spans (no-ops when hooks are off) only observe
        // the host clock, never engine state.
        let mut scan_span = mem.instruments.span(mc_obs::Phase::Scan);
        for t in 0..tier_count {
            let tier = TierId::new(t as u8);
            // Ageing of unreferenced promote pages (transition 11) only
            // ever applies to the top tier: a lower tier's promote list is
            // drained by the promotion phase of the same run that
            // populated it (deferred retry candidates may sit across runs,
            // but those are waiting out a backoff, not ageing). It runs
            // before the other scans so pages entering the promote list
            // during this very scan are not aged before the promote phase
            // sees them.
            let lists: &[WhichList] = if tier.is_top() {
                &[WhichList::Promote, WhichList::Inactive, WhichList::Active]
            } else {
                &[WhichList::Inactive, WhichList::Active]
            };
            for i in 0..mem.topology().tier(tier).nodes().len() {
                let node = mem.topology().tier(tier).nodes()[i];
                for which in lists {
                    out.pages_scanned += self.scan_list(mem, tier, node, *which);
                }
            }
        }
        if let Some(s) = scan_span.as_mut() {
            s.add_items(out.pages_scanned);
        }
        drop(scan_span);

        // Drain promote lists bottom-up relative to their target: tier 1
        // promotes into tier 0 before tier 2 promotes into tier 1.
        let mut drain_span = mem.instruments.span(mc_obs::Phase::PromoteDrain);
        let mut promoted = 0u64;
        for tier in 1..tier_count {
            promoted += self.promote_all(mem, TierId::new(tier as u8));
        }
        out.promoted += promoted;
        if let Some(s) = drain_span.as_mut() {
            s.add_items(promoted);
        }
        drop(drain_span);

        // kswapd-style balancing: react to watermark pressure.
        let mut pressure_span = mem.instruments.span(mc_obs::Phase::Pressure);
        for tier in 0..tier_count {
            let tier = TierId::new(tier as u8);
            if mem.tier_under_pressure(tier) {
                let p = self.run_pressure(mem, tier, true);
                out.pages_scanned += p.pages_scanned;
                out.demoted += p.demoted;
                out.promoted += p.promoted;
                if let Some(s) = pressure_span.as_mut() {
                    s.add_items(p.demoted + p.promoted);
                }
            }
        }
        drop(pressure_span);

        saturating_add(&mut self.stats.pages_scanned, out.pages_scanned);
        self.adapt_interval(out.promoted + out.demoted);
        // Mirror the substrate's transaction/shadow counters into the
        // policy's vmstat rows (absolute values; all zero in Sync mode).
        let ms = mem.stats();
        self.stats.txn_begins = ms.txn_begins;
        self.stats.txn_aborts = ms.txn_aborts;
        self.stats.txn_commits = ms.txn_commits;
        self.stats.shadow_hits = ms.shadow_hits;
        self.stats.shadow_invalidations = ms.shadow_invalidations;
        self.debug_validate(mem);
        mem.instruments.emit(|| EventKind::TickEnd {
            tick,
            scanned: out.pages_scanned,
            promoted: out.promoted,
            demoted: out.demoted,
        });
        out
    }

    /// Scans up to `scan_batch` pages from the cold end of one list,
    /// rotating each to the tail. A referenced page steps the ladder — or,
    /// on a promote list, simply stays (transition 12); an unreferenced
    /// page still in the list's referenced state decays one step. Returns
    /// the pages examined.
    ///
    /// The rotation is one walk and one splice: the examined prefix moves
    /// to the tail first, in order, which is where popping and re-pushing
    /// each page would leave it, and the pages are then examined in walk
    /// order. A page's step moves only that page, so it finds every other
    /// page where the one-at-a-time rotation would.
    fn scan_list(
        &mut self,
        mem: &mut MemorySystem,
        tier: TierId,
        node: NodeId,
        which: WhichList,
    ) -> u64 {
        // CLOCK decay: the state a page not referenced since the last
        // scan loses, where it lands, and the Fig. 4 edge — so only pages
        // referenced in *several recent* scans ever reach the promote
        // list, and unaccessed promote pages age back to active.
        let (decays, lands, edge) = match which {
            WhichList::Inactive => (PageState::InactiveRef, PageState::InactiveUnref, 1), // fig4: 1
            WhichList::Active => (PageState::ActiveRef, PageState::ActiveUnref, 8),       // fig4: 8
            WhichList::Promote => (PageState::Promote, PageState::ActiveUnref, 11), // fig4: 11
        };
        let list = self.nodes[node.index()].list_mut(which);
        let budget = list.len().min(self.cfg.scan_batch);
        let mut walked = std::mem::take(&mut self.scan_scratch);
        walked.clear();
        list.rotate_until(budget, |frame| {
            walked.push(frame);
            false
        });
        for &frame in &walked {
            if mem.harvest_referenced(frame) {
                if which != WhichList::Promote {
                    self.apply_access(mem, frame);
                }
            } else if self.state_of(frame) == Some(decays) {
                if which == WhichList::Promote {
                    saturating_bump(&mut self.stats.promote_ages);
                } else {
                    saturating_bump(&mut self.stats.ladder_decays);
                }
                if lands.list() == which {
                    // Already at the tail: only the state changes, and the
                    // promotion episode ends as in `transition`.
                    self.states[frame.index()] = Some(lands);
                    self.retry_state[frame.index()] = None;
                } else {
                    self.transition(mem, frame, lands);
                }
                mem.instruments.emit(|| EventKind::Fig4 {
                    edge,
                    frame: frame.index() as u64,
                    tier: tier.index() as u8,
                });
            }
        }
        let scanned = walked.len() as u64;
        self.scan_scratch = walked;
        if scanned > 0 {
            mem.instruments.emit(|| EventKind::ScanList {
                tier: tier.index() as u8,
                list: which.name(),
                scanned: scanned as u32,
            });
        }
        scanned
    }

    /// Migrates every page on `tier`'s promote lists (all nodes) to the
    /// next tier up (Fig. 4 transition 13), handing the memory system up
    /// to `migrate_batch_size` pages per call so the per-call setup cost
    /// is amortized. Returns the number of pages promoted.
    ///
    /// A page that cannot move (locked, or no room upstairs even after one
    /// round of reclaim there) falls back to the active list, as the paper
    /// prescribes. With `migrate_batch_size == 1` the migration call
    /// sequence is exactly the historical page-at-a-time behaviour.
    pub(crate) fn promote_all(&mut self, mem: &mut MemorySystem, tier: TierId) -> u64 {
        let Some(upper) = tier.upper() else {
            return 0;
        };
        let mut promoted = 0;
        // The free pages to ask of the upper tier the one time this run
        // makes room there (`None` once spent). Room for the whole
        // candidate set is requested at once: gentle reclaim only ever
        // demotes scan-certified-cold pages, so asking for more than
        // exists is safe.
        let mut room: Option<usize> = Some(
            mem.topology()
                .tier(tier)
                .nodes()
                .iter()
                .map(|n| self.nodes[n.index()].promote.len())
                .sum(),
        );
        let batch = self.cfg.knobs.migrate_batch_size;
        for i in 0..mem.topology().tier(tier).nodes().len() {
            let node = mem.topology().tier(tier).nodes()[i];
            let mut candidates = self.nodes[node.index()].promote.drain();
            // Rotate the drain order each run. Candidate order is
            // otherwise a stable cycle (scan rotation is deterministic),
            // and when room is scarcer than candidates the same prefix
            // would win every run, starving equally-worthy pages; in a
            // real kernel timing jitter provides this fairness.
            if !candidates.is_empty() {
                let shift = self.stats.ticks as usize % candidates.len();
                candidates.rotate_left(shift);
            }
            // §VII dirty-first extension: dirtiness joins the
            // importance formula at *placement* time — when slots
            // upstairs are scarce, write-hot pages (whose lower-tier
            // stores are the most expensive accesses) get first claim.
            if self.cfg.knobs.dirty_first {
                candidates.sort_by_key(|f| {
                    std::cmp::Reverse(mem.frame(*f).flags().contains(mc_mem::PageFlags::DIRTY))
                });
            }
            // The drained candidates are tracked but on no list until
            // each is retracked below; suspend invariant validation.
            self.in_flight += candidates.len();
            let drained = candidates.len();
            if drained > 0 {
                mem.instruments.emit(|| EventKind::PromoteDrain {
                    tier: tier.index() as u8,
                    drained: drained as u32,
                });
            }
            let mut pending: Vec<FrameId> = Vec::with_capacity(batch.min(drained.max(1)));
            for frame in candidates {
                // A candidate still serving a retry backoff is requeued
                // at the tail untouched; its next attempt waits for
                // `eligible_tick`.
                if let Some(rs) = self.retry_state[frame.index()] {
                    if rs.eligible_tick > self.stats.ticks {
                        self.nodes[node.index()].promote.push_back(frame);
                        self.in_flight -= 1;
                        continue;
                    }
                }
                // drain() detached the page; the state table still says
                // Promote. Batch it up; a full batch flushes at once.
                pending.push(frame);
                if pending.len() >= batch {
                    promoted += self.promote_flush(mem, &mut pending, upper, &mut room);
                }
            }
            promoted += self.promote_flush(mem, &mut pending, upper, &mut room);
        }
        self.debug_validate(mem);
        promoted
    }

    /// Settles every migration transaction opened by the previous run:
    /// clean copies commit (one atomic remap each — transition 13,
    /// exactly like a synchronous promotion landing), doomed or faulted
    /// copies abort and re-enter the retry/backoff path as if a
    /// synchronous attempt had failed with the same error. Returns the
    /// number of pages promoted.
    pub(crate) fn settle_txns(&mut self, mem: &mut MemorySystem) -> u64 {
        if mem.migration_txns().is_empty() {
            return 0;
        }
        let results = mem.resolve_migrations();
        // A resolved source is tracked but listless until its result
        // re-lists it below; suspend invariant validation meanwhile.
        self.in_flight += results.len();
        let mut promoted = 0;
        for (frame, result) in results {
            match result {
                Ok(new_frame) => {
                    self.land_promotion(mem, frame, new_frame);
                    promoted += 1;
                }
                // A dirty-write abort surfaces as FrameLocked (the page
                // was "busy" during the window), a commit-time injected
                // fault as TierFull/FrameLocked.
                Err(e) => self.promote_failed(mem, frame, &e),
            }
            self.in_flight -= 1;
        }
        self.debug_validate(mem);
        promoted
    }

    /// Hands one batch of promote candidates to
    /// [`MemorySystem::migrate_pages`] in the configured mode and books
    /// every page: one that landed is retracked upstairs (transition 13),
    /// one whose copy window opened stays off-list at its source until
    /// the next run settles it, and a failure requeues or falls back.
    /// Returns the number promoted now.
    fn promote_flush(
        &mut self,
        mem: &mut MemorySystem,
        pending: &mut Vec<FrameId>,
        upper: TierId,
        room: &mut Option<usize>,
    ) -> u64 {
        if pending.is_empty() {
            return 0;
        }
        let mode = self.cfg.knobs.migration_mode;
        // A sync batch is one amortized call. A copy window has nothing to
        // amortize, and opening them page by page lets the room made for
        // one page serve the next.
        let per_call = match mode {
            MigrationMode::Sync => pending.len(),
            MigrationMode::Transactional => 1,
        };
        let mut promoted = 0;
        for pages in pending.chunks(per_call) {
            // Span over the migration call itself (items = pages handed
            // over); the per-page booking below is accounted to the
            // surrounding promote-drain span.
            let mut batch_span = mem.instruments.span(mc_obs::Phase::MigrateBatch);
            if let Some(s) = batch_span.as_mut() {
                s.add_items(pages.len() as u64);
            }
            let results = mem.migrate_pages(pages, upper, mode);
            drop(batch_span);
            for (&frame, mut result) in pages.iter().zip(results) {
                if matches!(result, Err(MemError::TierFull(_))) {
                    // "If the higher-performing tier is also under memory
                    // pressure, promotions from the lower tier result in
                    // immediate page demotions from the higher tier."
                    // Room-making is *gentle* (only truly cold pages move
                    // down) and attempted once per run; when the upper
                    // tier is all-hot the remaining candidates fall back
                    // to the active list instead of displacing hot pages.
                    if !self.pressure_guard[upper.index()] {
                        if let Some(demand) = room.take() {
                            self.run_pressure_toward(mem, upper, false, Some(demand));
                        }
                    }
                    let again = mem.migrate_pages(&[frame], upper, mode).pop();
                    result = again.unwrap_or(result);
                }
                match result {
                    Ok(PageMove::Landed(new_frame)) => {
                        self.land_promotion(mem, frame, new_frame);
                        promoted += 1;
                    }
                    Ok(PageMove::Opened) => {}
                    Err(e) => self.promote_failed(mem, frame, &e),
                }
                self.in_flight -= 1;
            }
        }
        pending.clear();
        promoted
    }

    /// fig4: 13 — a promotion lands active-referenced on the upper tier,
    /// whether a synchronous copy or a transaction's commit put it there.
    fn land_promotion(&mut self, mem: &mut MemorySystem, frame: FrameId, new_frame: FrameId) {
        self.retrack_after_migration(mem, frame, new_frame, PageState::ActiveRef);
        let upper = mem.frame(new_frame).tier();
        mem.instruments.emit(|| EventKind::Fig4 {
            edge: 13,
            frame: new_frame.index() as u64,
            tier: upper.index() as u8,
        });
    }

    /// Books a promotion attempt that failed for good this run. A full
    /// destination and a locked page (the kernel's `-EAGAIN`; also how a
    /// dirtied copy window surfaces) are transient: while the episode's
    /// retry budget lasts, the page is requeued at the promote-list tail
    /// with an exponentially backed-off eligibility tick. Anything else,
    /// or an exhausted budget, degrades to the active-list fallback.
    /// Either way the page is never dropped.
    fn promote_failed(&mut self, mem: &mut MemorySystem, frame: FrameId, err: &MemError) {
        if !matches!(err, MemError::TierFull(_) | MemError::FrameLocked(_)) {
            return self.promote_fallback(mem, frame);
        }
        let attempts = self.retry_state[frame.index()]
            .map_or(0, |r| r.attempts)
            .saturating_add(1);
        if self.cfg.knobs.retry.exhausted(attempts) {
            self.retry_state[frame.index()] = None;
            saturating_bump(&mut self.stats.promote_gave_ups);
            mem.instruments.emit(|| EventKind::MigrateGaveUp {
                frame: frame.index() as u64,
                attempts,
            });
            return self.promote_fallback(mem, frame);
        }
        let eligible_tick = self
            .stats
            .ticks
            .saturating_add(self.cfg.knobs.retry.backoff_ticks(attempts));
        self.retry_state[frame.index()] = Some(crate::multi_clock::RetryState {
            attempts,
            eligible_tick,
        });
        saturating_bump(&mut self.stats.promote_retries);
        // Tail requeue: fresh candidates drain first, and the page keeps
        // its Promote state (the episode is paused, not abandoned).
        self.frame_lists_mut(mem, frame).promote.push_back(frame);
        mem.instruments.emit(|| EventKind::MigrateRetry {
            frame: frame.index() as u64,
            attempt: attempts,
            eligible_tick,
        });
    }

    /// The failed-promotion fallback: the page moves to its tier's active
    /// list.
    fn promote_fallback(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        let tier = mem.frame(frame).tier();
        self.retry_state[frame.index()] = None;
        saturating_bump(&mut self.stats.promote_fallbacks);
        // fig4: 11 — no room upstairs; rejoin active as referenced.
        self.frame_lists_mut(mem, frame).active.push_back(frame);
        self.states[frame.index()] = Some(PageState::ActiveRef);
        mem.instruments.emit(|| EventKind::Fig4 {
            edge: 11,
            frame: frame.index() as u64,
            tier: tier.index() as u8,
        });
    }

    /// The §VII adaptive-interval extension: back off exponentially while
    /// the workload is stable (no promotions), snap back to the
    /// configured interval the moment tiering work reappears. The goal is
    /// to save scan CPU in steady phases without giving up reaction time.
    fn adapt_interval(&mut self, activity: u64) {
        if !self.cfg.knobs.adaptive_interval {
            return;
        }
        if activity == 0 {
            self.idle_ticks += 1;
            if self.idle_ticks >= 8 {
                let doubled = Nanos::from_nanos(self.current_interval.as_nanos() * 2);
                self.current_interval = doubled.min(self.cfg.max_interval());
                self.idle_ticks = 0;
            }
        } else {
            self.idle_ticks = 0;
            self.current_interval = self.cfg.scan_interval;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Knobs, MultiClockConfig};
    use mc_fault::{FaultConfig, FaultPlan, RetryPolicy};
    use mc_mem::{AccessKind, Instruments, MachineDesc, TieringPolicy, VPage};
    use mc_obs::ObsConfig;

    fn setup() -> (MemorySystem, MultiClock) {
        let mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        (mem, mc)
    }

    /// Test instruments: a recorder ringing `ring` events (off at 0) and
    /// the injector `fault` configures.
    fn instruments(ring: usize, fault: FaultConfig) -> Instruments {
        let obs = ObsConfig {
            enabled: ring > 0,
            ring_capacity: ring,
        };
        Instruments::new(&obs, &fault, None)
    }

    /// Forces tier 0 offline (`true`) or back online through the test's
    /// injector.
    fn set_top_offline(mem: &mut MemorySystem, offline: bool) {
        let injector = mem.instruments.injector().unwrap();
        injector.set_tier_offline(0, offline);
    }

    /// An injector executing `plan` from `seed`.
    fn faults(plan: FaultPlan, seed: u64) -> FaultConfig {
        FaultConfig {
            enabled: true,
            seed,
            plan,
        }
    }

    /// Fault a page into a chosen tier and track it.
    fn map_in_tier(
        mem: &mut MemorySystem,
        mc: &mut MultiClock,
        v: u64,
        tier: TierId,
    ) -> mc_mem::FrameId {
        let f = mem.alloc_page_in_tier(tier).unwrap();
        mem.map(VPage::new(v), f).unwrap();
        mc.on_page_mapped(mem, f);
        f
    }

    #[test]
    fn unsupervised_hot_page_promotes_after_four_scans() {
        let (mut mem, mut mc) = setup();
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        // Touch the page each interval (sets the PTE reference bit only).
        for scan in 1..=3u64 {
            mem.access(VPage::new(1), AccessKind::Read).unwrap();
            mc.tick(&mut mem, Nanos::from_secs(scan));
            assert_eq!(mem.frame(f).tier(), pm, "not yet promoted at scan {scan}");
        }
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        let out = mc.tick(&mut mem, Nanos::from_secs(4));
        assert_eq!(out.promoted, 1);
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP, "page now in DRAM");
        assert_eq!(mc.state_of(nf), Some(PageState::ActiveRef));
        assert!(mc.node_lists(NodeId::new(0)).active.contains(nf));
        assert_eq!(mem.stats().promotions, 1);
    }

    #[test]
    fn cold_page_is_never_promoted() {
        let (mut mem, mut mc) = setup();
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        for scan in 1..=10u64 {
            mc.tick(&mut mem, Nanos::from_secs(scan));
        }
        assert_eq!(mem.frame(f).tier(), pm);
        assert_eq!(mc.state_of(f), Some(PageState::InactiveUnref));
        assert_eq!(mem.stats().promotions, 0);
    }

    #[test]
    fn once_accessed_page_does_not_promote() {
        // The motivation (Fig. 2): pages accessed only once should not be
        // promotion candidates.
        let (mut mem, mut mc) = setup();
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        for scan in 1..=10u64 {
            mc.tick(&mut mem, Nanos::from_secs(scan));
        }
        assert_eq!(mem.frame(f).tier(), pm);
        // One observation stepped the ladder once, and the decay of the
        // following unreferenced scans took it back down.
        assert_eq!(mc.state_of(f), Some(PageState::InactiveUnref));
        assert_eq!(mc.stats().ladder_decays, 1);
    }

    #[test]
    fn promote_list_ages_out_when_page_goes_cold_on_top_tier() {
        let (mut mem, mut mc) = setup();
        let f = map_in_tier(&mut mem, &mut mc, 1, TierId::TOP);
        for _ in 0..4 {
            mc.on_supervised_access(&mut mem, f, AccessKind::Read);
        }
        assert_eq!(mc.state_of(f), Some(PageState::Promote));
        // Top-tier promote pages cannot be promoted; an unreferenced scan
        // ages them back to active (transition 11).
        mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(mc.state_of(f), Some(PageState::ActiveUnref));
        assert_eq!(mc.stats().promote_ages, 1);
    }

    #[test]
    fn promote_list_page_still_hot_stays_until_promoted() {
        let (mut mem, mut mc) = setup();
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        // Climb to ActiveRef via supervised accesses, then one more access
        // puts it on the promote list; the same tick must promote it.
        for _ in 0..4 {
            mc.on_supervised_access(&mut mem, f, AccessKind::Read);
        }
        assert_eq!(mc.state_of(f), Some(PageState::Promote));
        let out = mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.promoted, 1);
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
    }

    /// "If that is not possible — for instance, the page is locked — then
    /// it is moved to the active list" (the paper's promotion fallback).
    /// An injected lock is the simulator's locked page.
    #[test]
    fn locked_page_falls_back_to_active() {
        let (mut mem, mut mc) = setup();
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        for _ in 0..4 {
            mc.on_supervised_access(&mut mem, f, AccessKind::Read);
        }
        let plan = FaultPlan {
            migrate_lock_rate: 1.0,
            ..FaultPlan::default()
        };
        mem.instruments = instruments(0, faults(plan, 1));
        let out = mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.promoted, 0);
        assert_eq!(mem.frame(f).tier(), pm, "locked page stays put");
        assert_eq!(mc.state_of(f), Some(PageState::ActiveRef));
        assert!(mc.node_lists(NodeId::new(1)).active.contains(f));
        assert_eq!(mc.stats().promote_fallbacks, 1);
    }

    /// Climbs a PM page to the promote list (4 supervised accesses).
    fn make_promotable(mem: &mut MemorySystem, mc: &mut MultiClock, f: mc_mem::FrameId) {
        for _ in 0..4 {
            mc.on_supervised_access(mem, f, AccessKind::Read);
        }
        assert_eq!(mc.state_of(f), Some(PageState::Promote));
    }

    fn setup_with_retry(retry: RetryPolicy) -> (MemorySystem, MultiClock) {
        let mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let cfg = MultiClockConfig {
            knobs: Knobs {
                retry,
                ..Knobs::default()
            },
            ..Default::default()
        };
        let mc = MultiClock::new(cfg, mem.topology());
        (mem, mc)
    }

    #[test]
    fn promotion_resumes_within_one_period_after_tier_recovers() {
        let (mut mem, mut mc) = setup_with_retry(RetryPolicy::Backoff);
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        make_promotable(&mut mem, &mut mc, f);
        mem.instruments = instruments(0, faults(FaultPlan::default(), 0));
        set_top_offline(&mut mem, true);

        let out = mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.promoted, 0);
        assert_eq!(mc.stats().promote_retries, 1);
        assert_eq!(mc.state_of(f), Some(PageState::Promote), "episode paused");
        assert!(
            mc.node_lists(NodeId::new(1)).promote.contains(f),
            "requeued"
        );
        mc.assert_invariants(&mem);

        // Tier back online: the very next kpromoted run promotes it.
        set_top_offline(&mut mem, false);
        let out = mc.tick(&mut mem, Nanos::from_secs(2));
        assert_eq!(out.promoted, 1);
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
        assert_eq!(mc.stats().promote_gave_ups, 0);
        mc.assert_invariants(&mem);
    }

    #[test]
    fn retries_exhaust_into_gave_up_and_active_fallback() {
        let (mut mem, mut mc) = setup_with_retry(RetryPolicy::Backoff);
        mem.instruments = instruments(256, faults(FaultPlan::default(), 0));
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        make_promotable(&mut mem, &mut mc, f);
        set_top_offline(&mut mem, true);

        // Attempt 1 fails -> retry; the page must keep being referenced so
        // the top-tier ageing scan does not intervene (it is on PM anyway).
        mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(mc.stats().promote_retries, 1);
        // Attempts 2 and 3 fail at ticks 2 and 4 (backing off 1, then 2
        // ticks); the next falls due at tick 8.
        for s in 2..=7 {
            mc.tick(&mut mem, Nanos::from_secs(s));
        }
        assert_eq!(mc.stats().promote_retries, 3);
        assert_eq!(mc.stats().promote_gave_ups, 0);
        // Attempt 4 fails -> budget exhausted -> graceful degradation.
        mc.tick(&mut mem, Nanos::from_secs(8));
        assert_eq!(mc.stats().promote_gave_ups, 1);
        assert_eq!(mc.stats().promote_fallbacks, 1);
        assert_eq!(mc.state_of(f), Some(PageState::ActiveRef));
        assert!(mc.node_lists(NodeId::new(1)).active.contains(f));
        assert_eq!(mem.translate(VPage::new(1)), Some(f), "page never lost");
        mc.assert_invariants(&mem);

        let names: Vec<&str> = mem.recorder().events().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"migrate_retry"));
        assert!(names.contains(&"migrate_gave_up"));
    }

    #[test]
    fn backoff_defers_attempts_until_eligible_tick() {
        let (mut mem, mut mc) = setup_with_retry(RetryPolicy::Backoff);
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        make_promotable(&mut mem, &mut mc, f);
        mem.instruments = instruments(0, faults(FaultPlan::default(), 0));
        set_top_offline(&mut mem, true);

        let rejections = |mem: &mut MemorySystem| mem.stats().injected_faults;

        // Tick 1: attempt 1 fails (the promote path tries the migration,
        // reclaims, and retries once, so one episode can reject more than
        // once); eligible again at tick 2.
        mc.tick(&mut mem, Nanos::from_secs(1));
        assert!(rejections(&mut mem) >= 1);
        assert_eq!(mc.stats().promote_retries, 1);
        // Tick 2: attempt 2 fails; eligible again at tick 4.
        mc.tick(&mut mem, Nanos::from_secs(2));
        let after_second = rejections(&mut mem);
        assert_eq!(mc.stats().promote_retries, 2);
        // Tick 3: still backing off — no migration attempt at all.
        mc.tick(&mut mem, Nanos::from_secs(3));
        assert_eq!(
            rejections(&mut mem),
            after_second,
            "deferred candidate must not touch the memory system"
        );
        assert!(mc.node_lists(NodeId::new(1)).promote.contains(f));
        // Tick 4: eligible again — attempt 3 fires (and fails).
        mc.tick(&mut mem, Nanos::from_secs(4));
        assert!(rejections(&mut mem) > after_second);
        assert_eq!(mc.stats().promote_retries, 3);
        mc.assert_invariants(&mem);
    }

    fn setup_transactional(retry: RetryPolicy) -> (MemorySystem, MultiClock) {
        let mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let cfg = MultiClockConfig {
            knobs: Knobs {
                migration_mode: MigrationMode::Transactional,
                retry,
                ..Knobs::default()
            },
            ..Default::default()
        };
        let mc = MultiClock::new(cfg, mem.topology());
        (mem, mc)
    }

    #[test]
    fn transactional_promotion_commits_on_the_next_tick() {
        let (mut mem, mut mc) = setup_transactional(RetryPolicy::Immediate);
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        make_promotable(&mut mem, &mut mc, f);
        // Tick 1 opens the transaction: no copy stall, the page still
        // mapped (and served) at the source for the whole window.
        let out = mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.promoted, 0);
        assert!(mem.txn_open(f));
        assert_eq!(mem.translate(VPage::new(1)), Some(f), "still at source");
        assert_eq!(mc.stats().txn_begins, 1);
        mc.assert_invariants(&mem);
        // Tick 2 settles: the copy stayed clean, so it commits.
        let out = mc.tick(&mut mem, Nanos::from_secs(2));
        assert_eq!(out.promoted, 1);
        assert!(mem.migration_txns().is_empty());
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
        // The commit landed ActiveRef at the start of the tick; the same
        // tick's scan then saw it unreferenced and decayed it one step.
        assert_eq!(mc.state_of(nf), Some(PageState::ActiveUnref));
        assert_eq!(mem.stats().promotions, 1);
        assert_eq!(mc.stats().txn_commits, 1);
        // The clean source frame stayed behind as a shadow copy.
        assert_eq!(mem.shadow_of(nf), Some(f));
        mc.assert_invariants(&mem);
    }

    #[test]
    fn dirty_write_during_copy_window_reenters_retry_path() {
        let (mut mem, mut mc) = setup_transactional(RetryPolicy::Backoff);
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        make_promotable(&mut mem, &mut mc, f);
        mc.tick(&mut mem, Nanos::from_secs(1));
        assert!(mem.txn_open(f));
        // A store hits the source mid-window: the copy is stale.
        mem.access(VPage::new(1), AccessKind::Write).unwrap();
        let out = mc.tick(&mut mem, Nanos::from_secs(2));
        assert_eq!(out.promoted, 0, "stale copy must not commit");
        assert_eq!(mc.stats().txn_aborts, 1);
        assert_eq!(mc.stats().promote_retries, 1, "abort re-enters retry path");
        assert_eq!(mc.state_of(f), Some(PageState::Promote), "episode paused");
        assert!(mc.node_lists(NodeId::new(1)).promote.contains(f));
        mc.assert_invariants(&mem);
        // Backoff elapses; the retry opens a fresh transaction and — with
        // no further writes — commits.
        mc.tick(&mut mem, Nanos::from_secs(3));
        let out = mc.tick(&mut mem, Nanos::from_secs(4));
        assert_eq!(out.promoted, 1);
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
        // The dirty write predates the retry's copy window, so the fresh
        // copy captured it: the source stays behind as a shadow and the
        // page's dirty bit resets against it.
        assert_eq!(mem.shadow_of(nf), Some(f));
        assert!(!mem.frame(nf).flags().contains(mc_mem::PageFlags::DIRTY));
        mc.assert_invariants(&mem);
    }

    #[test]
    fn cold_clean_page_demotes_via_its_shadow() {
        let (mut mem, mut mc) = setup_transactional(RetryPolicy::Immediate);
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut mc, 1, pm);
        make_promotable(&mut mem, &mut mc, f);
        mc.tick(&mut mem, Nanos::from_secs(1));
        mc.tick(&mut mem, Nanos::from_secs(2));
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.shadow_of(nf), Some(f));
        // Park the page cold on the inactive list (the slow route there
        // is several decay scans plus a rebalance; the landing state is
        // what matters to the demotion path), then fill DRAM so reclaim
        // has real pressure: the shadowed page is the oldest inactive
        // page, and its demotion must be a zero-copy flip back to the
        // retained frame.
        mc.transition(&mut mem, nf, PageState::InactiveUnref);
        let mut v = 100u64;
        while let Ok(extra) = mem.alloc_page_in_tier(TierId::TOP) {
            mem.map(VPage::new(v), extra).unwrap();
            mc.on_page_mapped(&mut mem, extra);
            v += 1;
        }
        mc.on_pressure(&mut mem, TierId::TOP, Nanos::from_secs(9));
        assert_eq!(mem.stats().shadow_hits, 1);
        assert_eq!(
            mem.translate(VPage::new(1)),
            Some(f),
            "the page is back in its original frame without a copy"
        );
        assert_eq!(mc.state_of(f), Some(PageState::InactiveUnref));
        assert!(mem.shadows().next().is_none());
        mc.assert_invariants(&mem);
    }

    /// A sync batch vacates the source frames of all the pages it moves
    /// before the first of them is booked. When an earlier page of the
    /// batch found the upper tier full, the room made for it demotes a
    /// cold page onto one of those vacated frames, and booking the later
    /// page must not take that frame's new tenant off the lists.
    #[test]
    fn room_made_mid_batch_may_reuse_a_frame_the_batch_vacated() {
        use mc_fault::FaultInjector;
        let plan = FaultPlan {
            alloc_fail_rate: 0.1,
            ..FaultPlan::default()
        };
        // The first allocation draw fails — the batch's first page — and
        // the rest of the run's draws pass.
        let seed = (0..u64::MAX)
            .find(|&s| {
                let mut inj = FaultInjector::new(plan.clone(), s);
                inj.on_alloc(0).is_some() && (0..64).all(|_| inj.on_alloc(0).is_none())
            })
            .unwrap();
        let mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        // One batch of more candidates than DRAM's reserve, so the room
        // asked for them is not there yet; DRAM otherwise full of cold
        // pages, with one slot short of what the candidates need.
        let n = mem.node_watermarks(mc_mem::NodeId::new(0)).min as u64 + 2;
        let cfg = MultiClockConfig {
            knobs: Knobs {
                migrate_batch_size: n as usize,
                ..Knobs::default()
            },
            ..Default::default()
        };
        let mut mc = MultiClock::new(cfg, mem.topology());
        let mut mem = mem;
        let pm = TierId::new(1);
        let hot: Vec<FrameId> = (0..n)
            .map(|v| map_in_tier(&mut mem, &mut mc, v, pm))
            .collect();
        let top = mc_mem::NodeId::new(0);
        let room = mem.node_free(top) - mem.node_watermarks(top).min;
        let cold: Vec<u64> = (0..room as u64 - (n - 1))
            .map(|i| {
                let v = 100 + i;
                map_in_tier(&mut mem, &mut mc, v, TierId::TOP);
                v
            })
            .collect();
        for f in &hot {
            make_promotable(&mut mem, &mut mc, *f);
        }
        mem.instruments = instruments(0, faults(plan, seed));
        let out = mc.promote_all(&mut mem, pm);
        assert_eq!(out, n, "the failed page lands on its second attempt");
        let demoted: Vec<FrameId> = cold
            .iter()
            .map(|v| mem.translate(VPage::new(*v)).unwrap())
            .filter(|f| mem.frame(*f).tier() == pm)
            .collect();
        assert!(
            demoted.iter().any(|f| hot.contains(f)),
            "room-making reused a vacated frame: {demoted:?} vs {hot:?}"
        );
        for f in demoted {
            assert_eq!(mc.state_of(f), Some(PageState::InactiveUnref));
            assert!(mc.node_lists(NodeId::new(1)).inactive.contains(f));
        }
        mc.assert_invariants(&mem);
    }

    #[test]
    fn scan_respects_batch_budget() {
        let mem = MemorySystem::new(MachineDesc::dram_pm(64, 2048));
        let cfg = MultiClockConfig {
            scan_batch: 16,
            ..Default::default()
        };
        let mut mc = MultiClock::new(cfg, mem.topology());
        let mut mem = mem;
        for v in 0..1000u64 {
            map_in_tier(&mut mem, &mut mc, v, TierId::new(1));
        }
        let out = mc.tick(&mut mem, Nanos::from_secs(1));
        // Only the PM anon inactive list is populated: 16 pages scanned.
        assert_eq!(out.pages_scanned, 16);
    }

    /// The `fig4_transition` edges a tick's events recorded for `frame`.
    fn fig4_edges_of(mem: &MemorySystem, frame: FrameId) -> Vec<u8> {
        mem.recorder()
            .events()
            .filter_map(|e| {
                let EventKind::Fig4 { edge, frame: f, .. } = e.kind else {
                    return None;
                };
                (f == frame.index() as u64).then_some(edge)
            })
            .collect()
    }

    #[test]
    fn page_activated_by_the_inactive_scan_reads_unreferenced_on_the_active_scan() {
        let (mut mem, mut mc) = setup();
        let f = map_in_tier(&mut mem, &mut mc, 1, TierId::new(1));
        mc.on_supervised_access(&mut mem, f, AccessKind::Read);
        assert_eq!(mc.state_of(f), Some(PageState::InactiveRef));
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        mem.instruments = instruments(64, FaultConfig::none());
        let out = mc.tick(&mut mem, Nanos::from_secs(1));
        // Examined twice (inactive, then active), stepped once: the bit
        // the inactive scan consumed is gone when the active scan looks.
        assert_eq!(out.pages_scanned, 2);
        assert_eq!(mc.state_of(f), Some(PageState::ActiveUnref));
        assert_eq!(fig4_edges_of(&mem, f), vec![6]);
        assert_eq!(mc.stats().activations, 1);
        assert_eq!(mc.stats().ladder_decays, 0);
    }

    #[test]
    fn top_tier_promote_page_stays_while_referenced_and_ages_when_not() {
        let (mut mem, mut mc) = setup();
        let hot = map_in_tier(&mut mem, &mut mc, 1, TierId::TOP);
        let cold = map_in_tier(&mut mem, &mut mc, 2, TierId::TOP);
        make_promotable(&mut mem, &mut mc, hot);
        make_promotable(&mut mem, &mut mc, cold);
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        mem.instruments = instruments(64, FaultConfig::none());
        mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(mc.state_of(hot), Some(PageState::Promote));
        let top = mc.node_lists(NodeId::new(0));
        assert!(top.promote.contains(hot));
        assert_eq!(fig4_edges_of(&mem, hot), Vec::<u8>::new());
        assert_eq!(mc.state_of(cold), Some(PageState::ActiveUnref));
        assert!(top.active.contains(cold));
        assert_eq!(fig4_edges_of(&mem, cold), vec![11]);
        assert_eq!(mc.stats().promote_ages, 1);
    }

    #[test]
    fn page_enqueued_on_the_top_tier_promote_list_is_not_aged_in_the_same_tick() {
        let (mut mem, mut mc) = setup();
        let f = map_in_tier(&mut mem, &mut mc, 1, TierId::TOP);
        for _ in 0..3 {
            mc.on_supervised_access(&mut mem, f, AccessKind::Read);
        }
        assert_eq!(mc.state_of(f), Some(PageState::ActiveRef));
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        mc.tick(&mut mem, Nanos::from_secs(1));
        // The active scan enqueued it after the promote list was aged.
        assert_eq!(mc.state_of(f), Some(PageState::Promote));
        assert_eq!(mc.stats().promote_enqueues, 1);
        assert_eq!(mc.stats().promote_ages, 0);
        // Left unreferenced, it ages on the next run.
        mc.tick(&mut mem, Nanos::from_secs(2));
        assert_eq!(mc.state_of(f), Some(PageState::ActiveUnref));
        assert_eq!(mc.stats().promote_ages, 1);
    }

    #[test]
    fn scan_budget_examines_the_cold_end_and_keeps_rotation_order() {
        let mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let cfg = MultiClockConfig {
            scan_batch: 2,
            ..Default::default()
        };
        let mut mc = MultiClock::new(cfg, mem.topology());
        let mut mem = mem;
        let pm = TierId::new(1);
        let p: Vec<FrameId> = (0..5)
            .map(|v| map_in_tier(&mut mem, &mut mc, v, pm))
            .collect();
        for v in 0..5 {
            mem.access(VPage::new(v), AccessKind::Read).unwrap();
        }
        let order = |mc: &MultiClock| -> Vec<FrameId> {
            mc.node_lists(NodeId::new(1)).inactive.iter().collect()
        };
        let stepped = |mc: &MultiClock| -> Vec<bool> {
            p.iter()
                .map(|f| mc.state_of(*f) == Some(PageState::InactiveRef))
                .collect()
        };
        let out = mc.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.pages_scanned, 2);
        assert_eq!(stepped(&mc), [true, true, false, false, false]);
        assert_eq!(order(&mc), [p[2], p[3], p[4], p[0], p[1]]);
        // The next run resumes where this one stopped; the unexamined
        // pages keep their reference bits until their turn comes.
        let out = mc.tick(&mut mem, Nanos::from_secs(2));
        assert_eq!(out.pages_scanned, 2);
        assert_eq!(stepped(&mc), [true, true, true, true, false]);
        assert_eq!(order(&mc), [p[4], p[0], p[1], p[2], p[3]]);
    }

    #[test]
    fn scan_events_come_out_in_tier_node_list_order() {
        let mut mem = MemorySystem::new(MachineDesc::dual_socket(32, 64));
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        // Referenced pages on every list the scan visits, in states whose
        // step stays inside the list (edges 2 and 7; a referenced promote
        // page emits nothing), so each list's length at its turn is its
        // length now.
        let mut v = 0u64;
        for tier in [TierId::TOP, TierId::new(1)] {
            for i in 0..12 {
                let f = mem.alloc_page_in_tier(tier).unwrap();
                mem.map(VPage::new(v), f).unwrap();
                mc.on_page_mapped(&mut mem, f);
                // Allocation alternates between the tier's two nodes, so
                // the lower tier varies per pair to reach both.
                let climbs = if tier.is_top() {
                    i % 3 * 2
                } else {
                    i / 2 % 2 * 2
                };
                for _ in 0..climbs {
                    mc.on_supervised_access(&mut mem, f, AccessKind::Read);
                }
                mem.access(VPage::new(v), AccessKind::Read).unwrap();
                v += 1;
            }
        }
        // (tier, node, list) of every non-empty list, in scan order.
        let mut expected = Vec::new();
        for tier in [TierId::TOP, TierId::new(1)] {
            let nodes = mem.topology().tier(tier).nodes();
            assert_eq!(nodes.len(), 2, "two nodes per tier");
            for &node in nodes {
                let set = mc.node_lists(node);
                let promote = tier.is_top().then_some(("promote", set.promote.len()));
                let rest = [
                    ("inactive", set.inactive.len()),
                    ("active", set.active.len()),
                ];
                for (list, len) in promote.into_iter().chain(rest) {
                    if len > 0 {
                        expected.push((tier, node, list, len as u32));
                    }
                }
            }
        }
        assert_eq!(expected.len(), 10, "every list populated: {expected:?}");
        mem.instruments = instruments(1024, FaultConfig::none());
        mc.tick(&mut mem, Nanos::from_secs(1));
        // Each list's transitions precede its ScanList event.
        let mut groups = expected.iter();
        let mut current = groups.next();
        for e in mem.recorder().events() {
            if let EventKind::Fig4 { edge, frame, tier } = e.kind {
                let Some((t, node, list, _)) = current else {
                    break; // the promote drain's events follow the scan
                };
                let f = FrameId::new(frame as u32);
                assert_eq!((TierId::new(tier), mem.frame(f).node()), (*t, *node));
                assert_eq!(edge, if *list == "inactive" { 2 } else { 7 });
            } else if let EventKind::ScanList {
                tier,
                list,
                scanned,
            } = e.kind
            {
                let (t, _, l, len) = current.expect("more ScanList events than lists");
                assert_eq!((TierId::new(tier), list, scanned), (*t, *l, *len));
                current = groups.next();
            }
        }
        assert!(current.is_none(), "every populated list reported its scan");
    }

    #[test]
    fn adaptive_interval_backs_off_when_idle() {
        let mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let cfg = MultiClockConfig {
            knobs: Knobs {
                adaptive_interval: true,
                ..Knobs::default()
            },
            ..Default::default()
        };
        let mut mc = MultiClock::new(cfg, mem.topology());
        let mut mem = mem;
        let base = mc.tick_interval().unwrap();
        for s in 1..=9u64 {
            mc.tick(&mut mem, Nanos::from_secs(s));
        }
        assert!(mc.tick_interval().unwrap() > base, "interval backed off");
        assert!(mc.tick_interval().unwrap() <= mc.config().max_interval());
    }

    #[test]
    fn fixed_interval_never_changes() {
        let (mut mem, mut mc) = setup();
        for s in 1..=20u64 {
            mc.tick(&mut mem, Nanos::from_secs(s));
        }
        assert_eq!(mc.tick_interval(), Some(Nanos::from_secs(1)));
    }
}
