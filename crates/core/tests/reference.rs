//! The engine against an independent reference model.
//!
//! [`Model`] is a deliberately naive MULTI-CLOCK that shares no code with
//! `crates/core/src`: a state table and one `Vec` per (node, list) — the
//! paper's per-node LRU lists for anonymous pages, front = coldest — and no
//! batches, transactions, retry ladder or intrusive links. It
//! transliterates the 13 edges of Fig. 4 ([`FIG4`], which must equal
//! DESIGN.md's table), a `kpromoted` run that scans every
//! list and then drains every lower tier's promote list one tier up in the
//! same run, watermark demotion, and the engine rules §7 states: gentle vs
//! forced reclaim, the rotated drain order and the landing states. It runs
//! over a `MemorySystem` of its own.
//!
//! * **Exhaustive.** From every seeded root (pages placed in tiers and
//!   climbed up the ladder) every op sequence up to a fixed depth, each
//!   state expanded once per depth: after every step the engine and the
//!   model must agree on each page's frame and [`PageState`], on the order
//!   of every list and on how often each Fig. 4 edge fired; over the whole
//!   pass the engine must fire all 13.
//! * **Random.** 200-op sequences on larger machines.
//! * **Knobs that change results.** Engine only, with weaker properties:
//!   `migrate_batch_size = 2` with faulty ticks keeps every page on exactly
//!   one list; transactional migration keeps `begins == commits + aborts +
//!   open` and Nomad's two properties.
//!
//! `vendor/proptest` does not shrink, so a failure goes through
//! [`minimise`] and is printed as a ready-to-paste `#[test]`.

use mc_fault::{FaultConfig, FaultInjector, FaultPlan};
use mc_mem::{
    AccessKind, FrameId, Instruments, MachineBuilder, MachineDesc, MemError, MemorySystem,
    MigrationMode, Nanos, NodeId, PageKind, PolicyTraits, TickOutcome, TierId, TierKind,
    TieringPolicy, VPage,
};
use mc_obs::ObsConfig;
use multi_clock::PageState::{ActiveRef, ActiveUnref, InactiveRef, InactiveUnref, Promote};
use multi_clock::{Knobs, MultiClock, MultiClockConfig, PageState, WhichList, RECLAIM_BATCH};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

// ---------------------------------------------------------------------
// Fig. 4
// ---------------------------------------------------------------------

/// Fig. 4's 13 edges in number order, as `(id, from, to, trigger)`: the
/// model's table, which DESIGN.md §9 reproduces row for row. States are
/// `PageState` variant names, `-` is the untracked pseudo-state and `*` any
/// tracked state; `A|B` lists alternatives.
#[rustfmt::skip]
const FIG4: [(u8, &str, &str, &str); 13] = [
    (1, "InactiveRef", "InactiveUnref", "inactive scan finds reference bit clear (decay)"),
    (2, "InactiveUnref", "InactiveRef", "referenced observation while inactive-unreferenced"),
    (3, "*", "InactiveUnref", "demotion to a lower tier under watermark pressure"),
    (4, "*", "-", "page unmapped or evicted (tracking ends)"),
    (5, "-", "InactiveUnref", "page mapped (tracking begins at the ladder bottom)"),
    (6, "InactiveRef", "ActiveUnref", "referenced observation activates the page"),
    (7, "ActiveUnref", "ActiveRef", "referenced observation while active-unreferenced"),
    (8, "ActiveRef", "ActiveUnref", "active scan finds reference bit clear (decay)"),
    (9, "ActiveUnref", "InactiveUnref", "deactivation while shrinking the active list"),
    (10, "ActiveRef", "Promote", "referenced observation at the ladder top: promotion candidate"),
    (11, "Promote", "ActiveUnref|ActiveRef", "promote-list ageing or flush back to the active list"),
    (12, "Promote", "Promote", "referenced observation while awaiting promotion (absorbed)"),
    (13, "Promote", "ActiveRef", "promotion migration to the upper tier lands active-referenced"),
];

/// The edges that are rungs of the access ladder: one referenced
/// observation moves a page one step up.
const ACCESS_STEPS: [u8; 5] = [2, 6, 7, 10, 12];

/// The five states of the access ladder, bottom up.
const LADDER: [PageState; 5] = [InactiveUnref, InactiveRef, ActiveUnref, ActiveRef, Promote];

/// The state a table name stands for.
fn named(name: &str) -> Option<PageState> {
    LADDER.into_iter().find(|s| format!("{s:?}") == name)
}

/// The access-ladder edge out of `from`, and where it lands.
fn climb_edge(from: PageState) -> Option<(u8, PageState)> {
    let from = format!("{from:?}");
    let rung = FIG4
        .iter()
        .find(|e| ACCESS_STEPS.contains(&e.0) && e.1 == from)?;
    Some((rung.0, named(rung.2)?))
}

/// The rows between DESIGN.md's `fig4:begin` and `fig4:end` markers, as
/// `[id, from, to, trigger]` cells.
fn design_rows(design: &str) -> Vec<[String; 4]> {
    let begin = design.find("<!-- fig4:begin -->").unwrap_or(design.len());
    let end = design.find("<!-- fig4:end -->").unwrap_or(design.len());
    let table = design.get(begin..end).unwrap_or_default();
    table
        .lines()
        .filter_map(|line| {
            // `\|` is a literal pipe inside a cell.
            let line = line.trim().replace("\\|", "\u{1}");
            let cells = line.trim_matches('|').split('|');
            let cells: Vec<String> = cells.map(|c| c.trim().replace('\u{1}', "|")).collect();
            let row = <[String; 4]>::try_from(cells).ok()?;
            row[0].parse::<u8>().is_ok().then_some(row)
        })
        .collect()
}

/// Where DESIGN.md's Fig. 4 table and [`FIG4`] disagree, one line per row.
fn table_diff(design: &str) -> Vec<String> {
    let ours = FIG4
        .map(|(id, from, to, trigger)| [id.to_string(), from.into(), to.into(), trigger.into()]);
    let theirs = design_rows(design);
    (0..ours.len().max(theirs.len()))
        .filter(|&i| ours.get(i) != theirs.get(i))
        .map(|i| {
            let (a, b) = (ours.get(i), theirs.get(i));
            format!("row {}: model {a:?}, DESIGN.md {b:?}", i + 1)
        })
        .collect()
}

// ---------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------

const INACTIVE: usize = 0;
const ACTIVE: usize = 1;
const PROMOTE: usize = 2;

/// The list a page in `st` lives on.
fn list_of(st: PageState) -> usize {
    match st {
        InactiveUnref | InactiveRef => INACTIVE,
        ActiveUnref | ActiveRef => ACTIVE,
        Promote => PROMOTE,
    }
}

/// The node indices of `tier`, in the topology's order.
fn nodes_of(mem: &MemorySystem, tier: TierId) -> Vec<usize> {
    let nodes = mem.topology().tier(tier).nodes();
    nodes.iter().map(|n| n.index()).collect()
}

/// PFRA's `inactive_list_is_low`: the active list outnumbers the inactive
/// one by more than `sqrt(10 * GB)` to one, counting a tier as at least
/// 1 GB.
fn inactive_is_low(active: usize, inactive: usize, tier_pages: usize) -> bool {
    let gb = ((tier_pages * mc_mem::PAGE_SIZE) >> 30).max(1);
    let ratio = (10.0 * gb as f64).sqrt() as usize;
    inactive * ratio < active
}

/// A naive MULTI-CLOCK (see the module docs).
#[derive(Debug, Clone)]
struct Model {
    scan_batch: usize,
    /// `lists[node][list]`, front = coldest.
    lists: Vec<[Vec<FrameId>; 3]>,
    states: Vec<Option<PageState>>,
    ticks: u64,
    /// Tiers whose reclaim is running (reclaim never re-enters a tier).
    busy: Vec<bool>,
    /// How often each edge fired, by edge id.
    fired: [u64; 14],
}

impl Model {
    fn new(mem: &MemorySystem, cfg: &MultiClockConfig) -> Model {
        Model {
            scan_batch: cfg.scan_batch,
            lists: vec![Default::default(); mem.topology().nodes().len()],
            states: vec![None; mem.total_frames()],
            ticks: 0,
            busy: vec![false; mem.topology().tier_count()],
            fired: [0; 14],
        }
    }

    fn state(&self, f: FrameId) -> Option<PageState> {
        self.states[f.index()]
    }

    /// List `l` of the node of frame `f`.
    fn list(&mut self, mem: &MemorySystem, f: FrameId, l: usize) -> &mut Vec<FrameId> {
        &mut self.lists[mem.frame(f).node().index()][l]
    }

    /// Counts edge `id`, which must match its row of [`FIG4`].
    fn fire(&mut self, id: u8, from: Option<PageState>, to: Option<PageState>) {
        let (_, from_spec, to_spec, _) = FIG4[usize::from(id) - 1];
        let fits = |spec: &str, st: Option<PageState>| {
            spec.split('|').any(|s| match st {
                None => s == "-",
                Some(st) => s == "*" || named(s) == Some(st),
            })
        };
        assert!(
            fits(from_spec, from) && fits(to_spec, to),
            "the model fired edge {id} as {from:?} -> {to:?}; Fig. 4 says {from_spec} -> {to_spec}"
        );
        self.fired[usize::from(id)] += 1;
    }

    /// Moves tracked page `f` to state `to`, at the back of `to`'s list.
    fn set(&mut self, mem: &MemorySystem, f: FrameId, to: PageState) {
        let from = self.state(f).expect("only tracked pages move");
        self.list(mem, f, list_of(from)).retain(|&g| g != f);
        self.list(mem, f, list_of(to)).push(f);
        self.states[f.index()] = Some(to);
    }

    /// One observed access: the page climbs one rung (2, 6, 7, 10, 12),
    /// changing lists only when the rung is on another list.
    fn climb(&mut self, mem: &MemorySystem, f: FrameId) {
        let Some(from) = self.state(f) else { return };
        let (id, to) = climb_edge(from).expect("a rung out of every ladder state");
        if list_of(to) == list_of(from) {
            self.states[f.index()] = Some(to);
        } else {
            self.set(mem, f, to);
        }
        self.fire(id, Some(from), Some(to));
    }

    /// 5: a new mapping enters at the ladder bottom.
    fn track(&mut self, mem: &MemorySystem, f: FrameId) {
        self.states[f.index()] = Some(InactiveUnref);
        self.list(mem, f, INACTIVE).push(f);
        self.fire(5, None, Some(InactiveUnref));
    }

    /// One `kpromoted` run: scan every list, drain every lower tier's
    /// promote list one tier up, then reclaim every tier below its low
    /// watermark.
    fn kpromoted(&mut self, mem: &mut MemorySystem, now: Nanos) {
        self.ticks += 1;
        mem.instruments.set_now(now.as_nanos());
        let tiers = mem.topology().tier_count();
        for t in 0..tiers {
            // Only the top tier's promote list ages (nothing drains it), and
            // first, so a page enqueued during this scan is not aged before
            // the drain has seen it.
            let order: &[usize] = if t == 0 {
                &[PROMOTE, INACTIVE, ACTIVE]
            } else {
                &[INACTIVE, ACTIVE]
            };
            for n in nodes_of(mem, TierId::new(t as u8)) {
                for &l in order {
                    self.scan(mem, n, l);
                }
            }
        }
        for t in 1..tiers {
            self.drain(mem, TierId::new(t as u8));
        }
        for t in 0..tiers {
            let tier = TierId::new(t as u8);
            if mem.tier_under_pressure(tier) {
                self.reclaim(mem, tier, true, None);
            }
        }
    }

    /// CLOCK over the cold end of one list: each examined page rotates to
    /// the tail; a referenced one climbs (a promote page just stays); an
    /// unreferenced one in the list's referenced state decays — 1, 8, and
    /// 11 for the promote list, which ages to the active list.
    fn scan(&mut self, mem: &mut MemorySystem, n: usize, l: usize) {
        let (decays, lands, id) = match l {
            INACTIVE => (InactiveRef, InactiveUnref, 1),
            ACTIVE => (ActiveRef, ActiveUnref, 8),
            _ => (Promote, ActiveUnref, 11),
        };
        let budget = self.lists[n][l].len().min(self.scan_batch);
        for _ in 0..budget {
            let list = &mut self.lists[n][l];
            if list.is_empty() {
                break;
            }
            let f = list.remove(0);
            list.push(f);
            if mem.harvest_referenced(f) {
                if l != PROMOTE {
                    self.climb(mem, f);
                }
            } else if self.state(f) == Some(decays) {
                self.set(mem, f, lands);
                self.fire(id, Some(decays), Some(lands));
            }
        }
    }

    /// Promotes every page on `tier`'s promote lists one tier up (13), or
    /// parks it on its active list when that fails (11). The drain order
    /// rotates by the tick count (DESIGN.md §7), and room is made upstairs
    /// at most once per drain, gently, for the whole candidate set.
    fn drain(&mut self, mem: &mut MemorySystem, tier: TierId) {
        let upper = TierId::new(tier.index() as u8 - 1);
        let nodes = nodes_of(mem, tier);
        let waiting = nodes.iter().map(|&n| self.lists[n][PROMOTE].len()).sum();
        let mut room = Some(waiting);
        for &n in &nodes {
            let mut candidates = std::mem::take(&mut self.lists[n][PROMOTE]);
            if !candidates.is_empty() {
                let shift = self.ticks % candidates.len() as u64;
                candidates.rotate_left(shift as usize);
            }
            for f in candidates {
                self.promote(mem, f, upper, &mut room);
            }
        }
    }

    fn promote(
        &mut self,
        mem: &mut MemorySystem,
        f: FrameId,
        upper: TierId,
        room: &mut Option<usize>,
    ) {
        let mut moved = mem.migrate(f, upper);
        if matches!(moved, Err(MemError::TierFull(_))) {
            if !self.busy[upper.index()] {
                if let Some(want) = room.take() {
                    self.reclaim(mem, upper, false, Some(want));
                }
            }
            moved = mem.migrate(f, upper);
        }
        let active_ref = Some(ActiveRef);
        match moved {
            Ok(new) => {
                self.states[f.index()] = None;
                self.states[new.index()] = active_ref;
                self.list(mem, new, ACTIVE).push(new);
                self.fire(13, Some(Promote), active_ref);
            }
            Err(_) => {
                self.states[f.index()] = active_ref;
                self.list(mem, f, ACTIVE).push(f);
                self.fire(11, Some(Promote), active_ref);
            }
        }
    }

    /// Reclaims `tier` until it is balanced (or has `want` free frames):
    /// its promote lists go first (up, or on the top tier back to active),
    /// then the active:inactive ratio is restored and the inactive lists
    /// shrink from the cold end, demoting or, on the lowest tier, evicting.
    /// Gentle reclaim (`force == false`) only moves scan-certified-cold
    /// pages and stops when there are none; forced reclaim decays one rung
    /// per rotation and deactivates regardless of the ratio.
    fn reclaim(&mut self, mem: &mut MemorySystem, tier: TierId, force: bool, want: Option<usize>) {
        let t = tier.index();
        if self.busy[t] {
            return;
        }
        self.busy[t] = true;
        if t == 0 {
            for n in nodes_of(mem, tier) {
                for f in std::mem::take(&mut self.lists[n][PROMOTE]) {
                    self.states[f.index()] = Some(ActiveRef);
                    self.lists[n][ACTIVE].push(f);
                    self.fire(11, Some(Promote), Some(ActiveRef));
                }
            }
        } else {
            self.drain(mem, tier);
        }
        let mut budget = RECLAIM_BATCH;
        self.rebalance(mem, tier, &mut budget, force);
        let done = |mem: &MemorySystem| match want {
            Some(want) => mem.tier_free(tier) >= want,
            None => mem.tier_balanced(tier),
        };
        while !done(mem) && budget > 0 {
            let progressed = self.shrink_inactive(mem, tier, force)
                || force
                    && nodes_of(mem, tier)
                        .into_iter()
                        .any(|n| self.shrink_active(mem, n, force));
            if !progressed {
                break;
            }
            budget -= 1;
        }
        self.rebalance(mem, tier, &mut budget, force);
        self.busy[t] = false;
    }

    /// Deactivates while PFRA's ratio says the inactive list is low, each
    /// active list examined at most once end to end.
    fn rebalance(&mut self, mem: &mut MemorySystem, tier: TierId, budget: &mut usize, force: bool) {
        let tier_pages = mem.topology().tier(tier).pages();
        for n in nodes_of(mem, tier) {
            let mut visits = self.lists[n][ACTIVE].len();
            while *budget > 0 && visits > 0 {
                let lists = &self.lists[n];
                if !inactive_is_low(lists[ACTIVE].len(), lists[INACTIVE].len(), tier_pages) {
                    break;
                }
                if !self.shrink_active(mem, n, force) {
                    break;
                }
                visits -= 1;
                *budget -= 1;
            }
        }
    }

    /// `shrink_active_list()` on one page: a referenced page climbs, an
    /// active-referenced one decays (8) only under forced reclaim, an
    /// unreferenced one deactivates (9). Whether there was a page.
    fn shrink_active(&mut self, mem: &mut MemorySystem, n: usize, force: bool) -> bool {
        let list = &mut self.lists[n][ACTIVE];
        if list.is_empty() {
            return false;
        }
        let f = list.remove(0);
        list.push(f);
        if mem.harvest_referenced(f) {
            self.climb(mem, f);
        } else if self.state(f) == Some(ActiveRef) {
            if force {
                self.set(mem, f, ActiveUnref);
                self.fire(8, Some(ActiveRef), Some(ActiveUnref));
            }
        } else {
            self.set(mem, f, InactiveUnref);
            self.fire(9, Some(ActiveUnref), Some(InactiveUnref));
        }
        true
    }

    /// `shrink_inactive_list()` on the first node of `tier` with an
    /// inactive page: a referenced page rotates and climbs, an
    /// inactive-referenced one rotates (decaying, 1, only under forced
    /// reclaim), and a cold one is demoted (3) or, on the lowest tier,
    /// evicted (4). Whether there was a page.
    fn shrink_inactive(&mut self, mem: &mut MemorySystem, tier: TierId, force: bool) -> bool {
        let Some(n) = nodes_of(mem, tier)
            .into_iter()
            .find(|&n| !self.lists[n][INACTIVE].is_empty())
        else {
            return false;
        };
        let f = self.lists[n][INACTIVE].remove(0);
        if mem.harvest_referenced(f) {
            self.lists[n][INACTIVE].push(f);
            self.climb(mem, f);
        } else if self.state(f) == Some(InactiveRef) {
            self.lists[n][INACTIVE].push(f);
            if force {
                self.set(mem, f, InactiveUnref);
                self.fire(1, Some(InactiveRef), Some(InactiveUnref));
            }
        } else if tier.index() + 1 == mem.topology().tier_count() {
            if mem.evict(f).is_ok() {
                let st = self.states[f.index()].take();
                self.fire(4, st, None);
            } else {
                self.lists[n][INACTIVE].push(f);
            }
        } else {
            let lower = TierId::new(tier.index() as u8 + 1);
            let mut moved = mem.migrate(f, lower);
            if matches!(moved, Err(MemError::TierFull(_))) {
                self.reclaim(mem, lower, true, None);
                moved = mem.migrate(f, lower);
            }
            match moved {
                Ok(new) => {
                    let st = self.states[f.index()].take();
                    self.states[new.index()] = Some(InactiveUnref);
                    self.list(mem, new, INACTIVE).push(new);
                    self.fire(3, st, Some(InactiveUnref));
                }
                Err(_) => self.lists[n][INACTIVE].push(f),
            }
        }
        true
    }
}

impl TieringPolicy for Model {
    fn name(&self) -> &'static str {
        "reference-model"
    }

    fn traits(&self) -> PolicyTraits {
        PolicyTraits {
            name: "reference model",
            page_access_tracking: "Reference Bit",
            selection_promotion: "Recency+Frequency",
            selection_demotion: "Recency",
            numa_aware: true,
            space_overhead: false,
            generality: "All",
            key_insight: "a transliteration to check the engine against",
        }
    }

    fn on_page_mapped(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        self.track(mem, frame);
    }

    fn on_supervised_access(&mut self, mem: &mut MemorySystem, frame: FrameId, _: AccessKind) {
        self.climb(mem, frame);
    }

    fn tick(&mut self, mem: &mut MemorySystem, now: Nanos) -> TickOutcome {
        self.kpromoted(mem, now);
        TickOutcome::default()
    }

    fn on_pressure(&mut self, mem: &mut MemorySystem, tier: TierId, _: Nanos) -> TickOutcome {
        self.reclaim(mem, tier, true, None);
        TickOutcome::default()
    }

    fn tick_interval(&self) -> Option<Nanos> {
        Some(Nanos::from_secs(1))
    }
}

// ---------------------------------------------------------------------
// Ops, and one world that runs them
// ---------------------------------------------------------------------

/// One step of a sequence; `p` names a virtual page, `t` a tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Fault page `p` straight into tier `t` (`alloc_page_in_tier`) and
    /// climb it `k` rungs with supervised touches: a root in one op.
    Place(u8, u8, u8),
    /// Fault page `p` in the way the engine does: fastest tier first, with
    /// up to three rounds of direct reclaim over every tier.
    Map(u8),
    /// An unsupervised load: sets the PTE reference bit.
    Read(u8),
    /// An unsupervised store: sets the PTE reference bit and the frame's
    /// `DIRTY` flag.
    Write(u8),
    /// A supervised access (`mark_page_accessed()`).
    Touch(u8),
    /// One `kpromoted` run.
    Tick,
    /// Direct reclaim of tier `t`.
    Pressure(u8),
    /// A run under an injector that fails only the `k`-th allocation, after
    /// which the zero-rate injector is back (knob passes only).
    FaultyTick(u8),
}

fn vpage(p: u8) -> VPage {
    VPage::new(u64::from(p))
}

/// An allocation-failure injector whose `k`-th draw fails and whose next
/// sixteen pass.
fn faulty(k: u8) -> FaultInjector {
    let plan = FaultPlan {
        alloc_fail_rate: 0.1,
        ..FaultPlan::default()
    };
    let fails_only_k = |seed| {
        let mut inj = FaultInjector::new(plan.clone(), seed);
        (0..=k + 16).all(|i| inj.on_alloc(0).is_some() == (i == k))
    };
    let seed = (0..).find(|&s| fails_only_k(s)).expect("some seed");
    FaultInjector::new(plan, seed)
}

/// Runs `op` on one side.
fn apply(mem: &mut MemorySystem, policy: &mut impl TieringPolicy, op: Op, now: Nanos) {
    let mapped = |mem: &MemorySystem, p| mem.translate(vpage(p));
    let map = |mem: &mut MemorySystem, policy: &mut dyn TieringPolicy, p, f| {
        mem.map(vpage(p), f).expect("a fresh frame maps");
        policy.on_page_mapped(mem, f);
    };
    match op {
        Op::Place(p, t, k) => {
            if mapped(mem, p).is_none() {
                mem.note_swap_in(vpage(p));
                if let Ok(f) = mem.alloc_page_in_tier(TierId::new(t)) {
                    map(mem, policy, p, f);
                    for _ in 0..k {
                        policy.on_supervised_access(mem, f, AccessKind::Read);
                    }
                }
            }
        }
        Op::Map(p) => {
            if mapped(mem, p).is_none() {
                mem.note_swap_in(vpage(p));
                for round in 0..=3 {
                    if let Ok(f) = mem.alloc_page(PageKind::Anon) {
                        return map(mem, policy, p, f);
                    }
                    if round < 3 {
                        for t in (0..mem.topology().tier_count()).rev() {
                            policy.on_pressure(mem, TierId::new(t as u8), now);
                        }
                    }
                }
            }
        }
        Op::Read(p) | Op::Write(p) => {
            let access = if matches!(op, Op::Write(_)) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            if mapped(mem, p).is_some() {
                mem.access(vpage(p), access).expect("mapped");
            }
        }
        Op::Touch(p) => {
            if let Some(f) = mapped(mem, p) {
                policy.on_supervised_access(mem, f, AccessKind::Read);
            }
        }
        Op::Tick => {
            policy.tick(mem, now);
        }
        Op::Pressure(t) => {
            policy.on_pressure(mem, TierId::new(t), now);
        }
        Op::FaultyTick(k) => {
            let swap = |mem: &mut MemorySystem, to| {
                let injector = mem.instruments.injector();
                *injector.expect("the engine side runs an injector") = to;
            };
            swap(mem, faulty(k));
            policy.tick(mem, now);
            swap(mem, FaultInjector::new(FaultPlan::default(), 0));
        }
    }
}

/// What a sequence is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// The default engine, equal to the model after every step.
    Model,
    /// `migrate_batch_size = 2`: every page stays on exactly one list.
    BatchTwo,
    /// `MigrationMode::Transactional`: the transaction ledger balances, a
    /// store in the copy window aborts, a stored-to page's shadow is gone.
    Transactional,
}

/// A machine, the pages in play and the pass — what a failure needs to
/// be replayed.
#[derive(Clone)]
struct Scope {
    /// The function that builds this scope (printed into failing tests).
    name: &'static str,
    machine: MachineDesc,
    pages: u8,
    pass: Pass,
    /// Pages a scan examines per list.
    scan_batch: usize,
}

fn dram_pm() -> Scope {
    Scope {
        name: "dram_pm",
        machine: MachineDesc::dram_pm(4, 4),
        pages: 4,
        pass: Pass::Model,
        scan_batch: MultiClockConfig::default().scan_batch,
    }
}

fn three_tier() -> Scope {
    Scope {
        name: "three_tier",
        machine: MachineDesc::three_tier(4, 4, 4),
        pages: 3,
        pass: Pass::Model,
        scan_batch: MultiClockConfig::default().scan_batch,
    }
}

fn batch_two() -> Scope {
    Scope {
        name: "batch_two",
        pass: Pass::BatchTwo,
        ..dram_pm()
    }
}

fn transactional() -> Scope {
    Scope {
        name: "transactional",
        pass: Pass::Transactional,
        ..dram_pm()
    }
}

fn large_dram_pm() -> Scope {
    Scope {
        name: "large_dram_pm",
        machine: MachineDesc::dram_pm(16, 32),
        pages: 40,
        pass: Pass::Model,
        scan_batch: MultiClockConfig::default().scan_batch,
    }
}

fn large_three_tier() -> Scope {
    Scope {
        name: "large_three_tier",
        machine: MachineDesc::three_tier(4, 8, 16),
        pages: 24,
        pass: Pass::Model,
        scan_batch: MultiClockConfig::default().scan_batch,
    }
}

fn dual_socket() -> Scope {
    Scope {
        name: "dual_socket",
        machine: MachineDesc::dual_socket(8, 16),
        pages: 40,
        pass: Pass::Model,
        scan_batch: MultiClockConfig::default().scan_batch,
    }
}

/// DRAM, PM, DRAM, PM nodes: tier 0 is nodes 0 and 2, tier 1 is nodes 1
/// and 3, so a tier's node ids are not contiguous and its lists are not
/// one block of the node-indexed lists.
fn interleaved() -> Scope {
    Scope {
        name: "interleaved",
        machine: MachineBuilder::new()
            .node(TierKind::Dram, 8)
            .node(TierKind::Pm, 16)
            .node(TierKind::Dram, 8)
            .node(TierKind::Pm, 16)
            .build(),
        pages: 40,
        pass: Pass::Model,
        scan_batch: MultiClockConfig::default().scan_batch,
    }
}

/// `scan_batch = 2`, so a scan covers only part of a list: the engine's
/// walk-and-splice rotation meets the model's pop/push one mid-list.
fn partial_scan() -> Scope {
    Scope {
        name: "partial_scan",
        scan_batch: 2,
        ..dram_pm()
    }
}

/// [`partial_scan`] on two sockets' longer lists.
fn partial_scan_dual_socket() -> Scope {
    Scope {
        name: "partial_scan_dual_socket",
        scan_batch: 2,
        ..dual_socket()
    }
}

/// [`partial_scan`] on the [`interleaved`] machine.
fn partial_scan_interleaved() -> Scope {
    Scope {
        name: "partial_scan_interleaved",
        scan_batch: 2,
        ..interleaved()
    }
}

/// The engine (and, in [`Pass::Model`], the model) after some ops.
#[derive(Clone)]
struct World {
    pass: Pass,
    pages: u8,
    mem: MemorySystem,
    engine: MultiClock,
    model: Option<(MemorySystem, Model)>,
    ticks: u64,
    /// Transactional pass: the pages stored to inside their copy window,
    /// with the source frame and the destination tier of the transaction.
    doomed: Vec<(u8, FrameId, TierId)>,
}

impl World {
    fn new(scope: &Scope) -> World {
        let cfg = MultiClockConfig {
            knobs: Knobs {
                migrate_batch_size: if scope.pass == Pass::BatchTwo { 2 } else { 1 },
                migration_mode: if scope.pass == Pass::Transactional {
                    MigrationMode::Transactional
                } else {
                    MigrationMode::Sync
                },
                ..Knobs::default()
            },
            scan_batch: scope.scan_batch,
            ..MultiClockConfig::default()
        };
        let mut mem = MemorySystem::new(scope.machine.clone());
        // Fig. 4 tallies are counted at emission, whatever the ring keeps;
        // the zero-rate injector is what `FaultyTick` swaps a plan into.
        let obs = ObsConfig {
            enabled: true,
            ring_capacity: 1,
        };
        let fault = FaultConfig {
            enabled: true,
            ..FaultConfig::none()
        };
        mem.instruments = Instruments::new(&obs, &fault, None);
        let engine = MultiClock::new(cfg.clone(), mem.topology());
        let model = (scope.pass == Pass::Model).then(|| {
            let mem = MemorySystem::new(scope.machine.clone());
            let model = Model::new(&mem, &cfg);
            (mem, model)
        });
        World {
            pass: scope.pass,
            pages: scope.pages,
            mem,
            engine,
            model,
            ticks: 0,
            doomed: Vec::new(),
        }
    }

    /// Runs `op` on every side and checks what the pass promises; returns
    /// how often the engine fired each Fig. 4 edge.
    fn step(&mut self, op: Op) -> Result<[u64; 14], String> {
        if matches!(op, Op::Tick | Op::FaultyTick(_)) {
            self.ticks += 1;
        }
        let now = Nanos::from_secs(self.ticks);
        let hits = *self.mem.recorder().fig4_hits();
        if let Op::Write(p) = op {
            let f = self.mem.translate(vpage(p));
            let txn = self
                .mem
                .migration_txns()
                .iter()
                .find(|t| Some(t.frame) == f);
            self.doomed.extend(txn.map(|t| (p, t.frame, t.dst_tier)));
        }
        let mem = &self.mem;
        self.doomed
            .retain(|&(p, f, _)| mem.translate(vpage(p)) == Some(f) && mem.txn_open(f));
        apply(&mut self.mem, &mut self.engine, op, now);
        let mut fired = [0; 14];
        for (e, n) in fired.iter_mut().enumerate() {
            *n = self.mem.recorder().fig4_hits()[e] - hits[e];
        }
        if let Some((mem, model)) = &mut self.model {
            let before = model.fired;
            apply(mem, model, op, now);
            let by_model: Vec<u64> = (0..14).map(|e| model.fired[e] - before[e]).collect();
            if by_model != fired {
                return Err(format!(
                    "Fig. 4 edges fired: engine {}, model {}",
                    edges(&fired),
                    edges(&by_model)
                ));
            }
        }
        self.engine_is_sound()?;
        if self.model.is_some() {
            self.agrees()?;
        }
        if self.pass == Pass::Transactional {
            self.nomad(op)?;
        }
        Ok(fired)
    }

    /// What every pass checks: the engine's invariants, nothing left in
    /// flight, and every mapped page tracked and on a list (or in a copy
    /// window).
    fn engine_is_sound(&self) -> Result<(), String> {
        let violations = self.engine.check_invariants(&self.mem);
        if !violations.is_empty() {
            return Err(format!("engine invariants: {violations:?}"));
        }
        if self.engine.in_flight() != 0 {
            return Err(format!("{} pages left in flight", self.engine.in_flight()));
        }
        for p in 0..self.pages {
            let Some(f) = self.mem.translate(vpage(p)) else {
                continue;
            };
            let node = self.mem.frame(f).node();
            let listed = self.engine.node_lists(node).contains(f) || self.mem.txn_open(f);
            if self.engine.state_of(f).is_none() || !listed {
                return Err(format!("page {p} on {f} is mapped but not on a list"));
            }
        }
        Ok(())
    }

    /// [`Pass::Model`]: each page's frame and state, every list in order,
    /// and the substrates' counters agree.
    fn agrees(&self) -> Result<(), String> {
        let (mm, model) = self.model.as_ref().expect("a model");
        for p in 0..self.pages {
            let (fe, fm) = (self.mem.translate(vpage(p)), mm.translate(vpage(p)));
            let se = fe.and_then(|f| self.engine.state_of(f));
            let sm = fm.and_then(|f| model.state(f));
            if (fe, se) != (fm, sm) {
                return Err(format!(
                    "page {p}: engine {}, model {}",
                    placed(&self.mem, fe, se),
                    placed(mm, fm, sm)
                ));
            }
        }
        for n in 0..self.mem.topology().nodes().len() {
            let lists = self.engine.node_lists(NodeId::new(n as u8));
            for (l, which) in [WhichList::Inactive, WhichList::Active, WhichList::Promote]
                .into_iter()
                .enumerate()
            {
                let engine: Vec<FrameId> = lists.list(which).iter().collect();
                let ours = &model.lists[n][l];
                if &engine != ours {
                    return Err(format!(
                        "node {n} {which} list: engine {engine:?}, model {ours:?}"
                    ));
                }
            }
        }
        if self.mem.stats() != mm.stats() {
            return Err(format!(
                "substrate counters: engine {:?}, model {:?}",
                self.mem.stats(),
                mm.stats()
            ));
        }
        Ok(())
    }

    /// [`Pass::Transactional`]: `begins == commits + aborts + open`; a
    /// transaction whose source was stored to in its copy window does not
    /// commit at the next settle (commits land only there, so the page
    /// stays out of the destination tier that tick); a stored-to page keeps
    /// no shadow, so none can be served for it.
    fn nomad(&mut self, op: Op) -> Result<(), String> {
        let s = self.mem.stats();
        let open = self.mem.migration_txns().len() as u64;
        if s.txn_begins != s.txn_commits + s.txn_aborts + open {
            return Err(format!(
                "txn ledger: {} begins, {} commits + {} aborts + {open} open",
                s.txn_begins, s.txn_commits, s.txn_aborts
            ));
        }
        if matches!(op, Op::Tick | Op::FaultyTick(_)) {
            for (p, f, dst) in std::mem::take(&mut self.doomed) {
                let tier = self
                    .mem
                    .translate(vpage(p))
                    .map(|g| self.mem.frame(g).tier());
                if tier == Some(dst) {
                    return Err(format!(
                        "page {p} was stored to in the copy window of {f} and committed"
                    ));
                }
            }
        }
        if let Op::Write(p) = op {
            let f = self.mem.translate(vpage(p));
            if f.is_some_and(|f| self.mem.shadow_of(f).is_some()) {
                return Err(format!("page {p} kept its shadow after a store"));
            }
        }
        Ok(())
    }

    /// Everything the next step reads: per page its frame, frame flags
    /// (the reference bit is `PageFlags::ACCESSED`), swap state and
    /// `PageState`; every list in order; the free
    /// lists (as the order allocation would hand frames out); the tick
    /// count modulo the drain rotation's period; and in the transactional
    /// pass the open transactions, the shadows and the stores the checker
    /// is waiting to see aborted.
    fn key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        let mem = &self.mem;
        for p in 0..self.pages {
            let pte = mem.translate(vpage(p));
            let frame = pte.map(|f| (mem.frame(f).flags(), self.engine.state_of(f)));
            (pte, frame, mem.is_swapped(vpage(p))).hash(&mut h);
        }
        for n in 0..mem.topology().nodes().len() {
            let lists = self.engine.node_lists(NodeId::new(n as u8));
            for list in [&lists.inactive, &lists.active, &lists.promote] {
                list.iter().collect::<Vec<_>>().hash(&mut h);
            }
        }
        let mut free = mem.clone();
        for t in 0..mem.topology().tier_count() {
            while let Ok(f) = free.alloc_page_in_tier(TierId::new(t as u8)) {
                f.hash(&mut h);
            }
        }
        // Candidates rotate by `ticks % len` with at most 12 = lcm(1..=4)
        // pages on a list.
        (self.engine.stats().ticks % 12).hash(&mut h);
        if self.pass == Pass::Transactional {
            for t in mem.migration_txns() {
                (t.frame, t.dst_frame, t.doomed).hash(&mut h);
            }
            mem.shadows().collect::<Vec<_>>().hash(&mut h);
            self.doomed.hash(&mut h);
        }
        h.finish()
    }
}

fn placed(mem: &MemorySystem, f: Option<FrameId>, st: Option<PageState>) -> String {
    let st = st.map_or("untracked".into(), |st| format!("{st:?}"));
    match f {
        None => "unmapped".into(),
        Some(f) => format!("{f} in tier {}, {st}", mem.frame(f).tier().index()),
    }
}

/// The edges fired, as `edge×count`.
fn edges(fired: &[u64]) -> String {
    let fired = fired.iter().enumerate().filter(|(_, n)| **n > 0);
    let fired: Vec<String> = fired.map(|(e, n)| format!("{e}×{n}")).collect();
    format!("[{}]", fired.join(" "))
}

// ---------------------------------------------------------------------
// Running, minimising, enumerating
// ---------------------------------------------------------------------

/// [`World::step`], with a panic (an engine `debug_assert!`) as an error.
fn try_step(world: &mut World, op: Op) -> Result<[u64; 14], String> {
    catch_unwind(AssertUnwindSafe(|| world.step(op))).unwrap_or_else(|panic| {
        let why = panic.downcast_ref::<String>().cloned();
        let why = why.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(format!("panicked: {}", why.unwrap_or_default()))
    })
}

/// Runs `ops` on a fresh world: the first failing step, if any.
fn run(scope: &Scope, ops: &[Op]) -> Result<(), String> {
    let mut world = World::new(scope);
    for (i, &op) in ops.iter().enumerate() {
        try_step(&mut world, op).map_err(|why| format!("step {i} ({op:?}): {why}"))?;
    }
    Ok(())
}

/// Delta debugging: drops halves, then quarters, down to single ops,
/// keeping every removal after which `ops` still fails.
fn minimise(scope: &Scope, mut ops: Vec<Op>) -> Vec<Op> {
    let mut chunk = ops.len().div_ceil(2);
    while chunk > 0 {
        let mut start = 0;
        let mut removed = false;
        while start < ops.len() {
            let end = (start + chunk).min(ops.len());
            let candidate = [&ops[..start], &ops[end..]].concat();
            if run(scope, &candidate).is_err() {
                ops = candidate;
                removed = true;
            } else {
                start = end;
            }
        }
        // Single ops are retried until none can go.
        if !(chunk == 1 && removed) {
            chunk /= 2;
        }
    }
    ops
}

/// Minimises failing `ops`, prints them as a test and fails by replaying
/// them.
fn fail(scope: &Scope, ops: Vec<Op>) -> ! {
    let ops = minimise(scope, ops);
    let list: Vec<String> = ops.iter().map(|op| format!("Op::{op:?}")).collect();
    eprintln!(
        "minimised to {} ops; as a test:\n\n#[test]\nfn {}_case() {{\n    replay({}(), &[{}]);\n}}\n",
        ops.len(),
        scope.name,
        scope.name,
        list.join(", ")
    );
    replay(scope.clone(), &ops);
    unreachable!("the minimised ops still fail")
}

/// Replays `ops` (a minimised failure); panics on the first failing step.
fn replay(scope: Scope, ops: &[Op]) {
    if let Err(why) = run(&scope, ops) {
        panic!("{why}");
    }
}

/// Every op of `scope`'s alphabet.
fn alphabet(scope: &Scope) -> Vec<Op> {
    let tiers = scope.machine.topology().tier_count() as u8;
    let per_page = [Op::Map, Op::Read, Op::Write, Op::Touch];
    let mut ops: Vec<Op> = (0..scope.pages)
        .flat_map(|p| per_page.map(|op| op(p)))
        .collect();
    ops.push(Op::Tick);
    ops.extend((0..tiers).map(Op::Pressure));
    if scope.pass != Pass::Model {
        ops.extend((0..2).map(Op::FaultyTick));
    }
    ops
}

/// The seeded roots of `scope`: each page unmapped, or placed in a tier
/// and climbed `rungs` by supervised touches, within each tier's room.
fn roots(scope: &Scope, rungs: &[u8]) -> Vec<Vec<Op>> {
    let mut probe = MemorySystem::new(scope.machine.clone());
    let room: Vec<usize> = (0..probe.topology().tier_count())
        .map(|t| {
            let tier = TierId::new(t as u8);
            std::iter::from_fn(|| probe.alloc_page_in_tier(tier).ok()).count()
        })
        .collect();
    let mut roots = vec![(Vec::new(), vec![0; room.len()])];
    for p in 0..scope.pages {
        let mut next = Vec::new();
        for (ops, used) in roots {
            for t in 0..room.len() {
                if used[t] == room[t] {
                    continue;
                }
                for &k in rungs {
                    let mut ops: Vec<Op> = ops.clone();
                    ops.push(Op::Place(p, t as u8, k));
                    let mut used = used.clone();
                    used[t] += 1;
                    next.push((ops, used));
                }
            }
            next.push((ops, used));
        }
        roots = next;
    }
    roots.into_iter().map(|(ops, _)| ops).collect()
}

/// A failing sequence and why.
struct Failure {
    ops: Vec<Op>,
    why: String,
}

/// The exhaustive pass over one scope.
struct Enumeration {
    alphabet: Vec<Op>,
    /// State key → the most steps still to go it was expanded with.
    visited: HashMap<u64, u8>,
    steps: usize,
    /// Edges the engine fired in some enumerated step.
    covered: [bool; 14],
}

impl Enumeration {
    /// Every sequence of up to `depth` ops from every root with `rungs`.
    fn run(scope: &Scope, rungs: &[u8], depth: u8) -> Result<Enumeration, Failure> {
        let mut e = Enumeration {
            alphabet: alphabet(scope),
            visited: HashMap::new(),
            steps: 0,
            covered: [false; 14],
        };
        for root in roots(scope, rungs) {
            let mut world = World::new(scope);
            for &op in &root {
                let failure = |why| Failure {
                    ops: root.clone(),
                    why,
                };
                try_step(&mut world, op).map_err(failure)?;
            }
            if e.visited.get(&world.key()).is_some_and(|&d| d >= depth) {
                continue;
            }
            e.visited.insert(world.key(), depth);
            let mut path = root.clone();
            e.explore(&world, &mut path, depth)?;
        }
        Ok(e)
    }

    fn explore(&mut self, world: &World, path: &mut Vec<Op>, left: u8) -> Result<(), Failure> {
        if left == 0 {
            return Ok(());
        }
        for i in 0..self.alphabet.len() {
            let op = self.alphabet[i];
            let mut next = world.clone();
            path.push(op);
            let fired = match try_step(&mut next, op) {
                Ok(fired) => fired,
                Err(why) => {
                    return Err(Failure {
                        ops: path.clone(),
                        why,
                    })
                }
            };
            self.steps += 1;
            for (e, n) in fired.iter().enumerate() {
                self.covered[e] |= *n > 0;
            }
            let key = next.key();
            if self.visited.get(&key).is_none_or(|&d| d < left - 1) {
                self.visited.insert(key, left - 1);
                self.explore(&next, path, left - 1)?;
            }
            path.pop();
        }
        Ok(())
    }
}

/// Runs the exhaustive pass, failing with a minimised test.
fn exhaust(scope: Scope, rungs: &[u8], depth: u8) -> Enumeration {
    match Enumeration::run(&scope, rungs, depth) {
        Ok(e) => {
            eprintln!(
                "{}: {} states visited, {} steps",
                scope.name,
                e.visited.len(),
                e.steps
            );
            e
        }
        Err(f) => {
            eprintln!("{}", f.why);
            fail(&scope, f.ops)
        }
    }
}

/// Asserts the engine fired all 13 edges of Fig. 4.
fn assert_every_edge(e: &Enumeration) {
    let missing: Vec<usize> = (1..=13).filter(|&i| !e.covered[i]).collect();
    assert!(
        missing.is_empty(),
        "the engine never fired edges {missing:?}"
    );
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn engine_matches_model_exhaustively_on_dram_pm() {
    assert_every_edge(&exhaust(dram_pm(), &[0, 2, 4], 2));
}

#[test]
fn engine_matches_model_exhaustively_on_three_tier() {
    assert_every_edge(&exhaust(three_tier(), &[0, 1, 2, 3, 4], 2));
}

#[test]
fn engine_matches_model_exhaustively_on_partial_scans() {
    assert_every_edge(&exhaust(partial_scan(), &[0, 2, 4], 2));
}

#[test]
fn batch_of_two_under_faulty_ticks_keeps_every_page_listed() {
    exhaust(batch_two(), &[0, 2, 4], 2);
}

#[test]
fn transactional_migration_keeps_nomads_properties() {
    exhaust(transactional(), &[0, 4], 3);
}

/// 200 random ops on `scope`, model against engine.
fn random_ops(scope: &Scope) -> impl Strategy<Value = Vec<Op>> {
    let (pages, tiers) = (scope.pages, scope.machine.topology().tier_count() as u8);
    let op = prop_oneof![
        (0..pages, 0..tiers, 0..5u8).prop_map(|(p, t, k)| Op::Place(p, t, k)),
        (0..pages).prop_map(Op::Map),
        (0..pages).prop_map(Op::Read),
        (0..pages).prop_map(Op::Write),
        (0..pages).prop_map(Op::Touch),
        Just(Op::Tick),
        (0..tiers).prop_map(Op::Pressure),
    ];
    prop::collection::vec(op, 200)
}

fn check_random(scope: Scope, ops: Vec<Op>) {
    if run(&scope, &ops).is_err() {
        fail(&scope, ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_model_on_random_dram_pm(ops in random_ops(&large_dram_pm())) {
        check_random(large_dram_pm(), ops);
    }

    #[test]
    fn engine_matches_model_on_random_three_tier(ops in random_ops(&large_three_tier())) {
        check_random(large_three_tier(), ops);
    }

    #[test]
    fn engine_matches_model_on_random_dual_socket(ops in random_ops(&dual_socket())) {
        check_random(dual_socket(), ops);
    }

    #[test]
    fn engine_matches_model_on_random_partial_scans(
        ops in random_ops(&partial_scan_dual_socket())
    ) {
        check_random(partial_scan_dual_socket(), ops);
    }

    #[test]
    fn engine_matches_model_on_random_interleaved(ops in random_ops(&interleaved())) {
        check_random(interleaved(), ops);
    }

    #[test]
    fn engine_matches_model_on_random_partial_scans_interleaved(
        ops in random_ops(&partial_scan_interleaved())
    ) {
        check_random(partial_scan_interleaved(), ops);
    }
}

#[test]
fn ids_are_one_to_thirteen_in_order() {
    let ids = FIG4.map(|e| e.0);
    assert_eq!(ids.to_vec(), (1..=13).collect::<Vec<u8>>());
}

#[test]
fn access_ladder_is_five_steps() {
    assert_eq!(ACCESS_STEPS, [2, 6, 7, 10, 12]);
    // The rungs chain: each lands where the next starts.
    for pair in LADDER.windows(2) {
        assert_eq!(climb_edge(pair[0]).map(|(_, to)| to), Some(pair[1]));
    }
}

#[test]
fn state_names_are_pagestate_variants() {
    for (id, from, to, _) in FIG4 {
        for name in from.split('|').chain(to.split('|')) {
            let known = matches!(name, "-" | "*") || named(name).is_some();
            assert!(known, "edge {id}: `{name}` is no state");
        }
    }
}

#[test]
fn on_access_agrees_with_fig4_table() {
    for st in LADDER {
        let (id, to) = climb_edge(st).expect("a rung out of every ladder state");
        assert_eq!(
            st.on_access(),
            to,
            "on_access({st}) disagrees with edge {id}"
        );
    }
}

#[test]
fn design_md_reproduces_the_fig4_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(path).expect("DESIGN.md");
    let diff = table_diff(&design);
    assert!(
        diff.is_empty(),
        "DESIGN.md §9 vs the model:\n{}",
        diff.join("\n")
    );
}

#[test]
fn design_table_mismatch_is_reported() {
    let design = "x\n<!-- fig4:begin -->\n| 1 | ActiveRef | Promote | wrong |\n<!-- fig4:end -->\n";
    let diff = table_diff(design);
    assert!(diff[0].starts_with("row 1: "), "{diff:?}");
    assert_eq!(diff.len(), 13, "the twelve absent rows too: {diff:?}");
}
