//! The mechanics the baselines share. The paper compares *page selection*
//! under the same migrate / exchange / reclaim steps (§II-D), so those
//! steps live here once, and each policy passes in only what makes it
//! different: which list victims come from, which victims to spare, and
//! where a demoted page goes.
//!
//! * [`Rings`] — one [`IndexedList`] per tier, front = next to examine.
//! * [`exchange`] — promotion one tier up that, when the upper tier is
//!   full, first demotes one victim out of it (Nimble's two-sided exchange).
//! * [`reclaim`] — the watermark loop: pop, spare or demote-or-evict.
//! * [`relieve_pressure`] — the tick-tail sweep over every tier under
//!   pressure.

use mc_clock::IndexedList;
use mc_mem::{
    FrameId, MemError, MemorySystem, Nanos, TickOutcome, TierId, TieringPolicy, Topology,
};

/// Most pages one `on_pressure` call examines: MULTI-CLOCK's budget.
pub(crate) use multi_clock::RECLAIM_BATCH;

/// Most victims one exchange examines to free a single upper-tier frame.
const DEMOTE_ATTEMPTS: usize = 64;

/// One list of tracked frames per tier.
#[derive(Debug)]
pub(crate) struct Rings(Vec<IndexedList>);

impl Rings {
    /// Empty lists, one per tier of `topology`.
    pub(crate) fn new(topology: &Topology) -> Self {
        Rings(
            (0..topology.tier_count())
                .map(|_| IndexedList::new())
                .collect(),
        )
    }

    /// The list of one tier.
    pub(crate) fn tier(&self, tier: TierId) -> &IndexedList {
        &self.0[tier.index()]
    }

    /// Every tracked frame, tier by tier, front first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.0.iter().flat_map(IndexedList::iter)
    }

    /// Appends `frame` to the back of its tier's list.
    pub(crate) fn track(&mut self, tier: TierId, frame: FrameId) {
        self.0[tier.index()].push_back(frame);
    }

    /// Removes `frame` from its tier's list; returns whether it was there.
    pub(crate) fn untrack(&mut self, tier: TierId, frame: FrameId) -> bool {
        self.0[tier.index()].remove(frame)
    }

    /// Follows a migration: `old` leaves `src`, `new` joins the back of `dst`.
    pub(crate) fn moved(&mut self, old: FrameId, new: FrameId, src: TierId, dst: TierId) {
        self.untrack(src, old);
        self.track(dst, new);
    }

    /// Takes the front of one tier's list.
    pub(crate) fn pop(&mut self, tier: TierId) -> Option<FrameId> {
        self.0[tier.index()].pop_front()
    }

    /// Moves the front of one tier's list to the back and returns it: the
    /// round-robin step.
    pub(crate) fn rotate(&mut self, tier: TierId) -> Option<FrameId> {
        let frame = self.pop(tier)?;
        self.track(tier, frame);
        Some(frame)
    }

    /// Rotates at most `limit` frames of `tier` front to back, stopping
    /// after the first that `pick` accepts, and returns that one
    /// ([`IndexedList::rotate_until`]).
    pub(crate) fn rotate_until(
        &mut self,
        tier: TierId,
        limit: usize,
        pick: impl FnMut(FrameId) -> bool,
    ) -> Option<FrameId> {
        self.0[tier.index()].rotate_until(limit, pick)
    }

    /// Poisons the PTEs of the next `batch` frames, round robin, each tier
    /// taking a share proportional to its length, and passes every frame
    /// sampled to `visit`. Returns (PTEs poisoned, frames tracked).
    pub(crate) fn poison(
        &mut self,
        mem: &mut MemorySystem,
        batch: usize,
        mut visit: impl FnMut(FrameId),
    ) -> (u64, usize) {
        let total: usize = self.0.iter().map(IndexedList::len).sum();
        let mut poisoned = 0;
        if total == 0 {
            return (poisoned, total);
        }
        for ring in &mut self.0 {
            let share = (batch * ring.len()).div_ceil(total);
            ring.rotate_until(share, |frame| {
                visit(frame);
                if let Some(vpage) = mem.frame(frame).vpage() {
                    mem.poison(vpage);
                    poisoned += 1;
                }
                false
            });
        }
        (poisoned, total)
    }
}

/// Promotes `hot`, frames of `tier`, one tier up. The list is first
/// rotated by `ticks`, for deterministic fairness when room is scarcer
/// than candidates (the same rotation as MULTI-CLOCK's promote phase).
/// When the upper tier is full, one victim of `victims` is demoted out of
/// it ([`demote_one`] with `spare`) and the promotion is retried once.
/// `land(victims, old, new, tier, upper)` records each promotion: a policy
/// whose candidates sit on the victims' lists passes [`Rings::moved`].
/// Returns the pages promoted.
pub(crate) fn exchange(
    mem: &mut MemorySystem,
    tier: TierId,
    mut hot: Vec<FrameId>,
    ticks: u64,
    victims: &mut Rings,
    mut spare: impl FnMut(&mut MemorySystem, FrameId) -> bool,
    mut land: impl FnMut(&mut Rings, FrameId, FrameId, TierId, TierId),
) -> u64 {
    let Some(upper) = tier.upper() else {
        return 0;
    };
    if !hot.is_empty() {
        let shift = ticks as usize % hot.len();
        hot.rotate_left(shift);
    }
    let mut promoted = 0;
    for frame in hot {
        if mem.frame(frame).tier() != tier {
            continue;
        }
        let moved = match mem.migrate(frame, upper) {
            Err(MemError::TierFull(_)) => {
                if demote_one(mem, victims, upper, &mut spare).is_none() {
                    continue;
                }
                mem.migrate(frame, upper)
            }
            moved => moved,
        };
        if let Ok(new) = moved {
            land(victims, frame, new, tier, upper);
            promoted += 1;
        }
    }
    promoted
}

/// Demotes one page of `tier` one tier down: pops `victims`' list of the
/// tier, puts back whatever `spare` keeps or cannot move, and gives up
/// after [`DEMOTE_ATTEMPTS`] pages. The demoted page joins the back of
/// the lower tier's list; its new frame is returned.
fn demote_one(
    mem: &mut MemorySystem,
    victims: &mut Rings,
    tier: TierId,
    mut spare: impl FnMut(&mut MemorySystem, FrameId) -> bool,
) -> Option<FrameId> {
    let lower = tier.lower(mem.topology().tier_count())?;
    for _ in 0..DEMOTE_ATTEMPTS {
        let victim = victims.pop(tier)?;
        if spare(mem, victim) {
            victims.track(tier, victim);
            continue;
        }
        match mem.migrate(victim, lower) {
            Ok(new) => {
                victims.track(lower, new);
                return Some(new);
            }
            Err(_) => victims.track(tier, victim),
        }
    }
    None
}

/// Reclaims `tier` until it is balanced or [`RECLAIM_BATCH`] pages have
/// been examined. Each step counts a page, then pops the front of
/// `victims`' list (an empty list ends the loop, still counted). A page
/// `spare` keeps — it is also told the budget left — or that cannot move
/// goes back; any other is [pushed down](push_down) into `lower`.
pub(crate) fn reclaim(
    mem: &mut MemorySystem,
    victims: &mut Rings,
    tier: TierId,
    lower: Option<TierId>,
    mut spare: impl FnMut(&mut MemorySystem, FrameId, usize) -> bool,
) -> TickOutcome {
    let mut out = TickOutcome::default();
    let mut budget = RECLAIM_BATCH;
    while !mem.tier_balanced(tier) && budget > 0 {
        budget -= 1;
        out.pages_scanned += 1;
        let Some(frame) = victims.pop(tier) else {
            break;
        };
        if spare(mem, frame, budget) {
            victims.track(tier, frame);
            continue;
        }
        if push_down(mem, victims, frame, tier, lower) {
            out.demoted += 1;
        }
    }
    out
}

/// Moves `frame`, just popped from `victims`' list of `tier`, into
/// `lower` (joining the back of its list), or evicts it when there is no
/// lower tier or the demotion fails; a page that can go neither way goes
/// back. Returns whether the page was demoted.
pub(crate) fn push_down(
    mem: &mut MemorySystem,
    victims: &mut Rings,
    frame: FrameId,
    tier: TierId,
    lower: Option<TierId>,
) -> bool {
    if let Some(lower) = lower {
        if let Ok(new) = mem.migrate(frame, lower) {
            victims.track(lower, new);
            return true;
        }
    }
    if mem.evict(frame).is_err() {
        victims.track(tier, frame);
    }
    false
}

/// The tick tail: `policy.on_pressure` on every tier under pressure, top
/// tier first, merged into one outcome.
pub(crate) fn relieve_pressure<P: TieringPolicy + ?Sized>(
    policy: &mut P,
    mem: &mut MemorySystem,
    now: Nanos,
) -> TickOutcome {
    let mut out = TickOutcome::default();
    for t in 0..mem.topology().tier_count() {
        let tier = TierId::new(t as u8);
        if mem.tier_under_pressure(tier) {
            out.merge(&policy.on_pressure(mem, tier, now));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_mem::{MachineDesc, PageKind, VPage};

    /// A machine whose top tier is full; `track` says whether the rings
    /// know its pages.
    fn full_top(track: bool) -> (MemorySystem, Rings) {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 64));
        let mut rings = Rings::new(mem.topology());
        let mut v = 0;
        while let Ok(f) = mem.alloc_page_in_tier(PageKind::Anon, TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            if track {
                rings.track(TierId::TOP, f);
            }
            v += 1;
        }
        assert!(!mem.tier_balanced(TierId::TOP));
        (mem, rings)
    }

    #[test]
    fn reclaim_counts_the_pop_that_finds_the_list_empty() {
        let (mut mem, mut rings) = full_top(false);
        let out = reclaim(&mut mem, &mut rings, TierId::TOP, None, |_, _, _| false);
        assert_eq!((out.pages_scanned, out.demoted), (1, 0));
    }

    #[test]
    fn reclaim_tells_spare_the_budget_left() {
        let (mut mem, mut rings) = full_top(true);
        let tracked = rings.tier(TierId::TOP).len();
        let mut left = Vec::new();
        let out = reclaim(&mut mem, &mut rings, TierId::TOP, None, |_, _, l| {
            left.push(l);
            true
        });
        assert_eq!(out.pages_scanned, RECLAIM_BATCH as u64);
        assert_eq!(left.first(), Some(&(RECLAIM_BATCH - 1)));
        assert_eq!(left.last(), Some(&0));
        assert_eq!(
            rings.tier(TierId::TOP).len(),
            tracked,
            "spared pages go back"
        );
    }
}
