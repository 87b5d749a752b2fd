//! Property tests for transactional migration (the Nomad-style path):
//! random access traces crossed with random abort rates must never lose
//! a page, double-map a frame, leak a transaction,
//! retain a shadow for a dirty page, or exceed the retry budget.
//!
//! The structural side (shadow entries only for clean mapped pages, dst
//! reservations unmapped, retry attempts below the policy's cap) is
//! invariant 8 of `MultiClock::check_invariants`, re-checked after every
//! step; the accounting side (every begun transaction commits, aborts,
//! or is still in its copy window) is asserted directly against
//! `MemStats`.

use mc_fault::{FaultConfig, FaultPlan, RetryPolicy};
use mc_mem::{
    AccessKind, FrameId, Instruments, MachineDesc, MemorySystem, MigrationMode, Nanos, PageFlags,
    PageKind, TierId, TieringPolicy, VPage,
};
use mc_obs::ObsConfig;
use multi_clock::{MultiClock, MultiClockConfig};
use proptest::prelude::*;
use std::collections::HashSet;

/// One step of the random trace (mirrors `chaos.rs`).
#[derive(Debug, Clone)]
enum Op {
    Map,
    Unmap(usize),
    Access { index: usize, write: bool },
    Tick,
    Pressure(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Map),
        Just(Op::Map),
        (0usize..4096).prop_map(Op::Unmap),
        (0usize..4096, any::<bool>()).prop_map(|(index, write)| Op::Access { index, write }),
        // Ticks are weighted up versus chaos.rs: transactions only settle
        // at the next tick, so traces need plenty of tick boundaries for
        // copy windows to open *and* close.
        Just(Op::Tick),
        Just(Op::Tick),
        (0usize..2).prop_map(Op::Pressure),
    ]
}

/// Every live virtual page still translates, to a distinct frame.
fn assert_conserved(mem: &MemorySystem, live: &[VPage]) {
    let mut frames: HashSet<FrameId> = HashSet::new();
    for vp in live {
        let frame = mem.translate(*vp);
        assert!(frame.is_some(), "live page {vp:?} lost its mapping");
        assert!(
            frames.insert(frame.unwrap()),
            "two virtual pages share frame {:?}",
            frame.unwrap()
        );
    }
}

/// Begun transactions are conserved: committed, aborted, or still open.
fn assert_txn_accounted(mem: &MemorySystem) {
    let s = mem.stats();
    assert_eq!(
        s.txn_begins,
        s.txn_commits + s.txn_aborts + mem.migration_txns().len() as u64,
        "a migration transaction vanished without commit or abort"
    );
}

/// Shadow copies exist only for clean, still-mapped upper-tier pages.
/// (Also invariant 8; asserted directly so a violation names the frame.)
fn assert_shadows_clean(mem: &MemorySystem) {
    for (live, copy) in mem.shadow_pages().iter() {
        let fr = mem.frame(live);
        assert!(
            fr.vpage().is_some(),
            "shadow key {live:?} is not a mapped page"
        );
        assert!(
            !fr.flags().contains(PageFlags::DIRTY),
            "shadow retained for dirty page {live:?}"
        );
        assert!(
            mem.frame(copy).vpage().is_none(),
            "shadow copy {copy:?} is mapped"
        );
    }
}

fn run_trace(ops: Vec<Op>, fault_plan: Option<(FaultPlan, u64)>, retry: RetryPolicy) {
    let mut mem = MemorySystem::new(MachineDesc::dram_pm(24, 48));
    if let Some((plan, seed)) = fault_plan {
        let fault = FaultConfig {
            enabled: true,
            seed,
            plan,
        };
        mem.instruments = Instruments::new(&ObsConfig::off(), &fault, None);
    }
    let cfg = MultiClockConfig {
        retry,
        migration_mode: MigrationMode::Transactional,
        ..Default::default()
    };
    let mut mc = MultiClock::new(cfg, mem.topology());
    let mut live: Vec<VPage> = Vec::new();
    let mut next_vp = 0u64;
    let mut ticks = 0u64;

    for op in ops {
        match &op {
            Op::Map => {
                if let Ok(frame) = mem.alloc_page(PageKind::Anon) {
                    let vp = VPage::new(next_vp);
                    next_vp += 1;
                    mem.map(vp, frame).expect("fresh vpage maps");
                    mc.on_page_mapped(&mut mem, frame);
                    live.push(vp);
                }
            }
            Op::Unmap(index) => {
                if !live.is_empty() {
                    let vp = live.swap_remove(index % live.len());
                    let frame = mem.unmap(vp).expect("live page unmaps");
                    mc.on_page_unmapped(&mut mem, frame);
                    mem.free_page(frame).expect("unmapped page frees");
                }
            }
            Op::Access { index, write } => {
                if !live.is_empty() {
                    let vp = live[index % live.len()];
                    let kind = if *write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    mem.access(vp, kind).expect("live page is accessible");
                    let frame = mem.translate(vp).expect("live page translates");
                    mc.on_supervised_access(&mut mem, frame, kind);
                }
            }
            Op::Tick => {
                ticks += 1;
                mc.tick(&mut mem, Nanos::from_secs(ticks));
            }
            Op::Pressure(t) => {
                mc.on_pressure(&mut mem, TierId::new(*t as u8), Nanos::from_secs(ticks));
            }
        }
        let violations = mc.check_invariants(&mem);
        prop_assert!(
            violations.is_empty(),
            "invariants broken after {:?}: {:?}",
            op,
            violations
        );
        prop_assert_eq!(mc.in_flight(), 0, "in-flight page leaked after {:?}", op);
        assert_conserved(&mem, &live);
        assert_txn_accounted(&mem);
        assert_shadows_clean(&mem);
    }

    // Drain: keep ticking so every open copy window settles and every
    // backoff expires; afterwards no transaction may remain open.
    for extra in 1..=40u64 {
        mc.tick(&mut mem, Nanos::from_secs(300 + extra));
        prop_assert_eq!(mc.in_flight(), 0);
    }
    prop_assert!(mc.check_invariants(&mem).is_empty());
    assert_conserved(&mem, &live);
    assert_shadows_clean(&mem);
    prop_assert!(
        mem.migration_txns().is_empty(),
        "a transaction survived 40 drain ticks"
    );
    let s = mem.stats();
    prop_assert_eq!(s.txn_begins, s.txn_commits + s.txn_aborts);
    let p = mc.stats();
    prop_assert!(p.promote_gave_ups <= p.promote_fallbacks);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Fault-free transactional runs: the only aborts are organic dirty
    /// writes during a copy window.
    #[test]
    fn clean_traces_conserve_pages_and_txns(
        ops in prop::collection::vec(op(), 1..140),
    ) {
        run_trace(ops, None, RetryPolicy::backoff());
    }

    /// Random abort rates: injected failures land at `resolve` time —
    /// inside the copy window — and must take the same abort/retry path
    /// as a dirty write.
    #[test]
    fn injected_aborts_conserve_pages_and_txns(
        seed in any::<u64>(),
        migrate_rate in 0.0f64..0.6,
        lock_rate in 0.0f64..0.4,
        ops in prop::collection::vec(op(), 1..140),
    ) {
        let plan = FaultPlan {
            migrate_fail_rate: migrate_rate,
            migrate_lock_rate: lock_rate,
            alloc_fail_rate: 0.0,
            offline: Vec::new(),
            stalls: Vec::new(),
        };
        run_trace(ops, Some((plan, seed)), RetryPolicy::backoff());
    }

    /// A single-attempt retry policy must give up cleanly (fallback to
    /// the active list) rather than loop or leak, and the retry-bound
    /// invariant (attempts < max) must hold after every step.
    #[test]
    fn immediate_retry_policy_bounds_attempts(
        seed in any::<u64>(),
        ops in prop::collection::vec(op(), 1..100),
    ) {
        let plan = FaultPlan {
            migrate_fail_rate: 0.3,
            migrate_lock_rate: 0.2,
            alloc_fail_rate: 0.0,
            offline: Vec::new(),
            stalls: Vec::new(),
        };
        run_trace(ops, Some((plan, seed)), RetryPolicy::immediate());
    }
}
