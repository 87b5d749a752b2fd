//! Chaos property tests (the fault-injection counterpart of
//! `state_machine.rs`): random fault plans crossed with random access
//! traces must never corrupt the Fig. 4 structures, leak an in-flight
//! page, lose a mapped page, or map two virtual pages to one frame —
//! no matter which migrations and allocations the injector fails.

use mc_fault::{FaultConfig, FaultPlan, OfflineWindow, RetryPolicy};
use mc_mem::{
    AccessKind, FrameId, Instruments, MachineDesc, MemorySystem, MigrationMode, Nanos, PageKind,
    TierId, TieringPolicy, VPage,
};
use mc_obs::ObsConfig;
use multi_clock::{MultiClock, MultiClockConfig};
use proptest::prelude::*;
use std::collections::HashSet;

/// One step of the random trace (mirrors `state_machine.rs`).
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
        Just(Op::Tick),
        (0usize..2).prop_map(Op::Pressure),
    ]
}

/// A random fault plan: independent failure rates plus up to two tier-0
/// offline windows inside the trace's virtual-time span.
fn plan() -> impl Strategy<Value = FaultPlan> {
    (
        0.0f64..0.5,
        0.0f64..0.3,
        0.0f64..0.3,
        prop::collection::vec((1u64..200, 1u64..60), 0..2),
    )
        .prop_map(|(migrate, lock, alloc, windows)| FaultPlan {
            migrate_fail_rate: migrate,
            migrate_lock_rate: lock,
            alloc_fail_rate: alloc,
            offline: windows
                .into_iter()
                .map(|(from_s, len_s)| OfflineWindow {
                    tier: 0,
                    from_ns: Nanos::from_secs(from_s).as_nanos(),
                    until_ns: Nanos::from_secs(from_s + len_s).as_nanos(),
                })
                .collect(),
            stalls: Vec::new(),
        })
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

/// The shared trace interpreter: drives one random trace against one
/// random fault plan in the given migration mode, checking the full
/// invariant set after every step and draining at the end. In
/// transactional mode the same injected failures land *inside the copy
/// window* (migrations fail at settle time, after the transaction
/// opened), so the abort -> retry -> give-up ladder is exercised under
/// exactly the fault plans the synchronous path faces.
fn run_chaos(seed: u64, fault_plan: FaultPlan, ops: Vec<Op>, mode: MigrationMode) {
    let mut mem = MemorySystem::new(MachineDesc::dram_pm(24, 48));
    let fault = FaultConfig {
        enabled: true,
        seed,
        plan: fault_plan,
    };
    mem.instruments = Instruments::new(&ObsConfig::off(), &fault, None);
    let cfg = MultiClockConfig {
        retry: RetryPolicy::backoff(),
        migration_mode: mode,
        ..Default::default()
    };
    let mut mc = MultiClock::new(cfg, mem.topology());
    let mut live: Vec<VPage> = Vec::new();
    let mut next_vp = 0u64;
    let mut ticks = 0u64;

    for op in ops {
        match &op {
            Op::Map => {
                // Allocation may fail by injection; the engine treats
                // that as a skipped fault, so the trace just moves on.
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
    }

    // Drain: run well past every offline window (they end by t=260 s)
    // with the injector still rolling failures; paused promotion
    // episodes must resolve — promoted, retried or degraded — without
    // ever losing a page.
    for extra in 1..=40u64 {
        mc.tick(&mut mem, Nanos::from_secs(300 + extra));
        prop_assert_eq!(mc.in_flight(), 0);
    }
    prop_assert!(mc.check_invariants(&mem).is_empty());
    assert_conserved(&mem, &live);
    let s = mc.stats();
    prop_assert!(s.promote_gave_ups <= s.promote_fallbacks);
    if mode == MigrationMode::Transactional {
        // The transaction ledger must balance once the drain settled
        // every copy window.
        let ms = mem.stats();
        prop_assert!(mem.migration_txns().is_empty());
        prop_assert_eq!(ms.txn_begins, ms.txn_commits + ms.txn_aborts);
    } else {
        prop_assert_eq!(mem.stats().txn_begins, 0, "sync mode opened a txn");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invariants_survive_arbitrary_fault_sequences(
        seed in any::<u64>(),
        fault_plan in plan(),
        ops in prop::collection::vec(op(), 1..140),
    ) {
        run_chaos(seed, fault_plan, ops, MigrationMode::Sync);
    }

    /// The same arbitrary fault plans with every promotion routed through
    /// a copy window: injected failures now fire at settle time — inside
    /// an open transaction — and must abort it into the retry/backoff
    /// path without breaking any invariant.
    #[test]
    fn invariants_survive_faults_inside_the_copy_window(
        seed in any::<u64>(),
        fault_plan in plan(),
        ops in prop::collection::vec(op(), 1..140),
    ) {
        run_chaos(seed, fault_plan, ops, MigrationMode::Transactional);
    }
}
