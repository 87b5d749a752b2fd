//! Property tests for the per-node scanner shards: across random traces
//! on a dual-socket machine (two DRAM nodes + two PM nodes, so two shards
//! per tier), a tracked page must always sit on *exactly one* shard —
//! never lost off every list, never double-listed across shards — and the
//! full invariant suite (including the per-shard assignment invariant)
//! must hold after every step. Batched promotion is crossed in so
//! mid-drain requeues are exercised too.

use mc_mem::{
    AccessKind, FrameId, MachineDesc, MemorySystem, Nanos, PageKind, TierId, TieringPolicy, VPage,
};
use multi_clock::{Knobs, MultiClock, MultiClockConfig};
use proptest::prelude::*;

/// One step of the random trace (mirrors `state_machine.rs`).
#[derive(Debug, Clone)]
enum Op {
    Map,
    Unmap(usize),
    Access { index: usize, write: bool },
    Tick,
    Pressure(usize),
    Mlock(usize),
    Munlock(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Map),
        Just(Op::Map),
        (0usize..4096).prop_map(Op::Unmap),
        (0usize..4096, any::<bool>()).prop_map(|(index, write)| Op::Access { index, write }),
        Just(Op::Tick),
        (0usize..2).prop_map(Op::Pressure),
        (0usize..4096).prop_map(Op::Mlock),
        (0usize..4096).prop_map(Op::Munlock),
    ]
}

/// The number of shards (across every tier) holding `frame`.
fn shards_holding(mem: &MemorySystem, mc: &MultiClock, frame: FrameId) -> usize {
    (0..mem.topology().tier_count())
        .map(|t| {
            mc.tier_lists(TierId::new(t as u8))
                .shards()
                .filter(|lists| lists.contains(frame))
                .count()
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_scanner_never_loses_or_double_lists_a_page(
        migrate_batch_size in 1usize..=4,
        ops in prop::collection::vec(op(), 1..120),
    ) {
        let mut mem = MemorySystem::new(MachineDesc::dual_socket(12, 24));
        let cfg = MultiClockConfig {
            knobs: Knobs {
                migrate_batch_size,
                ..Knobs::default()
            },
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
                        let kind = if *write { AccessKind::Write } else { AccessKind::Read };
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
                Op::Mlock(index) => {
                    if !live.is_empty() {
                        let vp = live[index % live.len()];
                        let frame = mem.translate(vp).expect("live page translates");
                        mc.mlock(&mut mem, frame);
                    }
                }
                Op::Munlock(index) => {
                    if !live.is_empty() {
                        let vp = live[index % live.len()];
                        let frame = mem.translate(vp).expect("live page translates");
                        mc.munlock(&mut mem, frame);
                    }
                }
            }

            let violations = mc.check_invariants(&mem);
            prop_assert!(
                violations.is_empty(),
                "invariants broken after {:?} (batch={}): {:?}",
                op,
                migrate_batch_size,
                violations
            );
            prop_assert_eq!(mc.in_flight(), 0, "in-flight page leaked after {:?}", op);
            // Exactly-one-shard: the core sharding guarantee.
            for vp in &live {
                let frame = mem.translate(*vp).expect("live page translates");
                let n = shards_holding(&mem, &mc, frame);
                prop_assert_eq!(
                    n,
                    1,
                    "page {:?} (frame {:?}) is on {} shards after {:?}",
                    vp,
                    frame,
                    n,
                    op
                );
            }
        }
    }
}

#[test]
fn one_shard_per_node_matches_node_count() {
    // dual_socket: a DRAM tier and a PM tier of two nodes each, so two
    // shards per tier; dram_pm: one node per tier, one shard.
    for (machine, want) in [
        (MachineDesc::dual_socket(12, 24), 2usize),
        (MachineDesc::dram_pm(24, 48), 1),
    ] {
        let mem = MemorySystem::new(machine);
        let mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        for t in 0..mem.topology().tier_count() {
            assert_eq!(
                mc.tier_lists(TierId::new(t as u8)).shard_count(),
                want,
                "tier {t}"
            );
        }
    }
}
