//! Property tests for the per-node lists: across random traces on a
//! dual-socket machine (two DRAM nodes + two PM nodes, so two list sets
//! per tier), a tracked page must always sit on *exactly one* node's
//! lists — never lost off every list, never double-listed across nodes —
//! and the full invariant suite (including "listed under the node its
//! frame reports") must hold after every step. Batched promotion is
//! crossed in so mid-drain requeues are exercised too.

mod trace;

use mc_mem::{
    AccessKind, FrameId, MachineDesc, MemorySystem, Nanos, NodeId, PageKind, TierId, TieringPolicy,
    VPage,
};
use multi_clock::{Knobs, MultiClock, MultiClockConfig};
use proptest::prelude::*;
use trace::{assert_conserved, resident};

/// One step of the random trace (mirrors `state_machine.rs`).
#[derive(Debug, Clone)]
enum Op {
    Map,
    Access { index: usize, write: bool },
    Tick,
    Pressure(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Map),
        Just(Op::Map),
        (0usize..4096, any::<bool>()).prop_map(|(index, write)| Op::Access { index, write }),
        Just(Op::Tick),
        (0usize..2).prop_map(Op::Pressure),
    ]
}

/// The number of nodes whose lists hold `frame`.
fn nodes_holding(mem: &MemorySystem, mc: &MultiClock, frame: FrameId) -> usize {
    (0..mem.topology().nodes().len())
        .filter(|&n| mc.node_lists(NodeId::new(n as u8)).contains(frame))
        .count()
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
                Op::Access { index, write } => {
                    let vp = live.get(index % live.len().max(1)).copied();
                    if let Some(vp) = vp.filter(|&vp| resident(&mut mem, &mut mc, vp)) {
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
            assert_conserved(&mem, &live);
            // Exactly one node's lists: the per-node guarantee.
            for vp in &live {
                let Some(frame) = mem.translate(*vp) else {
                    continue; // evicted: on swap, on no list
                };
                let n = nodes_holding(&mem, &mc, frame);
                prop_assert_eq!(
                    n,
                    1,
                    "page {:?} (frame {:?}) is on {} nodes' lists after {:?}",
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
    // list sets per tier; dram_pm: one node per tier, one list set. Every
    // node has its own lists, and a page joins those of its frame's node.
    for (machine, per_tier) in [
        (MachineDesc::dual_socket(12, 24), 2usize),
        (MachineDesc::dram_pm(24, 48), 1),
    ] {
        let mut mem = MemorySystem::new(machine);
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        let mut v = 0u64;
        for t in 0..mem.topology().tier_count() {
            let tier = TierId::new(t as u8);
            assert_eq!(mem.topology().tier(tier).nodes().len(), per_tier);
            for _ in 0..2 * per_tier {
                let frame = mem.alloc_page_in_tier(tier).expect("room");
                mem.map(VPage::new(v), frame).expect("fresh vpage maps");
                v += 1;
                mc.on_page_mapped(&mut mem, frame);
                let node = mem.frame(frame).node();
                assert!(mc.node_lists(node).inactive.contains(frame));
                assert_eq!(nodes_holding(&mem, &mc, frame), 1, "{frame} in tier {t}");
            }
        }
        for n in 0..mem.topology().nodes().len() {
            let lists = mc.node_lists(NodeId::new(n as u8));
            assert!(!lists.inactive.is_empty(), "node {n} holds pages");
        }
        mc.assert_invariants(&mem);
    }
}
