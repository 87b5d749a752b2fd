//! Property tests for per-access cost accounting.
//!
//! The machines under test are the paper's two-socket testbed
//! ([`MachineDesc::dual_socket`]: two DRAM and two PM nodes, two per tier)
//! and the N-tier extension ([`MachineDesc::three_tier`]: HBM, DRAM, PM).
//! The property: **every access is charged the device timing of the node
//! that owns the frame**, read or write as the access is, and a stream
//! pays that node's bandwidth — computed independently here from the
//! machine description's nodes, while the substrate charges from its
//! per-tier table — across random placement, migration and access traces.

use mc_mem::{AccessKind, MachineDesc, MemorySystem, Nanos, PageKind, TierId, TierLatency, VPage};
use proptest::prelude::*;

/// One of the two machines, sized by the strategy's page counts.
fn machine(three_tier: bool, fast: usize, pm: usize) -> MachineDesc {
    if three_tier {
        MachineDesc::three_tier(fast, 2 * fast, pm)
    } else {
        MachineDesc::dual_socket(fast, pm)
    }
}

/// Maps pages until the allocator refuses (watermarks keep headroom), so
/// pages land on every node well past the top tier; returns the count.
fn fill(mem: &mut MemorySystem) -> u64 {
    let mut pages = 0u64;
    while let Ok(f) = mem.alloc_page(PageKind::Anon) {
        mem.map(VPage::new(pages), f).expect("fresh vpage");
        pages += 1;
    }
    pages
}

/// The reference model: the device timing of the node owning `vpage`'s
/// frame, straight from the machine description (node order is topology
/// node order).
fn owner_timing(desc: &MachineDesc, mem: &MemorySystem, vpage: VPage) -> TierLatency {
    let frame = mem.translate(vpage).expect("page is mapped");
    desc.nodes()[mem.frame(frame).node().index()].device
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn access_is_charged_its_tiers_read_or_write_timing(
        three_tier in any::<bool>(),
        fast in 8usize..24,
        pm_pages in 32usize..96,
        migrations in prop::collection::vec((0u64..4096, 0u8..3), 0..48),
        ops in prop::collection::vec((0u64..4096, any::<bool>()), 1..200),
    ) {
        let desc = machine(three_tier, fast, pm_pages);
        // PM is asymmetric: if reads and writes cost the same the property
        // below could not distinguish the charged direction.
        prop_assert!(desc.nodes().iter().any(|n| n.device.read_ns != n.device.write_ns));
        let mut mem = MemorySystem::new(desc.clone());
        let tiers = mem.topology().tier_count() as u8;
        let top = mem.topology().tier(TierId::TOP).pages() as u64;
        let pages = fill(&mut mem);
        prop_assert!(
            pages > top,
            "fill must spill past the top tier (got {} pages)",
            pages
        );
        // Random migrations shuffle pages across tiers (and so nodes);
        // full-tier failures are fine, placement just stays put.
        for (p, tier) in migrations {
            let v = VPage::new(p % pages);
            if let Some(f) = mem.translate(v) {
                let _ = mem.migrate(f, TierId::new(tier % tiers));
            }
        }
        for (p, is_write) in ops {
            let v = VPage::new(p % pages);
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let timing = owner_timing(&desc, &mem, v);
            let out = mem.access(v, kind).expect("page is mapped");
            let want = if is_write { timing.write_ns } else { timing.read_ns };
            prop_assert_eq!(
                out.latency,
                Nanos::from_nanos(want),
                "tier {} write={}",
                out.tier.index(),
                is_write
            );
        }
    }

    #[test]
    fn streaming_pays_its_tiers_bandwidth(
        three_tier in any::<bool>(),
        fast in 8usize..24,
        pm_pages in 32usize..96,
        ops in prop::collection::vec((0u64..4096, any::<bool>(), 64usize..8192), 1..64),
    ) {
        let desc = machine(three_tier, fast, pm_pages);
        let mut mem = MemorySystem::new(desc.clone());
        let top = mem.topology().tier(TierId::TOP).pages() as u64;
        let pages = fill(&mut mem);
        prop_assert!(
            pages > top,
            "fill must spill past the top tier (got {} pages)",
            pages
        );
        for (p, is_write, bytes) in ops {
            let v = VPage::new(p % pages);
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let timing = owner_timing(&desc, &mem, v);
            let out = mem.access(v, kind).expect("page is mapped");
            let bw = if is_write { timing.write_bw_gbps } else { timing.read_bw_gbps };
            let want = Nanos::from_nanos((bytes as f64 / bw) as u64);
            prop_assert_eq!(
                mem.latency().stream(out.tier, kind, bytes),
                want,
                "tier {} bytes {}",
                out.tier.index(),
                bytes
            );
        }
    }
}
