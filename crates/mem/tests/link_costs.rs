//! Property tests for per-link cost accounting on CXL machines.
//!
//! The machine under test is the dual-socket multi-headed preset
//! ([`MachineDesc::cxl_multihead`]): two DRAM sockets on direct links, a
//! shared two-headed CXL device on an asymmetric link (reads and writes
//! cost differently), and a PM node. The property: **every access is
//! charged the timing of the node that owns the frame**, computed
//! independently here from the machine description's per-node
//! `LinkDesc::effective` — never the per-tier fallback, never another
//! node's link — across random placement, migration and access traces.

use mc_mem::{AccessKind, MachineDesc, MemorySystem, Nanos, PageKind, TierId, TierLatency, VPage};
use proptest::prelude::*;

/// The reference model: device+link timing per node, straight from the
/// machine description (node order is topology node order).
fn expected_timings(desc: &MachineDesc) -> Vec<TierLatency> {
    desc.nodes().iter().map(|n| n.effective()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn access_is_charged_to_the_owning_nodes_link(
        dram_per_socket in 8usize..24,
        cxl_pages in 16usize..48,
        pm_pages in 32usize..96,
        migrations in prop::collection::vec((0u64..4096, 0u8..3), 0..48),
        ops in prop::collection::vec((0u64..4096, any::<bool>()), 1..200),
    ) {
        let desc = MachineDesc::cxl_multihead(dram_per_socket, cxl_pages, pm_pages);
        let expected = expected_timings(&desc);
        // The CXL link is genuinely asymmetric: if reads and writes cost
        // the same the property below could not distinguish the charged
        // direction.
        let cxl_node = expected
            .iter()
            .find(|t| t.read_ns != t.write_ns)
            .expect("the multihead preset has an asymmetric CXL link");
        prop_assert_ne!(cxl_node.read_ns, cxl_node.write_ns);

        let mut mem = MemorySystem::new(desc);
        // Fill until the allocator refuses (watermarks keep headroom),
        // so pages land on every node well past the DRAM sockets.
        let mut pages = 0u64;
        while let Ok(f) = mem.alloc_page(PageKind::Anon) {
            mem.map(VPage::new(pages), f).expect("fresh vpage");
            pages += 1;
        }
        prop_assert!(
            pages > (2 * dram_per_socket) as u64,
            "fill must spill past the DRAM sockets (got {} pages)",
            pages
        );
        // Random migrations shuffle pages across tiers (and so nodes);
        // full-tier failures are fine, placement just stays put.
        for (p, tier) in migrations {
            let v = VPage::new(p % pages);
            if let Some(f) = mem.translate(v) {
                let _ = mem.migrate(f, TierId::new(tier % 3));
            }
        }
        for (p, is_write) in ops {
            let v = VPage::new(p % pages);
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let out = mem.access(v, kind).expect("page is mapped");
            let timing = &expected[out.node.index()];
            let want = if is_write { timing.write_ns } else { timing.read_ns };
            prop_assert_eq!(
                out.latency,
                Nanos::from_nanos(want),
                "node {} tier {} write={}",
                out.node.index(),
                out.tier.index(),
                is_write
            );
        }
    }

    #[test]
    fn streaming_pays_the_owning_nodes_bandwidth(
        dram_per_socket in 8usize..24,
        cxl_pages in 16usize..48,
        pm_pages in 32usize..96,
        ops in prop::collection::vec((0u64..4096, any::<bool>(), 64usize..8192), 1..64),
    ) {
        let desc = MachineDesc::cxl_multihead(dram_per_socket, cxl_pages, pm_pages);
        let expected = expected_timings(&desc);
        let mut mem = MemorySystem::new(desc);
        let mut pages = 0u64;
        while let Ok(f) = mem.alloc_page(PageKind::Anon) {
            mem.map(VPage::new(pages), f).expect("fresh vpage");
            pages += 1;
        }
        prop_assert!(
            pages > (2 * dram_per_socket) as u64,
            "fill must spill past the DRAM sockets (got {} pages)",
            pages
        );
        for (p, is_write, bytes) in ops {
            let v = VPage::new(p % pages);
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let out = mem.access(v, kind).expect("page is mapped");
            let timing = &expected[out.node.index()];
            let bw = if is_write { timing.write_bw_gbps } else { timing.read_bw_gbps };
            let want = Nanos::from_nanos((bytes as f64 / bw) as u64);
            prop_assert_eq!(
                mem.latency().stream_at(out.node, kind, bytes),
                want,
                "node {} bytes {}",
                out.node.index(),
                bytes
            );
        }
    }
}
