//! Machine description: the one way to build a machine.
//!
//! Each node of a [`MachineDesc`] carries its memory kind, page count,
//! device timing, link descriptor and head count; the [`Topology`] and the
//! [`LatencyModel`] are both derived from that one list, so a layout can
//! never be paired with a cost table that describes a different machine.
//! [`crate::MemorySystem::new`] takes nothing else.
//!
//! ```
//! use mc_mem::{MachineBuilder, TierKind};
//!
//! let machine = MachineBuilder::new()
//!     .node(TierKind::Dram, 1024)
//!     .node(TierKind::Cxl, 4096) // CXL defaults: DRAM media behind a CXL link
//!     .node(TierKind::Pm, 8192)
//!     .build();
//! assert_eq!(machine.topology().tier_count(), 3);
//! ```
//!
//! An application access is charged at its node's effective timing
//! (`LatencyModel::node_access`); migrations are charged at tier
//! granularity, from each tier's first node.

use crate::latency::{LatencyModel, LinkDesc, TierLatency};
use crate::tier::TierKind;
use crate::topology::Topology;

/// One memory node in a machine description: layout plus timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineNode {
    /// The memory technology backing the node.
    pub kind: TierKind,
    /// Page capacity of the node.
    pub pages: usize,
    /// Raw device timing, before the link cost is applied.
    pub device: TierLatency,
    /// The interconnect between CPU and device.
    pub link: LinkDesc,
    /// Number of link heads (a multi-headed device is shared across
    /// sockets and fans its traffic over one link per head).
    pub heads: u8,
}

impl MachineNode {
    /// The node's effective timing: device composed with link and heads.
    pub fn effective(&self) -> TierLatency {
        self.link.effective(self.device, self.heads)
    }

    fn with_kind_defaults(kind: TierKind, pages: usize) -> Self {
        let (device, link) = match kind {
            TierKind::Hbm => (TierLatency::hbm(), LinkDesc::direct()),
            TierKind::Dram => (TierLatency::dram(), LinkDesc::direct()),
            TierKind::Cxl => (TierLatency::cxl_dram(), LinkDesc::cxl()),
            TierKind::Pm => (TierLatency::optane_pm(), LinkDesc::direct()),
        };
        MachineNode {
            kind,
            pages,
            device,
            link,
            heads: 1,
        }
    }
}

/// A complete machine description from which both the [`Topology`] and the
/// [`LatencyModel`] are derived. Built with [`MachineBuilder`] or one of
/// the named presets.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineDesc {
    nodes: Vec<MachineNode>,
}

impl MachineDesc {
    /// The nodes, in insertion order (== [`crate::NodeId`] order).
    pub fn nodes(&self) -> &[MachineNode] {
        &self.nodes
    }

    /// The paper's default machine: one DRAM node + one PM node.
    pub fn dram_pm(dram_pages: usize, pm_pages: usize) -> Self {
        MachineBuilder::new()
            .node(TierKind::Dram, dram_pages)
            .node(TierKind::Pm, pm_pages)
            .build()
    }

    /// The paper's testbed shape: two sockets, each with DRAM and PM.
    pub fn dual_socket(dram_per_socket: usize, pm_per_socket: usize) -> Self {
        MachineBuilder::new()
            .node(TierKind::Dram, dram_per_socket)
            .node(TierKind::Dram, dram_per_socket)
            .node(TierKind::Pm, pm_per_socket)
            .node(TierKind::Pm, pm_per_socket)
            .build()
    }

    /// The N-tier extension machine: HBM + DRAM + PM, all direct-attached.
    pub fn three_tier(hbm_pages: usize, dram_pages: usize, pm_pages: usize) -> Self {
        MachineBuilder::new()
            .node(TierKind::Hbm, hbm_pages)
            .node(TierKind::Dram, dram_pages)
            .node(TierKind::Pm, pm_pages)
            .build()
    }

    /// A realistic CXL expansion machine: local DRAM, a CXL-attached DRAM
    /// expander (~210 ns loads through the link), and PM.
    pub fn dram_cxl_pm(dram_pages: usize, cxl_pages: usize, pm_pages: usize) -> Self {
        MachineBuilder::new()
            .node(TierKind::Dram, dram_pages)
            .node(TierKind::Cxl, cxl_pages)
            .node(TierKind::Pm, pm_pages)
            .build()
    }

    /// A dual-socket machine sharing one multi-headed CXL device: each
    /// socket has local DRAM; the CXL expander exposes two heads (one per
    /// socket), doubling its usable link bandwidth; PM backs the bottom.
    pub fn cxl_multihead(dram_per_socket: usize, cxl_pages: usize, pm_pages: usize) -> Self {
        MachineBuilder::new()
            .node(TierKind::Dram, dram_per_socket)
            .node(TierKind::Dram, dram_per_socket)
            .node(TierKind::Cxl, cxl_pages)
            .heads(2)
            .node(TierKind::Pm, pm_pages)
            .build()
    }

    /// Derives the node/tier layout.
    pub fn topology(&self) -> Topology {
        let specs: Vec<(TierKind, usize)> = self.nodes.iter().map(|n| (n.kind, n.pages)).collect();
        Topology::derive(&specs)
    }

    /// Derives the cost model.
    ///
    /// The per-tier table holds the effective timing of each tier's first
    /// node (in node order), the per-node table every node's; software
    /// costs are the house defaults, which live in `LatencyModel::new`.
    pub fn latency(&self) -> LatencyModel {
        let topo = self.topology();
        let tiers: Vec<TierLatency> = topo
            .tiers()
            .iter()
            .filter_map(|t| t.nodes().first())
            .filter_map(|id| self.nodes.get(id.index()))
            .map(|n| n.effective())
            .collect();
        let node_access = self.nodes.iter().map(|n| n.effective()).collect();
        LatencyModel::new(tiers, node_access)
    }
}

/// Fluent builder for [`MachineDesc`].
///
/// `.node(kind, pages)` appends a node with kind-appropriate defaults
/// (CXL nodes get DRAM media behind a `LinkDesc::cxl` link; everything
/// else is direct-attached). `.device(..)` and `.heads(..)` modify the
/// most recently added node.
#[derive(Debug, Default, Clone)]
pub struct MachineBuilder {
    nodes: Vec<MachineNode>,
}

impl MachineBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node of the given memory kind and page count with the kind's
    /// default device timing and link.
    pub fn node(mut self, kind: TierKind, pages: usize) -> Self {
        assert!(pages > 0, "a node must have at least one page");
        self.nodes
            .push(MachineNode::with_kind_defaults(kind, pages));
        self
    }

    /// The node the next modifier applies to.
    #[expect(
        clippy::panic,
        reason = "builder misuse (a modifier before any node()) is a programming error, not a runtime state"
    )]
    fn last_node(&mut self, modifier: &str) -> &mut MachineNode {
        match self.nodes.last_mut() {
            Some(node) => node,
            None => panic!("{modifier}() requires a preceding node()"),
        }
    }

    /// Overrides the device timing of the last added node.
    pub fn device(mut self, device: TierLatency) -> Self {
        self.last_node("device").device = device;
        self
    }

    /// Sets the head count of the last added node.
    pub(crate) fn heads(mut self, heads: u8) -> Self {
        assert!(heads >= 1, "a node needs at least one head");
        self.last_node("heads").heads = heads;
        self
    }

    /// Finalises the description. The one place a machine is validated:
    /// everything derived from it narrows node ids to `u8` and frame
    /// numbers to `u32`, and `mc_clock::IndexedList` reserves the top two
    /// `u32` values as sentinels.
    ///
    /// # Panics
    ///
    /// Panics if no node was added, if there are more than 256 nodes, or
    /// if the page total reaches `u32::MAX - 1`.
    pub fn build(self) -> MachineDesc {
        assert!(!self.nodes.is_empty(), "machine needs at least one node");
        assert!(
            self.nodes.len() <= 256,
            "machine has at most 256 nodes (node ids are u8)"
        );
        let total = self
            .nodes
            .iter()
            .try_fold(0usize, |sum, n| sum.checked_add(n.pages));
        assert!(
            total.is_some_and(|t| t < (u32::MAX - 1) as usize),
            "machine needs fewer than u32::MAX - 1 pages (frame numbers are u32)"
        );
        MachineDesc { nodes: self.nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, TierId};
    use crate::latency::AccessKind;

    /// `(read_ns, write_ns, read_bw, write_bw)` of every per-tier entry.
    fn tier_table(lat: &LatencyModel) -> Vec<(u64, u64, f64, f64)> {
        lat.tiers
            .iter()
            .map(|t| (t.read_ns, t.write_ns, t.read_bw_gbps, t.write_bw_gbps))
            .collect()
    }

    const HBM: (u64, u64, f64, f64) = (60, 70, 100.0, 80.0);
    const DRAM: (u64, u64, f64, f64) = (80, 90, 30.0, 25.0);
    const PM: (u64, u64, f64, f64) = (300, 125, 6.0, 2.0);

    #[test]
    fn dram_pm_preset_matches_legacy_model_exactly() {
        // The numbers every two-tier result in the repo was produced with.
        let m = MachineDesc::dram_pm(1024, 4096);
        let topo = m.topology();
        assert_eq!(topo.tier_count(), 2);
        assert_eq!(topo.total_pages(), 5120);
        assert_eq!(topo.node(NodeId::new(1)).first_frame().raw(), 1024);
        let lat = m.latency();
        assert_eq!(tier_table(&lat), [DRAM, PM]);
        assert_eq!(lat.migration_fixed.as_nanos(), 2_500);
        assert_eq!(lat.migration_app_stall.as_nanos(), 1_500);
        assert_eq!(lat.hint_fault.as_nanos(), 1_500);
        assert_eq!(lat.scan_per_page.as_nanos(), 60);
        assert_eq!(lat.swap_page.as_nanos(), 10_000);
        assert_eq!(lat.txn_remap.as_nanos(), 300);
    }

    #[test]
    fn three_tier_preset_matches_legacy_model_exactly() {
        let lat = MachineDesc::three_tier(64, 256, 1024).latency();
        assert_eq!(tier_table(&lat), [HBM, DRAM, PM]);
    }

    #[test]
    fn dual_socket_preset_costs_like_dram_pm() {
        let m = MachineDesc::dual_socket(512, 2048);
        assert_eq!(m.topology().tier_count(), 2);
        let (lat, flat) = (m.latency(), MachineDesc::dram_pm(1, 1).latency());
        // Both sockets' nodes of a tier share that tier's timing, and the
        // rest of the model is dram_pm's.
        assert_eq!(
            lat.node_access,
            [flat.tiers[0], flat.tiers[0], flat.tiers[1], flat.tiers[1]]
        );
        assert_eq!(
            LatencyModel {
                node_access: flat.node_access.clone(),
                ..lat
            },
            flat
        );
    }

    #[test]
    fn dram_cxl_pm_orders_cxl_between_dram_and_pm() {
        let m = MachineDesc::dram_cxl_pm(512, 2048, 8192);
        let topo = m.topology();
        assert_eq!(topo.tier_count(), 3);
        assert_eq!(topo.tier(TierId::new(0)).kind(), TierKind::Dram);
        assert_eq!(topo.tier(TierId::new(1)).kind(), TierKind::Cxl);
        assert_eq!(topo.tier(TierId::new(2)).kind(), TierKind::Pm);
        let lat = m.latency();
        // Non-direct link present -> per-node table is populated.
        assert_eq!(lat.node_access.len(), 3);
        let r: Vec<u64> = (0..3)
            .map(|i| lat.access(TierId::new(i), AccessKind::Read).as_nanos())
            .collect();
        assert!(r[0] < r[1] && r[1] < r[2], "tier reads ordered: {r:?}");
        // The CXL node is charged device + link latency.
        assert_eq!(
            lat.access_at(NodeId::new(1), AccessKind::Read).as_nanos(),
            210
        );
    }

    #[test]
    fn multihead_doubles_cxl_link_bandwidth() {
        let one = MachineDesc::dram_cxl_pm(512, 2048, 8192);
        let two = MachineDesc::cxl_multihead(256, 2048, 8192);
        let cxl_one = one.nodes()[1].effective();
        let cxl_two = two.nodes()[2].effective();
        assert_eq!(cxl_one.read_ns, cxl_two.read_ns);
        assert!(cxl_two.write_bw_gbps > cxl_one.write_bw_gbps);
    }

    #[test]
    fn builder_overrides_apply_to_last_node() {
        let m = MachineBuilder::new()
            .node(TierKind::Dram, 100)
            .node(TierKind::Cxl, 400)
            .heads(2)
            .build();
        assert_eq!(m.nodes()[0].link, LinkDesc::direct());
        assert_eq!(m.nodes()[1].link, LinkDesc::cxl());
        assert_eq!(m.nodes()[1].heads, 2);
        // DRAM media behind the CXL link -> node table populated; the
        // direct DRAM node unchanged.
        let lat = m.latency();
        assert_eq!(lat.node_access.len(), 2);
        assert_eq!(
            lat.access_at(NodeId::new(0), AccessKind::Read).as_nanos(),
            80
        );
        assert_eq!(
            lat.access_at(NodeId::new(1), AccessKind::Read).as_nanos(),
            80 + 130
        );
    }

    #[test]
    #[should_panic(expected = "at most 256 nodes")]
    fn more_nodes_than_node_ids_rejected() {
        let b = (0..257).fold(MachineBuilder::new(), |b, _| b.node(TierKind::Dram, 1));
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "fewer than u32::MAX - 1 pages")]
    fn more_pages_than_frame_ids_rejected() {
        let half = (u32::MAX / 2) as usize;
        let _ = MachineDesc::dram_pm(half, half);
    }

    #[test]
    #[should_panic(expected = "preceding node")]
    fn override_without_node_rejected() {
        let _ = MachineBuilder::new().heads(2);
    }
}
