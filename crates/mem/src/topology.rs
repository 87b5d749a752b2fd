//! Machine topology: NUMA nodes grouped into tiers. A derived type —
//! the only way to get one is [`crate::MachineDesc::topology`].
//!
//! ```
//! use mc_mem::{MachineBuilder, TierKind, TierId};
//!
//! let topo = MachineBuilder::new()
//!     .node(TierKind::Dram, 1024)
//!     .node(TierKind::Dram, 1024)
//!     .node(TierKind::Pm, 8192)
//!     .build()
//!     .topology();
//! assert_eq!(topo.tier_count(), 2);
//! assert_eq!(topo.tier(TierId::TOP).pages(), 2048);
//! ```

use crate::ids::{FrameId, NodeId, TierId};
use crate::tier::{Tier, TierKind};
use crate::watermark::Watermarks;

/// Description of one NUMA node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDesc {
    id: NodeId,
    kind: TierKind,
    tier: TierId,
    /// First frame id owned by this node.
    first_frame: FrameId,
    /// Number of frames owned by this node.
    pages: usize,
    watermarks: Watermarks,
}

impl NodeDesc {
    /// This node's id.
    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// The tier this node belongs to.
    pub(crate) fn tier(&self) -> TierId {
        self.tier
    }

    /// The node's frame range start.
    #[cfg(test)]
    pub(crate) fn first_frame(&self) -> FrameId {
        self.first_frame
    }

    /// Number of frames in this node.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// The node's free-memory watermarks.
    pub(crate) fn watermarks(&self) -> Watermarks {
        self.watermarks
    }

    /// Iterates over the frame ids owned by this node.
    pub fn frames(&self) -> impl Iterator<Item = FrameId> {
        let start = self.first_frame.raw();
        (start..start + self.pages as u32).map(FrameId::new)
    }
}

/// The machine's layout: nodes, tiers, frame numbering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    nodes: Vec<NodeDesc>,
    tiers: Vec<Tier>,
    total_pages: usize,
}

impl Topology {
    /// All nodes, ordered by id.
    pub fn nodes(&self) -> &[NodeDesc] {
        &self.nodes
    }

    /// One node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn node(&self, id: NodeId) -> &NodeDesc {
        &self.nodes[id.index()]
    }

    /// All tiers, fastest first.
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// One tier.
    ///
    /// # Panics
    ///
    /// Panics if the tier id is out of range.
    pub fn tier(&self, id: TierId) -> &Tier {
        &self.tiers[id.index()]
    }

    /// Number of tiers.
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// Total number of frames in the machine.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Derives the layout from `(kind, pages)` per node, in node order:
    /// tiers are the distinct memory kinds present, fastest first; frames
    /// are numbered densely in node order. [`crate::MachineBuilder::build`]
    /// has already bounded the node count and the page total, so the
    /// narrowing casts below cannot wrap.
    pub(crate) fn derive(specs: &[(TierKind, usize)]) -> Topology {
        let total_pages: usize = specs.iter().map(|(_, p)| p).sum();

        let mut kinds: Vec<TierKind> = specs.iter().map(|(k, _)| *k).collect();
        kinds.sort();
        kinds.dedup();

        let mut nodes = Vec::with_capacity(specs.len());
        let mut next_frame = 0u32;
        for (i, (kind, pages)) in specs.iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "kinds was deduped from these same nodes just above"
            )]
            let tier_idx = kinds.iter().position(|k| k == kind).expect("kind present");
            nodes.push(NodeDesc {
                id: NodeId::new(i as u8),
                kind: *kind,
                tier: TierId::new(tier_idx as u8),
                first_frame: FrameId::new(next_frame),
                pages: *pages,
                watermarks: Watermarks::for_node(*pages, total_pages),
            });
            next_frame += *pages as u32;
        }

        let tiers = kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                let members: Vec<NodeId> = nodes
                    .iter()
                    .filter(|n| n.kind == *kind)
                    .map(|n| n.id)
                    .collect();
                let pages = nodes
                    .iter()
                    .filter(|n| n.kind == *kind)
                    .map(|n| n.pages)
                    .sum();
                Tier::new(TierId::new(i as u8), *kind, members, pages)
            })
            .collect();

        Topology {
            nodes,
            tiers,
            total_pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineBuilder;

    #[test]
    fn two_socket_dram_pm_machine() {
        // The paper's testbed shape: two sockets, each with DRAM and PM.
        let topo = MachineBuilder::new()
            .node(TierKind::Dram, 1000)
            .node(TierKind::Dram, 1000)
            .node(TierKind::Pm, 4000)
            .node(TierKind::Pm, 4000)
            .build()
            .topology();
        assert_eq!(topo.tier_count(), 2);
        assert_eq!(topo.tier(TierId::TOP).kind(), TierKind::Dram);
        assert_eq!(topo.tier(TierId::TOP).pages(), 2000);
        assert_eq!(topo.tier(TierId::new(1)).kind(), TierKind::Pm);
        assert_eq!(topo.tier(TierId::new(1)).pages(), 8000);
        assert_eq!(topo.total_pages(), 10_000);
    }

    #[test]
    fn frame_ranges_are_dense_and_disjoint() {
        let topo = MachineBuilder::new()
            .node(TierKind::Dram, 10)
            .node(TierKind::Pm, 20)
            .build()
            .topology();
        let n0: Vec<_> = topo.node(NodeId::new(0)).frames().collect();
        let n1: Vec<_> = topo.node(NodeId::new(1)).frames().collect();
        assert_eq!(n0.len(), 10);
        assert_eq!(n1.len(), 20);
        assert_eq!(n0[0], FrameId::new(0));
        assert_eq!(n1[0], FrameId::new(10));
        assert_eq!(n1[19], FrameId::new(29));
    }

    #[test]
    fn tiers_sorted_fastest_first_regardless_of_insert_order() {
        let topo = MachineBuilder::new()
            .node(TierKind::Pm, 100)
            .node(TierKind::Dram, 50)
            .build()
            .topology();
        assert_eq!(topo.tier(TierId::TOP).kind(), TierKind::Dram);
        assert_eq!(topo.tier(TierId::new(1)).kind(), TierKind::Pm);
        // The PM node keeps its id but belongs to tier 1.
        assert_eq!(topo.node(NodeId::new(0)).tier(), TierId::new(1));
    }

    #[test]
    fn three_tier_machine() {
        let topo = MachineBuilder::new()
            .node(TierKind::Hbm, 64)
            .node(TierKind::Dram, 256)
            .node(TierKind::Pm, 1024)
            .build()
            .topology();
        assert_eq!(topo.tier_count(), 3);
        assert_eq!(topo.tier(TierId::new(0)).kind(), TierKind::Hbm);
        assert_eq!(topo.tier(TierId::new(2)).kind(), TierKind::Pm);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_topology_rejected() {
        let _ = MachineBuilder::new().build();
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_page_node_rejected() {
        let _ = MachineBuilder::new().node(TierKind::Dram, 0);
    }
}
