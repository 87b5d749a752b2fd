//! Machine description: the one way to build a machine.
//!
//! Each node of a [`MachineDesc`] carries its memory kind, page count and
//! device timing; the [`Topology`] and the [`LatencyModel`] are both
//! derived from that one list, so a layout can never be paired with a
//! cost table that describes a different machine.
//! [`crate::MemorySystem::new`] takes nothing else.
//!
//! ```
//! use mc_mem::{MachineBuilder, TierKind};
//!
//! let machine = MachineBuilder::new()
//!     .node(TierKind::Hbm, 256)
//!     .node(TierKind::Dram, 1024)
//!     .node(TierKind::Pm, 8192)
//!     .build();
//! assert_eq!(machine.topology().tier_count(), 3);
//! ```
//!
//! A tier has exactly one timing: [`MachineBuilder::build`] rejects two
//! nodes of one kind whose devices differ, so an access, a stream and a
//! migration are all charged from the tier's entry.

use crate::latency::{LatencyModel, TierLatency};
use crate::tier::TierKind;
use crate::topology::Topology;

/// One memory node in a machine description: layout plus timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineNode {
    /// The memory technology backing the node.
    pub kind: TierKind,
    /// Page capacity of the node.
    pub pages: usize,
    /// Device timing: what an access to this node is charged.
    pub device: TierLatency,
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

    /// The N-tier extension machine: HBM + DRAM + PM.
    pub fn three_tier(hbm_pages: usize, dram_pages: usize, pm_pages: usize) -> Self {
        MachineBuilder::new()
            .node(TierKind::Hbm, hbm_pages)
            .node(TierKind::Dram, dram_pages)
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
    /// The tier table holds each tier's device timing, which every node
    /// of the tier shares; software costs are the house defaults, which
    /// live in `LatencyModel::new`.
    pub fn latency(&self) -> LatencyModel {
        let topo = self.topology();
        let tiers: Vec<TierLatency> = topo
            .tiers()
            .iter()
            .filter_map(|t| t.nodes().first())
            .filter_map(|id| self.nodes.get(id.index()))
            .map(|n| n.device)
            .collect();
        LatencyModel::new(tiers)
    }
}

/// Fluent builder for [`MachineDesc`].
///
/// `.node(kind, pages)` appends a node with its kind's default device
/// timing; `.device(..)` overrides the most recently added node's.
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
    /// default device timing.
    pub fn node(mut self, kind: TierKind, pages: usize) -> Self {
        assert!(pages > 0, "a node must have at least one page");
        let device = match kind {
            TierKind::Hbm => TierLatency::hbm(),
            TierKind::Dram => TierLatency::dram(),
            TierKind::Pm => TierLatency::optane_pm(),
        };
        self.nodes.push(MachineNode {
            kind,
            pages,
            device,
        });
        self
    }

    /// Overrides the device timing of the last added node.
    ///
    /// # Panics
    ///
    /// Panics if no node was added yet.
    #[expect(
        clippy::panic,
        reason = "builder misuse (a modifier before any node()) is a programming error, not a runtime state"
    )]
    pub fn device(mut self, device: TierLatency) -> Self {
        match self.nodes.last_mut() {
            Some(node) => node.device = device,
            None => panic!("device() requires a preceding node()"),
        }
        self
    }

    /// Finalises the description. The one place a machine is validated:
    /// everything derived from it narrows node ids to `u8` and frame
    /// numbers to `u32`, [`crate::IndexedList`] reserves the top two
    /// `u32` values as sentinels, and the [`LatencyModel`] keeps one
    /// timing per tier.
    ///
    /// # Panics
    ///
    /// Panics if no node was added, if there are more than 256 nodes, if
    /// the page total reaches `u32::MAX - 1`, or if two nodes of one kind
    /// have different device timings.
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
        let one_timing = self.nodes.iter().all(|n| {
            self.nodes
                .iter()
                .all(|m| m.kind != n.kind || m.device == n.device)
        });
        assert!(
            one_timing,
            "nodes of one kind need one device timing (a tier has one timing)"
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
        assert_eq!(m.latency(), MachineDesc::dram_pm(1, 1).latency());
    }

    #[test]
    fn builder_overrides_apply_to_last_node() {
        let slow = TierLatency {
            write_ns: 1_000,
            ..TierLatency::optane_pm()
        };
        let m = MachineBuilder::new()
            .node(TierKind::Dram, 100)
            .node(TierKind::Pm, 400)
            .device(slow)
            .build();
        assert_eq!(m.nodes()[0].device, TierLatency::dram());
        assert_eq!(m.nodes()[1].device, slow);
        let lat = m.latency();
        assert_eq!(lat.access(TierId::TOP, AccessKind::Write).as_nanos(), 90);
        assert_eq!(
            lat.access(TierId::new(1), AccessKind::Write).as_nanos(),
            1_000
        );
    }

    #[test]
    #[should_panic(expected = "one device timing")]
    fn two_timings_in_one_tier_rejected() {
        // `dual_socket`'s shape with a write-hostile device on the second
        // PM node: charging it at its tier's first node would re-price it.
        let _ = MachineBuilder::new()
            .node(TierKind::Dram, 64)
            .node(TierKind::Dram, 64)
            .node(TierKind::Pm, 256)
            .node(TierKind::Pm, 256)
            .device(TierLatency {
                write_ns: 1_000,
                write_bw_gbps: 1.0,
                ..TierLatency::optane_pm()
            })
            .build();
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
        let _ = MachineBuilder::new().device(TierLatency::dram());
    }
}
