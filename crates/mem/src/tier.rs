//! Memory tiers.
//!
//! "Tiers represent disjoint sets of memory frames. The operating system
//! identifies which frames belong to each memory type and assigns them to
//! their proper tier" (paper §II). We reproduce the paper's arrangement:
//! every NUMA node is tagged with a memory kind (the paper's modified
//! DAX-KMEM driver tags hot-plugged PM nodes), and all nodes of one kind
//! form one tier, ordered from high-performance/low-capacity down.

use crate::ids::{NodeId, TierId};
use std::fmt;

/// The technology backing a tier. Ordered fastest-first; the derived `Ord`
/// is the tier ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TierKind {
    /// High-bandwidth memory (used by the N-tier extension tests).
    Hbm,
    /// Ordinary DRAM.
    Dram,
    /// CXL-attached DRAM: DRAM media behind a CXL.mem link, so device
    /// latency plus a link round-trip (~170-250 ns loads). Slower than
    /// socket-local DRAM, faster than PM — the derived ordering places it
    /// between the two.
    Cxl,
    /// Byte-addressable persistent memory (Optane DCPMM class).
    Pm,
}

impl TierKind {
    /// The fast/capacity split: whether this kind counts as *fast* memory
    /// for placement metrics. HBM and socket-local DRAM are fast; CXL
    /// expanders and PM are capacity — a page served from CXL still paid
    /// a link round-trip, so counting it as "served from fast memory"
    /// would overstate placement quality on DRAM+CXL+PM machines.
    pub(crate) const fn is_fast(self) -> bool {
        matches!(self, TierKind::Hbm | TierKind::Dram)
    }
}

impl fmt::Display for TierKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TierKind::Hbm => write!(f, "HBM"),
            TierKind::Dram => write!(f, "DRAM"),
            TierKind::Cxl => write!(f, "CXL"),
            TierKind::Pm => write!(f, "PM"),
        }
    }
}

/// A tier: an ordered group of NUMA nodes sharing one memory kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tier {
    id: TierId,
    kind: TierKind,
    nodes: Vec<NodeId>,
    pages: usize,
}

impl Tier {
    /// Creates a tier descriptor.
    pub(crate) fn new(id: TierId, kind: TierKind, nodes: Vec<NodeId>, pages: usize) -> Self {
        Tier {
            id,
            kind,
            nodes,
            pages,
        }
    }

    /// This tier's id (0 = fastest).
    pub fn id(&self) -> TierId {
        self.id
    }

    /// The memory technology backing this tier.
    pub fn kind(&self) -> TierKind {
        self.kind
    }

    /// The NUMA nodes composing this tier.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Total page capacity of the tier.
    pub fn pages(&self) -> usize {
        self.pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_ordering_is_fastest_first() {
        assert!(TierKind::Hbm < TierKind::Dram);
        assert!(TierKind::Dram < TierKind::Cxl);
        assert!(TierKind::Cxl < TierKind::Pm);
    }

    #[test]
    fn display_names() {
        assert_eq!(TierKind::Dram.to_string(), "DRAM");
        assert_eq!(TierKind::Pm.to_string(), "PM");
        assert_eq!(TierKind::Hbm.to_string(), "HBM");
        assert_eq!(TierKind::Cxl.to_string(), "CXL");
    }

    #[test]
    fn fast_capacity_split() {
        assert!(TierKind::Hbm.is_fast());
        assert!(TierKind::Dram.is_fast());
        assert!(!TierKind::Cxl.is_fast());
        assert!(!TierKind::Pm.is_fast());
    }

    #[test]
    fn tier_accessors() {
        let t = Tier::new(
            TierId::new(1),
            TierKind::Pm,
            vec![NodeId::new(2), NodeId::new(3)],
            1024,
        );
        assert_eq!(t.id(), TierId::new(1));
        assert_eq!(t.kind(), TierKind::Pm);
        assert_eq!(t.nodes().len(), 2);
        assert_eq!(t.pages(), 1024);
    }
}
