//! The GAP Benchmark Suite (Beamer et al.) over simulated memory.
//!
//! "GAPBS is a framework for graph analytics capable of running a wide
//! variety of graph processing algorithms. It has six workloads:
//! Breadth-First Search (BFS), Single-Source Shortest Paths (SSSP),
//! PageRank (PR), Connected Components (CC), Betweenness Centrality (BC),
//! and Triangle Counting (TC)" (§V-B).
//!
//! The graph lives in a CSR whose offset and edge arrays are [`MemVec`]s
//! in simulated memory; kernels are *real* algorithms (results are
//! verified against native reference implementations in the tests) whose
//! memory traffic drives the tiering policies.
//!
//! Allocation order mirrors GAPBS as the paper characterises it ("we
//! assume that the GAPBS workloads first allocate memory that would be
//! accessed the most", §V-C.1): the offset array and a vertex-array arena
//! are mapped *before* the big edge array, so under DRAM-first allocation
//! the hottest, vertex-indexed data starts in DRAM.

pub mod bc;
pub mod bfs;
mod builder;
pub mod cc;
mod mem_vec;
pub mod pagerank;
pub mod sssp;
pub mod tc;

pub use builder::{rmat_edges, Csr, GraphConfig};
pub use mem_vec::MemVec;

/// The six GAPBS kernels, for experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Breadth-first search.
    Bfs,
    /// Single-source shortest paths (weighted).
    Sssp,
    /// PageRank.
    Pr,
    /// Connected components.
    Cc,
    /// Betweenness centrality.
    Bc,
    /// Triangle counting.
    Tc,
}

impl Kernel {
    /// All kernels in the paper's Fig. 6 order.
    pub const ALL: [Kernel; 6] = [
        Kernel::Bfs,
        Kernel::Sssp,
        Kernel::Pr,
        Kernel::Cc,
        Kernel::Bc,
        Kernel::Tc,
    ];

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Bfs => "BFS",
            Kernel::Sssp => "SSSP",
            Kernel::Pr => "PR",
            Kernel::Cc => "CC",
            Kernel::Bc => "BC",
            Kernel::Tc => "TC",
        }
    }
}
