//! # mc-workloads — the paper's workloads
//!
//! Everything the evaluation (§V-B) runs, implemented against an abstract
//! [`Memory`] interface so the same workload code drives the tiering
//! simulation engine (`mc-sim`) or a plain test double:
//!
//! * [`ycsb`] — the six YCSB workloads (A, B, C, D, F plus the paper's
//!   custom 100%-write W; E is non-operational on memcached, exactly as in
//!   the paper) with the standard zipfian / latest / uniform request
//!   distributions, executed against [`kv::KvStore`];
//! * [`kv`] — a memcached-like slab-allocated hash-table key-value store
//!   that stores real bytes in simulated memory;
//! * [`graph`] — the GAP Benchmark Suite: CSR graphs (R-MAT and uniform
//!   generators) and real implementations of BFS, SSSP, PageRank,
//!   Connected Components, Betweenness Centrality and Triangle Counting
//!   whose vertex/edge arrays live in simulated memory;
//! * [`motivation`] — synthetic page populations (stable-hot, bimodal
//!   "tier-friendly", cold) reproducing the access-pattern structure of
//!   the paper's Fig. 1 heat maps and Fig. 2 frequency study.

pub mod dist;
pub mod graph;
pub mod kv;
mod memory;
pub mod motivation;
pub mod ycsb;

pub use memory::{Memory, SimpleMemory};
