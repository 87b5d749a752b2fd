//! # mc-policies — the paper's comparison systems
//!
//! Every system MULTI-CLOCK is evaluated against in the paper (§V),
//! implemented over the same [`mc_mem`] substrate:
//!
//! * [`StaticTiering`] — pages stay in the tier they were born in; reclaim
//!   evicts (never migrates). The normalisation baseline of Figs. 5-7.
//! * [`Nimble`] — the paper's single-threaded re-implementation of
//!   Nimble's *page selection*: recency-only, promotes every page seen
//!   referenced in the last scan interval (§II-D).
//! * [`AutoTiering`] — hint-page-fault tracking in two flavours:
//!   [`AutoTieringMode::Cpm`] (conservative promotion with fault-time page
//!   exchange) and [`AutoTieringMode::Opm`] (opportunistic promotion with
//!   N-bit-history background demotion).
//! * [`MemoryModeCache`] — Intel Memory-mode: DRAM as a direct-mapped
//!   cache in front of PM. Not a [`mc_mem::TieringPolicy`]; the simulation
//!   engine treats it as an alternative memory frontend.
//! * [`Amp`] — AMP's hybrid (recency+frequency+random) selection over
//!   full-memory profiling — deployable only in simulation, exactly the
//!   paper's point (§II-D).
//! * [`AutoNuma`] — AutoNUMA-Tiering (Yang's PM-as-NUMA-node design):
//!   anonymous pages only, fault-based promotion into free space,
//!   reclaim-based demotion.
//! * [`OraclePolicy`] — strict-LRU and LFU ablation policies that observe
//!   every access (impossible in a kernel, §II-D, but a useful selection-
//!   quality upper bound in simulation).
//! * [`HybridTier`] — sketch-based frequency tracking (arXiv 2312.04789):
//!   sampled reference-bit harvesting into a count-min sketch instead of
//!   full PTE scans, plus direct data placement of known-hot pages at
//!   allocation time. The CXL-era comparison point.

// Engine-reachable code: failure is a value, iteration order is fixed (DESIGN.md §9).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::todo,
    clippy::iter_over_hash_type,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok
)]

pub mod amp;
pub mod autonuma;
pub mod autotiering;
pub mod hybridtier;
pub mod memory_mode;
pub mod nimble;
pub mod oracle;
pub mod sketch;
pub mod static_tiering;

pub use amp::Amp;
pub use autonuma::AutoNuma;
pub use autotiering::{AutoTiering, AutoTieringConfig, AutoTieringMode};
pub use hybridtier::{HybridTier, HybridTierConfig};
pub use memory_mode::{MemoryModeCache, MemoryModeStats};
pub use nimble::{Nimble, NimbleConfig};
pub use oracle::{OracleKind, OraclePolicy};
pub use sketch::CmSketch;
pub use static_tiering::StaticTiering;
