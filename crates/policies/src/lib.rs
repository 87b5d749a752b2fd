//! # mc-policies — the paper's comparison systems
//!
//! Every system MULTI-CLOCK is evaluated against in the paper (§V),
//! implemented over the same [`mc_mem`] substrate. Like the paper, which
//! extracted Nimble's hot/cold identification and ran it under the same
//! mechanics as MULTI-CLOCK (§II-D), the baselines share their mechanics —
//! per-tier lists, the two-sided exchange, the reclaim loop and the
//! tick-tail pressure sweep live once, in a private `ring` module — and
//! differ in how they *select* pages:
//!
//! * [`StaticTiering`] — pages stay in the tier they were born in; reclaim
//!   evicts by CLOCK second chance (never migrates). The normalisation
//!   baseline of Figs. 5-7.
//! * [`Nimble`] — the paper's single-threaded re-implementation of
//!   Nimble's *page selection*: recency-only, promotes every page seen
//!   referenced in the last scan interval (§II-D).
//! * [`HybridTier`] — sketch-based frequency tracking (arXiv 2312.04789):
//!   sampled reference-bit harvesting into a count-min sketch instead of
//!   full PTE scans, plus direct data placement of known-hot pages at
//!   allocation time. The CXL-era comparison point.
//! * [`AutoTiering`] — hint-page-fault tracking in two flavours:
//!   [`AutoTieringMode::Cpm`] (conservative promotion with fault-time page
//!   exchange) and [`AutoTieringMode::Opm`] (opportunistic promotion with
//!   N-bit-history background demotion).
//! * [`AutoNuma`] — AutoNUMA-Tiering (Yang's PM-as-NUMA-node design):
//!   anonymous pages only, fault-based promotion into free space,
//!   reclaim-based demotion of pages that did not fault.
//! * [`Scored`] — selection by a score, in three [`ScoredKind`]s: AMP's
//!   hybrid (recency+frequency+random) over full-memory profiling, and the
//!   strict-LRU and LFU oracles that observe every access. Both are
//!   impossible in a kernel (§II-D) and run in simulation only, to measure
//!   selection quality.
//! * [`MemoryModeCache`] — Intel Memory-mode: DRAM as a direct-mapped
//!   cache in front of PM. Not a [`mc_mem::TieringPolicy`]; the simulation
//!   engine treats it as an alternative memory frontend.
//!
//! A constructor takes what the simulation varies, the tick interval and
//! the per-tick batch (the engine gives the oracles 1 s and 1 024 pages
//! whatever the simulation's scan interval); every other tunable is a
//! constant.

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

mod autonuma;
mod autotiering;
mod hybridtier;
mod memory_mode;
mod nimble;
mod ring;
mod scored;
mod sketch;
mod static_tiering;

pub use autonuma::AutoNuma;
pub use autotiering::{AutoTiering, AutoTieringMode};
pub use hybridtier::HybridTier;
pub use memory_mode::{MemoryModeCache, MemoryModeStats};
pub use nimble::Nimble;
pub use scored::{Scored, ScoredKind};
pub use static_tiering::StaticTiering;
