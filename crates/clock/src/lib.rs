//! # mc-clock — page-list machinery
//!
//! The Linux page-frame reclamation algorithm (PFRA) that MULTI-CLOCK
//! extends is built on per-node LRU lists scanned CLOCK-style. This crate
//! provides the list infrastructure:
//!
//! * [`IndexedList`] — an ordered list of frames threaded through a
//!   frame-indexed table of `prev`/`next` links, the way the kernel threads
//!   `struct page` onto a `list_head`: the building block for
//!   inactive/active/promote lists, re-exported from `mc-mem`, whose
//!   transaction and shadow orders are lists too;
//! * [`balance`] — the active:inactive balancing rule the paper inherits
//!   from PFRA (`sqrt(10 * n) : 1` with `n` the tier size in GB).

// Engine-reachable code: failure is a value, iteration order is fixed, and a
// match over an enum names every variant (DESIGN.md §9).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::todo,
    clippy::iter_over_hash_type,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok,
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

pub mod balance;

pub use balance::inactive_ratio;
pub use mc_mem::IndexedList;
