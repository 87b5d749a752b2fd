//! # mc-clock — page-list machinery
//!
//! The Linux page-frame reclamation algorithm (PFRA) that MULTI-CLOCK
//! extends is built on per-node LRU lists scanned CLOCK-style. This crate
//! provides the list infrastructure:
//!
//! * [`IndexedList`] — an ordered list of frames threaded through a
//!   frame-indexed table of `prev`/`next` links, the way the kernel threads
//!   `struct page` onto a `list_head`: membership, push, pop and removal
//!   from the middle are a few array stores each. The building block for
//!   inactive/active/promote lists;
//! * [`balance`] — the active:inactive balancing rule the paper inherits
//!   from PFRA (`sqrt(10 * n) : 1` with `n` the tier size in GB).

pub mod balance;
pub mod list;

pub use balance::inactive_ratio;
pub use list::IndexedList;
