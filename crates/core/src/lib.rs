//! # multi-clock — the paper's contribution
//!
//! MULTI-CLOCK (Maruf et al., HPCA 2022) is a dynamic tiering system for
//! hybrid DRAM + persistent-memory machines. Its page-selection mechanism
//! captures **both recency and frequency** at CLOCK-level overhead by
//! adding one list and one flag to the kernel's page-reclaim machinery:
//!
//! * every tier keeps the usual `inactive` and `active` LRU lists (for
//!   anonymous and file-backed pages) **plus a new `promote` list**;
//! * a page that is observed referenced while already *active and
//!   referenced* moves to the promote list (the kernel's `PagePromote`
//!   flag; here the state [`PageState::Promote`], recorded once) — i.e. a
//!   page becomes a promotion candidate only after being seen referenced
//!   repeatedly in recent scans;
//! * a per-node daemon, **`kpromoted`** (here: one set of lists per NUMA
//!   node of the topology), wakes periodically (1 s default),
//!   harvests PTE reference bits, performs the list transitions of the
//!   paper's Fig. 4 state machine, and migrates every page on a lower
//!   tier's promote list up to DRAM;
//! * demotion rides the existing reclaim path: when a tier crosses its low
//!   watermark, unreferenced inactive pages are migrated down a tier
//!   instead of evicted (the lowest tier still evicts to storage).
//!
//! The [`MultiClock`] type implements [`mc_mem::TieringPolicy`] and is
//! driven by the `mc-sim` engine, but it can also be exercised directly
//! against a [`mc_mem::MemorySystem`]:
//!
//! ```
//! use mc_mem::{MachineDesc, MemorySystem, PageKind, TieringPolicy, VPage, AccessKind, Nanos};
//! use multi_clock::{MultiClock, MultiClockConfig};
//!
//! # fn main() -> Result<(), mc_mem::MemError> {
//! let mut mem = MemorySystem::new(MachineDesc::dram_pm(128, 512));
//! let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
//!
//! // Fault in a page and let the policy track it.
//! let frame = mem.alloc_page(PageKind::Anon)?;
//! let vp = VPage::new(7);
//! mem.map(vp, frame)?;
//! mc.on_page_mapped(&mut mem, frame);
//!
//! // Touch it across several scan intervals: the page climbs
//! // inactive -> active -> promote.
//! for tick in 0..4 {
//!     mem.access(vp, AccessKind::Read)?;
//!     mc.tick(&mut mem, Nanos::from_secs(tick + 1));
//! }
//! # Ok(())
//! # }
//! ```

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

mod config;
mod lists;
mod multi_clock;
mod reclaim;
mod scan;
mod state;
mod stats;
mod validate;

pub use config::{Knobs, MultiClockConfig, RECLAIM_BATCH};
pub use lists::{ListSet, TierLists, WhichList};
pub use multi_clock::MultiClock;
pub use state::PageState;
pub use stats::MultiClockStats;
pub use validate::InvariantViolation;
