//! # mc-mem — the memory substrate
//!
//! This crate models the parts of a machine and operating-system memory
//! manager that the MULTI-CLOCK paper (HPCA 2022) builds on:
//!
//! * physical memory organised into **frames** grouped into **NUMA nodes**,
//!   with every node belonging to a **tier** (DRAM or persistent memory),
//!   mirroring Linux's `pglist_data` plus the paper's PM-node tagging of the
//!   DAX-KMEM hot-plug path — all of it derived from one value, the
//!   [`MachineDesc`], which is the only thing a [`MemorySystem`] is built
//!   from;
//! * **watermarks** (`min`/`low`/`high`) per node computed with the same
//!   square-root rule Linux uses, which drive reclaim/demotion pressure;
//! * a **soft page table** mapping virtual pages to frames and carrying the
//!   hardware-maintained *reference* PTE bit (the paper's "unsupervised
//!   access" channel) plus a *poisoned* bit used by hint-page-fault
//!   trackers such as AutoTiering; dirtiness is the frame's
//!   [`PageFlags::DIRTY`], which migration carries to the new frame;
//! * a **migration engine** equivalent to `migrate_pages()`: allocate on the
//!   destination tier, account the copy, remap, free the source frame;
//! * a parameterised **latency model** for DRAM/PM access, migration and
//!   software page faults, derived from the same description;
//! * the [`policy::TieringPolicy`] trait — the substrate-facing interface
//!   every tiering policy (MULTI-CLOCK and all baselines) implements;
//! * the run's [`Instruments`], which every layer emits and times through.
//!
//! Everything here is deterministic and free of wall-clock time; simulated
//! time is the [`time::TimeLedger`] owned by the simulation engine.
//!
//! ```
//! use mc_mem::{MemorySystem, MachineDesc, PageKind, AccessKind};
//!
//! # fn main() -> Result<(), mc_mem::MemError> {
//! let mut mem = MemorySystem::new(MachineDesc::dram_pm(256, 1024));
//! let frame = mem.alloc_page(PageKind::Anon)?;
//! let vpage = mc_mem::VPage::new(42);
//! mem.map(vpage, frame)?;
//! let outcome = mem.access(vpage, AccessKind::Read)?;
//! assert!(outcome.latency.as_nanos() > 0);
//! # Ok(())
//! # }
//! ```

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

pub mod access;
mod error;
mod flags;
mod frame;
mod ids;
mod instruments;
mod latency;
mod machine;
mod policy;
mod pte;
mod stats;
mod system;
mod tier;
mod time;
mod topology;
mod txn;
mod vpage_map;
mod watermark;

pub use access::{Memory, SimpleMemory};
pub use error::MemError;
pub use flags::PageFlags;
pub use frame::{Frame, FrameState, PageKind};
pub use ids::{FrameId, NodeId, TierId, VAddr, VPage, PAGE_SIZE};
pub use instruments::Instruments;
pub use latency::{AccessKind, LatencyModel, LinkDesc, MigrationCost, TierLatency};
pub use machine::{MachineBuilder, MachineDesc, MachineNode};
pub use policy::{NullPolicy, PolicyTraits, TickOutcome, TieringPolicy};
pub use pte::{PageTable, PteEntry};
pub use stats::{MemEvent, MemStats};
pub use system::{AccessOutcome, MemorySystem};
pub use tier::{Tier, TierKind};
pub use time::{Charge, Nanos, TimeLedger};
pub use topology::{NodeDesc, Topology};
pub use txn::{MigrationMode, MigrationTxn, PageMove, ShadowPages};
pub use vpage_map::VPageMap;
pub use watermark::Watermarks;
