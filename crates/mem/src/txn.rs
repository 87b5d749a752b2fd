//! Transactional (Nomad-style) migration state: in-flight migration
//! transactions and shadow copies.
//!
//! Synchronous migration stalls the application for the whole
//! unmap–copy–remap sequence. Nomad (arXiv 2401.13154) instead copies the
//! page *while the application keeps accessing the source*, then atomically
//! remaps once the copy window closes — aborting and retrying if a write
//! dirtied the page mid-copy. Its second idea is *non-exclusive* placement:
//! after a clean promotion the lower-tier source frame still holds a
//! byte-identical copy, so demoting that page later is a zero-copy mapping
//! flip instead of a full page copy.
//!
//! This module holds the bookkeeping types; reserved destinations and
//! shadow copies are [`crate::FrameState::Retained`] frames. The lifecycle
//! lives on [`crate::MemorySystem`], so every mutation of frames and the
//! page table stays inside the substrate's commit boundary: `migrate_pages` in
//! [`MigrationMode::Transactional`] opens the copy windows,
//! `resolve_migrations` commits or aborts them, and `migrate` takes the
//! flip whenever a clean shadow sits in its destination tier.

use crate::ids::{FrameId, TierId};

/// How the substrate executes migrations requested by a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationMode {
    /// The historical synchronous path: unmap, copy, remap, all charged
    /// against the application in one step. Bit-identical to the engine
    /// before transactional migration existed.
    #[default]
    Sync,
    /// Nomad-style transactional migration: the copy runs in the
    /// background over one scan interval, a dirty write during the copy
    /// window aborts the transaction, and a clean completion commits with
    /// an atomic remap. Clean promotions leave a shadow copy behind for
    /// zero-copy demotion.
    Transactional,
}

/// What [`crate::MemorySystem::migrate_pages`] did with one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageMove {
    /// The page moved: it now occupies this frame of the destination tier.
    Landed(FrameId),
    /// A copy window opened; the page stays mapped at its source until
    /// [`crate::MemorySystem::resolve_migrations`] commits or aborts it.
    Opened,
}

/// One in-flight migration transaction: the copy of `frame` towards
/// `dst_frame` started when [`crate::MemorySystem::migrate_pages`] opened
/// it and resolves (commit or abort) at the next
/// [`crate::MemorySystem::resolve_migrations`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationTxn {
    /// The source frame. It keeps the mapping — the application reads and
    /// writes the source for the whole copy window, so concurrent-access
    /// cost is charged against the source tier.
    pub frame: FrameId,
    /// The destination frame, reserved at begin time: retained and
    /// unmapped until the commit remaps atomically.
    pub dst_frame: FrameId,
    /// The destination tier.
    pub dst_tier: TierId,
    /// Set when a write hit the source during the copy window: the copy
    /// is stale and the transaction must abort.
    pub doomed: bool,
}

/// A frame's partner in the transactional layer, indexed by frame so a
/// store reads one link. Links are symmetric: a source or a shadowed page
/// names its retained frame, and the retained frame names it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Partner {
    /// An ordinary frame.
    #[default]
    None,
    /// An open transaction's source: its reserved destination, and whether
    /// a store has made the copy stale.
    Txn { dst: FrameId, doomed: bool },
    /// A page a clean promotion left a shadow for: the retained copy.
    Shadowed(FrameId),
    /// A retained frame: the page it serves.
    Of(FrameId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_mode_defaults_to_sync() {
        assert_eq!(MigrationMode::default(), MigrationMode::Sync);
    }
}
