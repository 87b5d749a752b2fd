//! Error type for substrate operations.

use crate::ids::{FrameId, TierId, VPage};
use std::error::Error;
use std::fmt;

/// Errors returned by [`crate::MemorySystem`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// No free frame is available in any allowed tier.
    OutOfMemory,
    /// The requested tier has no free frame above its reserve.
    TierFull(TierId),
    /// The virtual page is not mapped.
    NotMapped(VPage),
    /// The virtual page is already mapped.
    AlreadyMapped(VPage),
    /// The frame is free, or [`crate::FrameState::Retained`] (a reserved
    /// copy destination or a shadow copy), not an allocated page frame.
    FrameNotAllocated(FrameId),
    /// The frame cannot be migrated right now: its copy window is already
    /// open, a write doomed the copy, or an injected fault locked it.
    FrameLocked(FrameId),
    /// Attempted to migrate a frame to the tier it is already in.
    SameTier(FrameId, TierId),
    /// The tier id is out of range for this topology.
    NoSuchTier(TierId),
    /// The virtual page lies at or past [`crate::VPageMap::MAX_VPAGES`].
    VPageOutOfRange(VPage),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory => write!(f, "out of memory in every tier"),
            MemError::TierFull(t) => write!(f, "no free frame in {t}"),
            MemError::NotMapped(v) => write!(f, "{v} is not mapped"),
            MemError::AlreadyMapped(v) => write!(f, "{v} is already mapped"),
            MemError::FrameNotAllocated(fr) => write!(f, "{fr} is not allocated"),
            MemError::FrameLocked(fr) => write!(f, "{fr} is locked"),
            MemError::SameTier(fr, t) => write!(f, "{fr} is already in {t}"),
            MemError::NoSuchTier(t) => write!(f, "topology has no {t}"),
            MemError::VPageOutOfRange(v) => write!(f, "{v} is beyond the address space"),
        }
    }
}

impl Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let cases: Vec<MemError> = vec![
            MemError::OutOfMemory,
            MemError::TierFull(TierId::TOP),
            MemError::NotMapped(VPage::new(1)),
            MemError::AlreadyMapped(VPage::new(1)),
            MemError::FrameNotAllocated(FrameId::new(1)),
            MemError::FrameLocked(FrameId::new(1)),
            MemError::SameTier(FrameId::new(1), TierId::TOP),
            MemError::NoSuchTier(TierId::new(9)),
            MemError::VPageOutOfRange(VPage::new(u64::MAX)),
        ];
        for e in cases {
            let msg = format!("{e}");
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn implements_std_error() {
        fn takes_err<E: Error>(_: E) {}
        takes_err(MemError::OutOfMemory);
    }
}
