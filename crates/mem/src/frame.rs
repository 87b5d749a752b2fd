//! Per-frame metadata — the analogue of `struct page`.

use crate::flags::PageFlags;
use crate::ids::{NodeId, TierId, VPage};

/// The kind of memory a page holds: anonymous only.
///
/// The kernel keeps separate LRU list sets for anonymous and file-backed
/// pages, and the paper's MULTI-CLOCK manages both. Every workload the paper
/// evaluates (memcached's heap, GAPBS's arrays) is anonymous, so the
/// simulator models that one kind (DESIGN.md §2). The enum survives only in
/// `Memory::mmap` and `MemorySystem::alloc_page`, whose signatures the
/// benchmark harness pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// Anonymous memory (heap, stacks, `MAP_ANONYMOUS`).
    Anon,
}

/// Allocation state of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameState {
    /// On a free list.
    Free,
    /// Allocated and (usually) mapped.
    Allocated,
}

/// Metadata for one physical page frame.
#[derive(Debug, Clone)]
pub struct Frame {
    state: FrameState,
    node: NodeId,
    tier: TierId,
    flags: PageFlags,
    /// Reverse mapping: the virtual page currently mapped to this frame.
    vpage: Option<VPage>,
}

impl Frame {
    /// Creates a free frame belonging to the given node/tier.
    pub(crate) fn free(node: NodeId, tier: TierId) -> Self {
        Frame {
            state: FrameState::Free,
            node,
            tier,
            flags: PageFlags::EMPTY,
            vpage: None,
        }
    }

    /// Current allocation state.
    pub fn state(&self) -> FrameState {
        self.state
    }

    /// The NUMA node owning this frame.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The tier this frame belongs to.
    pub fn tier(&self) -> TierId {
        self.tier
    }

    /// Page flags.
    pub fn flags(&self) -> PageFlags {
        self.flags
    }

    /// Mutable access to page flags.
    pub(crate) fn flags_mut(&mut self) -> &mut PageFlags {
        &mut self.flags
    }

    /// The virtual page mapped here, if any.
    pub fn vpage(&self) -> Option<VPage> {
        self.vpage
    }

    pub(crate) fn mark_allocated(&mut self) {
        debug_assert_eq!(self.state, FrameState::Free);
        self.state = FrameState::Allocated;
        self.flags = PageFlags::EMPTY;
        self.vpage = None;
    }

    pub(crate) fn mark_free(&mut self) {
        self.state = FrameState::Free;
        self.flags = PageFlags::EMPTY;
        self.vpage = None;
    }

    pub(crate) fn set_vpage(&mut self, vpage: Option<VPage>) {
        self.vpage = vpage;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut f = Frame::free(NodeId::new(0), TierId::TOP);
        assert_eq!(f.state(), FrameState::Free);
        f.mark_allocated();
        assert_eq!(f.state(), FrameState::Allocated);
        assert!(f.flags().is_empty());
        f.set_vpage(Some(VPage::new(9)));
        assert_eq!(f.vpage(), Some(VPage::new(9)));
        f.mark_free();
        assert_eq!(f.state(), FrameState::Free);
        assert_eq!(f.vpage(), None);
    }

    #[test]
    fn allocation_clears_stale_flags() {
        let mut f = Frame::free(NodeId::new(0), TierId::TOP);
        f.mark_allocated();
        f.flags_mut().insert(PageFlags::DIRTY);
        f.mark_free();
        f.mark_allocated();
        assert!(f.flags().is_empty());
    }
}
