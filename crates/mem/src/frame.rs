//! Per-frame metadata — the analogue of `struct page`.

use crate::flags::PageFlags;
use crate::ids::{NodeId, TierId, VPage};

/// Whether a page holds anonymous or file-backed memory.
///
/// The kernel (and MULTI-CLOCK) keeps separate LRU list sets for the two
/// kinds; the paper stresses that MULTI-CLOCK manages *both* (unlike the
/// NUMA-balancing approach of Yang, which handles anonymous pages only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// Anonymous memory (heap, stacks, `MAP_ANONYMOUS`).
    Anon,
    /// File-backed memory (page cache, `mmap`ed files).
    File,
}

impl PageKind {
    /// All page kinds, in a stable order.
    pub const ALL: [PageKind; 2] = [PageKind::Anon, PageKind::File];
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
    kind: PageKind,
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
            kind: PageKind::Anon,
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

    /// Anonymous or file-backed (meaningful only while allocated).
    pub fn kind(&self) -> PageKind {
        self.kind
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

    /// Whether the frame may be migrated right now.
    pub fn migratable(&self) -> bool {
        self.state == FrameState::Allocated
            && !self
                .flags
                .intersects(PageFlags::LOCKED | PageFlags::UNEVICTABLE)
    }

    pub(crate) fn mark_allocated(&mut self, kind: PageKind) {
        debug_assert_eq!(self.state, FrameState::Free);
        self.state = FrameState::Allocated;
        self.kind = kind;
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
        f.mark_allocated(PageKind::File);
        assert_eq!(f.state(), FrameState::Allocated);
        assert_eq!(f.kind(), PageKind::File);
        assert!(f.flags().is_empty());
        f.set_vpage(Some(VPage::new(9)));
        assert_eq!(f.vpage(), Some(VPage::new(9)));
        f.mark_free();
        assert_eq!(f.state(), FrameState::Free);
        assert_eq!(f.vpage(), None);
    }

    #[test]
    fn migratable_rules() {
        let mut f = Frame::free(NodeId::new(0), TierId::TOP);
        assert!(!f.migratable(), "free frames are not migratable");
        f.mark_allocated(PageKind::Anon);
        assert!(f.migratable());
        f.flags_mut().insert(PageFlags::LOCKED);
        assert!(!f.migratable());
        f.flags_mut().remove(PageFlags::LOCKED);
        f.flags_mut().insert(PageFlags::UNEVICTABLE);
        assert!(!f.migratable());
    }

    #[test]
    fn allocation_clears_stale_flags() {
        let mut f = Frame::free(NodeId::new(0), TierId::TOP);
        f.mark_allocated(PageKind::Anon);
        f.flags_mut().insert(PageFlags::LOCKED | PageFlags::DIRTY);
        f.mark_free();
        f.mark_allocated(PageKind::Anon);
        assert!(f.flags().is_empty());
    }
}
