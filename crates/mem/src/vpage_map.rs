//! A radix-indexed map keyed by virtual page: the storage under the page
//! table ([`crate::PageTable`]) and under the data plane's written lines
//! ([`crate::PageBytes`]).

use crate::error::MemError;
use crate::ids::VPage;

/// Slots per leaf: 512, one hardware page-table page.
const LEAF_LEN: usize = 512;

type Leaf<T> = Box<[Option<T>; LEAF_LEN]>;

/// A map from virtual page to `T` whose lookups are two array indexes.
///
/// `mmap` hands out virtual pages densely from zero, so the directory is a
/// flat `Vec` indexed by `vpage / 512` and each leaf a fixed array indexed
/// by `vpage % 512`. Leaves are allocated on first use, which keeps a sparse
/// address space (tests, a wild pointer) at 4 KiB per touched 2 MiB span,
/// and [`Self::MAX_VPAGES`] bounds the directory itself. Slots sit in
/// virtual-address order by construction, so — like the `BTreeMap` this
/// replaces — nothing about the layout can differ from run to run.
#[derive(Debug, Clone)]
pub struct VPageMap<T> {
    leaves: Vec<Option<Leaf<T>>>,
    live: usize,
}

impl<T> Default for VPageMap<T> {
    fn default() -> Self {
        VPageMap {
            leaves: Vec::new(),
            live: 0,
        }
    }
}

impl<T> VPageMap<T> {
    /// Pages the map spans: a 44-bit (16 TiB) address space, one page per
    /// possible [`crate::FrameId`]. Storing at or past it fails rather than grow
    /// the directory (64 MiB at the limit) without bound.
    pub const MAX_VPAGES: u64 = 1 << 32;

    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Directory index and leaf slot of a page below [`Self::MAX_VPAGES`].
    fn split(vpage: VPage) -> Option<(usize, usize)> {
        let raw = usize::try_from(vpage.raw()).ok()?;
        (vpage.raw() < Self::MAX_VPAGES).then_some((raw / LEAF_LEN, raw % LEAF_LEN))
    }

    /// The slot of `vpage`, growing the directory and allocating its leaf.
    fn slot_mut(
        leaves: &mut Vec<Option<Leaf<T>>>,
        vpage: VPage,
    ) -> Result<&mut Option<T>, MemError> {
        let (dir, slot) = Self::split(vpage).ok_or(MemError::VPageOutOfRange(vpage))?;
        if dir >= leaves.len() {
            leaves.resize_with(dir + 1, || None);
        }
        leaves
            .get_mut(dir)
            .and_then(|leaf| {
                leaf.get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)))
                    .get_mut(slot)
            })
            .ok_or(MemError::VPageOutOfRange(vpage))
    }

    /// Looks up a page.
    pub fn get(&self, vpage: VPage) -> Option<&T> {
        let (dir, slot) = Self::split(vpage)?;
        self.leaves.get(dir)?.as_ref()?.get(slot)?.as_ref()
    }

    /// Looks up a page mutably.
    pub fn get_mut(&mut self, vpage: VPage) -> Option<&mut T> {
        let (dir, slot) = Self::split(vpage)?;
        self.leaves.get_mut(dir)?.as_mut()?.get_mut(slot)?.as_mut()
    }

    /// Stores `value` at `vpage`, returning the value it replaced.
    ///
    /// # Errors
    ///
    /// [`MemError::VPageOutOfRange`] at or past [`Self::MAX_VPAGES`].
    pub fn insert(&mut self, vpage: VPage, value: T) -> Result<Option<T>, MemError> {
        let old = Self::slot_mut(&mut self.leaves, vpage)?.replace(value);
        self.live += usize::from(old.is_none());
        Ok(old)
    }

    /// The value at `vpage`, storing `fill()` there first if it has none.
    ///
    /// # Errors
    ///
    /// [`MemError::VPageOutOfRange`] at or past [`Self::MAX_VPAGES`].
    pub fn get_or_insert_with(
        &mut self,
        vpage: VPage,
        fill: impl FnOnce() -> T,
    ) -> Result<&mut T, MemError> {
        let slot = Self::slot_mut(&mut self.leaves, vpage)?;
        self.live += usize::from(slot.is_none());
        Ok(slot.get_or_insert_with(fill))
    }

    /// Removes the value at `vpage`, returning it.
    pub fn remove(&mut self, vpage: VPage) -> Option<T> {
        let (dir, slot) = Self::split(vpage)?;
        let old = self.leaves.get_mut(dir)?.as_mut()?.get_mut(slot)?.take();
        self.live -= usize::from(old.is_some());
        old
    }

    /// Number of pages holding a value.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no page holds a value.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_counted_once_however_they_arrive() {
        let mut m: VPageMap<String> = VPageMap::new();
        let (near, far) = (VPage::new(3), VPage::new(5 * 512 + 3));
        assert_eq!(m.insert(near, "a".into()), Ok(None));
        assert_eq!(m.insert(near, "b".into()), Ok(Some("a".into())));
        m.get_or_insert_with(far, || "c".into()).unwrap().push('!');
        m.get_or_insert_with(far, || panic!("already filled"))
            .unwrap()
            .push('?');
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(far).map(String::as_str), Some("c!?"));
        assert_eq!(m.get(VPage::new(512 + 3)), None, "an untouched leaf");
        assert_eq!(m.remove(near), Some("b".into()));
        assert_eq!(m.remove(near), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn the_span_ends_at_max_vpages() {
        let mut m: VPageMap<u8> = VPageMap::new();
        let past = VPage::new(VPageMap::<u8>::MAX_VPAGES);
        assert_eq!(m.insert(past, 1), Err(MemError::VPageOutOfRange(past)));
        assert!(m.get_or_insert_with(past, || 1).is_err());
        assert_eq!(
            (m.get(past).copied(), m.remove(past), m.len()),
            (None, None, 0)
        );
        assert!(m.leaves.is_empty(), "a refused page grows nothing");
    }
}
