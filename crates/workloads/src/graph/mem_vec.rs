//! Typed arrays living in simulated memory.
//!
//! A [`MemVec`] keeps its data in a native `Vec` for speed but emits a
//! simulated-memory access for every element or range operation, so the
//! tiering system sees exactly the page-touch stream the real array would
//! generate. Random element access pays full device latency (one page
//! touch); range operations are bandwidth-amortised by the engine.

use crate::memory::Memory;
use mc_mem::{PageKind, VAddr};

/// A fixed-length typed array in simulated memory.
#[derive(Debug, Clone)]
pub struct MemVec<T> {
    base: VAddr,
    data: Vec<T>,
}

impl<T: Copy> MemVec<T> {
    /// Maps a new array of `len` elements, all `init`.
    pub(crate) fn new<M: Memory + ?Sized>(
        mem: &mut M,
        kind: PageKind,
        len: usize,
        init: T,
    ) -> Self {
        assert!(len > 0, "MemVec needs at least one element");
        let bytes = len * std::mem::size_of::<T>();
        MemVec {
            base: mem.mmap(bytes, kind),
            data: vec![init; len],
        }
    }

    /// Maps an array initialised from an existing vector (bulk-writes the
    /// whole region once, like the initial population of the array).
    pub(crate) fn from_vec<M: Memory + ?Sized>(mem: &mut M, kind: PageKind, data: Vec<T>) -> Self {
        assert!(!data.is_empty(), "MemVec needs at least one element");
        let bytes = data.len() * std::mem::size_of::<T>();
        let base = mem.mmap(bytes, kind);
        mem.write(base, bytes);
        MemVec { base, data }
    }

    /// Wraps a pre-reserved region at `base` (arena allocation). The
    /// caller guarantees the region is large enough and not aliased.
    pub(crate) fn at(base: VAddr, data: Vec<T>) -> Self {
        assert!(!data.is_empty(), "MemVec needs at least one element");
        MemVec { base, data }
    }

    /// Number of elements.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// The base address.
    #[cfg(test)]
    pub(crate) fn base(&self) -> VAddr {
        self.base
    }

    /// Size of the mapped region in bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    fn addr(&self, i: usize) -> VAddr {
        self.base.add((i * std::mem::size_of::<T>()) as u64)
    }

    /// Reads one element (one random page touch).
    pub(crate) fn get<M: Memory + ?Sized>(&self, mem: &mut M, i: usize) -> T {
        mem.read(self.addr(i), std::mem::size_of::<T>());
        self.data[i]
    }

    /// Writes one element (one random page touch).
    pub(crate) fn set<M: Memory + ?Sized>(&mut self, mem: &mut M, i: usize, v: T) {
        mem.write(self.addr(i), std::mem::size_of::<T>());
        self.data[i] = v;
    }

    /// Reads a contiguous range (sequential, bandwidth-amortised).
    pub(crate) fn range<M: Memory + ?Sized>(&self, mem: &mut M, start: usize, end: usize) -> &[T] {
        assert!(
            start <= end && end <= self.data.len(),
            "range out of bounds"
        );
        if start < end {
            mem.read(self.addr(start), (end - start) * std::mem::size_of::<T>());
        }
        &self.data[start..end]
    }

    /// Overwrites every element (one sequential sweep).
    pub(crate) fn fill<M: Memory + ?Sized>(&mut self, mem: &mut M, v: T) {
        mem.write(self.base, self.bytes());
        self.data.fill(v);
    }

    /// A read-only view without access accounting — only for result
    /// verification in tests and reports, never inside kernels.
    pub fn as_slice_unaccounted(&self) -> &[T] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SimpleMemory;
    use mc_mem::PAGE_SIZE;

    #[test]
    fn element_roundtrip() {
        let mut mem = SimpleMemory::new();
        let mut v: MemVec<u64> = MemVec::new(&mut mem, PageKind::Anon, 100, 0);
        v.set(&mut mem, 7, 1234);
        assert_eq!(v.get(&mut mem, 7), 1234);
        assert_eq!(v.get(&mut mem, 8), 0);
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn accesses_are_accounted() {
        let mut mem = SimpleMemory::new();
        let mut v: MemVec<u32> = MemVec::new(&mut mem, PageKind::Anon, 4096, 0);
        let before = mem.accesses;
        v.set(&mut mem, 0, 1);
        v.get(&mut mem, 0);
        assert_eq!(mem.accesses - before, 2);
        // A range read spanning several pages touches each page.
        let before = mem.accesses;
        v.range(&mut mem, 0, 4096); // 16 KiB = 4 pages
        assert_eq!(mem.accesses - before, (4096 * 4 / PAGE_SIZE) as u64);
    }

    #[test]
    fn from_vec_preserves_content() {
        let mut mem = SimpleMemory::new();
        let v = MemVec::from_vec(&mut mem, PageKind::Anon, vec![5u32, 6, 7]);
        assert_eq!(v.as_slice_unaccounted(), &[5, 6, 7]);
    }

    #[test]
    fn arena_placement_respects_base() {
        let mut mem = SimpleMemory::new();
        let region = mem.mmap(2 * PAGE_SIZE, PageKind::Anon);
        let v = MemVec::at(region.add(PAGE_SIZE as u64), vec![1u8, 2]);
        assert_eq!(v.base(), region.add(PAGE_SIZE as u64));
        assert_eq!(v.bytes(), 2);
    }

    #[test]
    fn fill_sweeps_whole_region() {
        let mut mem = SimpleMemory::new();
        let mut v: MemVec<u64> = MemVec::new(&mut mem, PageKind::Anon, 1024, 1);
        let before = mem.accesses;
        v.fill(&mut mem, 9);
        assert_eq!(mem.accesses - before, 2, "8 KiB = 2 pages");
        assert!(v.as_slice_unaccounted().iter().all(|x| *x == 9));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_bounds_checked() {
        let mut mem = SimpleMemory::new();
        let v: MemVec<u8> = MemVec::new(&mut mem, PageKind::Anon, 10, 0);
        let _ = v.range(&mut mem, 5, 20);
    }
}
