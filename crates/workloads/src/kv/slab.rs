//! A memcached-style slab allocator over [`Memory`].
//!
//! Allocations are rounded up to power-of-two chunk classes (64 B …
//! 64 KiB); each class carves chunks out of 64 KiB slabs obtained from
//! [`Memory::mmap`]. Freed chunks return to their class's free list.

use crate::memory::Memory;
use mc_mem::{PageKind, VAddr};

/// Smallest chunk class in bytes.
pub(crate) const MIN_CHUNK: usize = 64;
/// Largest chunk class in bytes.
pub(crate) const MAX_CHUNK: usize = 64 * 1024;
/// Size of one slab in bytes.
pub(crate) const SLAB_BYTES: usize = 64 * 1024;

#[derive(Debug, Default)]
struct SizeClass {
    free: Vec<VAddr>,
    allocated_chunks: u64,
    slabs: u64,
}

/// The slab allocator.
#[derive(Debug)]
pub(crate) struct SlabAllocator {
    classes: Vec<SizeClass>,
}

impl SlabAllocator {
    /// Creates an allocator whose slabs are mapped as anonymous memory,
    /// as memcached's heap is.
    pub(crate) fn new() -> Self {
        let n_classes = (MAX_CHUNK / MIN_CHUNK).trailing_zeros() as usize + 1;
        SlabAllocator {
            classes: (0..n_classes).map(|_| SizeClass::default()).collect(),
        }
    }

    /// The chunk size used for an allocation of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or exceeds [`MAX_CHUNK`].
    pub(crate) fn chunk_size(size: usize) -> usize {
        assert!(size > 0, "cannot allocate zero bytes");
        assert!(size <= MAX_CHUNK, "allocation of {size} exceeds max chunk");
        size.next_power_of_two().max(MIN_CHUNK)
    }

    /// Whether non-zero sizes `a` and `b` share a chunk class (no bounds check).
    pub(crate) fn same_class(a: usize, b: usize) -> bool {
        ((a - 1) | (MIN_CHUNK - 1)).leading_zeros() == ((b - 1) | (MIN_CHUNK - 1)).leading_zeros()
    }

    fn class_index(size: usize) -> usize {
        (Self::chunk_size(size) / MIN_CHUNK).trailing_zeros() as usize
    }

    /// Allocates a chunk big enough for `size` bytes.
    pub(crate) fn alloc<M: Memory + ?Sized>(&mut self, mem: &mut M, size: usize) -> VAddr {
        let idx = Self::class_index(size);
        let chunk = MIN_CHUNK << idx;
        if self.classes[idx].free.is_empty() {
            // Carve a new slab.
            let base = mem.mmap(SLAB_BYTES, PageKind::Anon);
            let class = &mut self.classes[idx];
            class.slabs += 1;
            let chunks = SLAB_BYTES / chunk;
            // Push in reverse so allocation order is ascending addresses.
            for i in (0..chunks).rev() {
                class.free.push(base.add((i * chunk) as u64));
            }
        }
        let class = &mut self.classes[idx];
        class.allocated_chunks += 1;
        class.free.pop().expect("slab carve produced chunks")
    }

    /// Returns a chunk (previously allocated with the same `size` class)
    /// to its free list.
    pub(crate) fn free(&mut self, addr: VAddr, size: usize) {
        let idx = Self::class_index(size);
        let class = &mut self.classes[idx];
        debug_assert!(class.allocated_chunks > 0, "free without matching alloc");
        class.allocated_chunks = class.allocated_chunks.saturating_sub(1);
        class.free.push(addr);
    }

    /// Total slabs mapped so far.
    #[cfg(test)]
    pub(crate) fn slabs(&self) -> u64 {
        self.classes.iter().map(|c| c.slabs).sum()
    }

    /// Chunks currently allocated.
    #[cfg(test)]
    pub(crate) fn live_chunks(&self) -> u64 {
        self.classes.iter().map(|c| c.allocated_chunks).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SimpleMemory;

    #[test]
    fn chunk_classes_round_up() {
        assert_eq!(SlabAllocator::chunk_size(1), 64);
        assert_eq!(SlabAllocator::chunk_size(64), 64);
        assert_eq!(SlabAllocator::chunk_size(65), 128);
        assert_eq!(SlabAllocator::chunk_size(1100), 2048);
        assert_eq!(SlabAllocator::chunk_size(MAX_CHUNK), MAX_CHUNK);
    }

    #[test]
    fn same_class_compares_chunk_sizes() {
        for a in (1..=3 * MIN_CHUNK).chain([1023, 1024, 1025, MAX_CHUNK - 1, MAX_CHUNK]) {
            for b in (1..4 * MAX_CHUNK)
                .step_by(61)
                .chain([a - 1, a + 1, MAX_CHUNK])
            {
                if b == 0 {
                    continue;
                }
                let want =
                    b <= MAX_CHUNK && SlabAllocator::chunk_size(a) == SlabAllocator::chunk_size(b);
                assert_eq!(SlabAllocator::same_class(a, b), want, "{a} and {b}");
            }
        }
    }

    #[test]
    fn allocations_within_a_class_are_distinct() {
        let mut mem = SimpleMemory::new();
        let mut slab = SlabAllocator::new();
        let mut addrs = Vec::new();
        for _ in 0..100 {
            addrs.push(slab.alloc(&mut mem, 1000).raw());
        }
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 100, "no chunk handed out twice");
        assert_eq!(slab.live_chunks(), 100);
    }

    #[test]
    fn free_list_reuse() {
        let mut mem = SimpleMemory::new();
        let mut slab = SlabAllocator::new();
        let a = slab.alloc(&mut mem, 500);
        slab.free(a, 500);
        let b = slab.alloc(&mut mem, 500);
        assert_eq!(a, b, "freed chunk is reused");
        assert_eq!(slab.live_chunks(), 1);
    }

    #[test]
    fn one_slab_serves_many_small_chunks() {
        let mut mem = SimpleMemory::new();
        let mut slab = SlabAllocator::new();
        for _ in 0..(SLAB_BYTES / 64) {
            slab.alloc(&mut mem, 10);
        }
        assert_eq!(slab.slabs(), 1);
        slab.alloc(&mut mem, 10);
        assert_eq!(slab.slabs(), 2, "second slab mapped when first is full");
    }

    #[test]
    fn different_classes_use_different_slabs() {
        let mut mem = SimpleMemory::new();
        let mut slab = SlabAllocator::new();
        slab.alloc(&mut mem, 100);
        slab.alloc(&mut mem, 10_000);
        assert_eq!(slab.slabs(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds max chunk")]
    fn oversized_allocation_rejected() {
        let _ = SlabAllocator::chunk_size(MAX_CHUNK + 1);
    }
}
