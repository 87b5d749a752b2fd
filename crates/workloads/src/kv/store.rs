//! The key-value store proper.

use crate::dist::fnv1a_64;
use crate::kv::slab::SlabAllocator;
use crate::memory::Memory;
use mc_mem::{PageKind, VAddr};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Per-item header stored in front of the value, memcached-`item`-like:
/// the key (8 bytes) plus the value length (4 bytes).
const ITEM_HEADER: usize = 12;
/// Bytes touched per bucket probe (pointer + metadata of the chain head).
const BUCKET_BYTES: usize = 16;

/// Operation counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KvStats {
    /// GET operations.
    pub gets: u64,
    /// GETs that found the key.
    pub hits: u64,
    /// SET operations (insert or update).
    pub sets: u64,
}

/// Location of a stored item.
#[derive(Debug, Clone, Copy)]
struct ItemRef {
    addr: VAddr,
    value_len: usize,
}

/// A memcached-like hash-table KV store over simulated memory.
///
/// ```
/// use mc_workloads::{kv::KvStore, SimpleMemory, Memory};
///
/// let mut mem = SimpleMemory::new();
/// let mut kv = KvStore::new(&mut mem, 1024);
/// kv.set(&mut mem, 42, b"hello");
/// assert_eq!(kv.get(&mut mem, 42), Some(&b"hello"[..]));
/// ```
#[derive(Debug)]
pub struct KvStore {
    slab: SlabAllocator,
    buckets_base: VAddr,
    nbuckets: u64,
    /// Fixed-key hashing: nothing iterates the index, and its keys are the
    /// workload's own, so a per-process random key would buy nothing.
    index: HashMap<u64, ItemRef, BuildHasherDefault<DefaultHasher>>,
    stats: KvStats,
    /// One item as stored (header + value): `set` assembles it here and
    /// `get` reads it back here, so neither allocates once it has grown.
    item: Vec<u8>,
}

impl KvStore {
    /// Creates a store sized for roughly `expected_records` records: the
    /// bucket array is the next power of two above 1.5x that (memcached
    /// grows its table to keep load factor below 1.5).
    pub fn new<M: Memory + ?Sized>(mem: &mut M, expected_records: usize) -> Self {
        let nbuckets = ((expected_records * 3 / 2).max(16) as u64).next_power_of_two();
        let buckets_base = mem.mmap(nbuckets as usize * BUCKET_BYTES, PageKind::Anon);
        KvStore {
            slab: SlabAllocator::new(PageKind::Anon),
            buckets_base,
            nbuckets,
            index: HashMap::default(),
            stats: KvStats::default(),
            item: Vec::new(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// Records currently stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The simulated address of a stored item (diagnostics: lets tools
    /// check which tier holds a given key's page).
    pub fn item_addr(&self, key: u64) -> Option<VAddr> {
        self.index.get(&key).map(|i| i.addr)
    }

    fn bucket_addr(&self, key: u64) -> VAddr {
        let b = fnv1a_64(key) & (self.nbuckets - 1);
        self.buckets_base.add(b * BUCKET_BYTES as u64)
    }

    /// Inserts or updates a record.
    pub fn set<M: Memory + ?Sized>(&mut self, mem: &mut M, key: u64, value: &[u8]) {
        self.stats.sets += 1;
        // Probe the bucket chain head.
        mem.write(self.bucket_addr(key), BUCKET_BYTES);
        let needed = ITEM_HEADER + value.len();
        let addr = match self.index.entry(key) {
            Entry::Occupied(mut slot) => {
                let old = slot.get_mut();
                // A new chunk class moves the item; the same one updates
                // it in place.
                if SlabAllocator::chunk_size(ITEM_HEADER + old.value_len)
                    != SlabAllocator::chunk_size(needed)
                {
                    self.slab.free(old.addr, ITEM_HEADER + old.value_len);
                    old.addr = self.slab.alloc(mem, needed);
                }
                old.value_len = value.len();
                old.addr
            }
            Entry::Vacant(slot) => {
                let addr = self.slab.alloc(mem, needed);
                slot.insert(ItemRef {
                    addr,
                    value_len: value.len(),
                });
                addr
            }
        };
        let item = &mut self.item;
        item.clear();
        item.extend_from_slice(&key.to_le_bytes());
        item.extend_from_slice(&(value.len() as u32).to_le_bytes());
        item.extend_from_slice(value);
        // One call for the whole item: header and value share its touches.
        mem.write_bytes(addr, item);
    }

    /// Looks up a record, returning its value. The slice borrows the
    /// store's item buffer, so it lives until the store's next call.
    pub fn get<M: Memory + ?Sized>(&mut self, mem: &mut M, key: u64) -> Option<&[u8]> {
        self.stats.gets += 1;
        mem.read(self.bucket_addr(key), BUCKET_BYTES);
        let item = self.index.get(&key).copied()?;
        self.stats.hits += 1;
        self.item.resize(ITEM_HEADER + item.value_len, 0);
        mem.read_bytes(item.addr, &mut self.item);
        debug_assert_eq!(self.item[..8], key.to_le_bytes(), "item header corruption");
        debug_assert_eq!(
            self.item[8..ITEM_HEADER],
            (item.value_len as u32).to_le_bytes()
        );
        Some(&self.item[ITEM_HEADER..])
    }

    /// Read-modify-write: YCSB workload F's composite operation.
    pub(crate) fn read_modify_write<M: Memory + ?Sized>(
        &mut self,
        mem: &mut M,
        key: u64,
        new_value: &[u8],
    ) -> bool {
        let found = self.get(mem, key).is_some();
        if found {
            self.set(mem, key, new_value);
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SimpleMemory;

    #[test]
    fn set_get_roundtrip() {
        let mut mem = SimpleMemory::new();
        let mut kv = KvStore::new(&mut mem, 100);
        kv.set(&mut mem, 7, b"value-7");
        kv.set(&mut mem, 8, b"value-8");
        assert_eq!(kv.get(&mut mem, 7), Some(&b"value-7"[..]));
        assert_eq!(kv.get(&mut mem, 8), Some(&b"value-8"[..]));
        assert_eq!(kv.get(&mut mem, 9), None);
        assert_eq!(kv.len(), 2);
        let s = kv.stats();
        assert_eq!(s.sets, 2);
        assert_eq!(s.gets, 3);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn update_replaces_value() {
        let mut mem = SimpleMemory::new();
        let mut kv = KvStore::new(&mut mem, 100);
        kv.set(&mut mem, 1, b"small");
        kv.set(
            &mut mem,
            1,
            b"a completely different and much longer value xxxxxxxxxxxxxxxxxxx",
        );
        assert_eq!(kv.len(), 1);
        let v = kv.get(&mut mem, 1).unwrap();
        assert!(v.starts_with(b"a completely different"));
        kv.set(&mut mem, 1, b"tiny");
        assert_eq!(kv.get(&mut mem, 1), Some(&b"tiny"[..]));
    }

    #[test]
    fn a_shorter_value_read_after_a_longer_one_has_no_stale_tail() {
        let mut mem = SimpleMemory::new();
        let mut kv = KvStore::new(&mut mem, 100);
        kv.set(&mut mem, 1, &[0xaa; 1024]);
        assert_eq!(kv.get(&mut mem, 1), Some(&[0xaa; 1024][..]));
        kv.set(&mut mem, 1, b"short");
        assert_eq!(kv.get(&mut mem, 1), Some(&b"short"[..]));
        // Two keys of different sizes, read back to back both ways.
        kv.set(&mut mem, 2, &[0xbb; 1024]);
        assert_eq!(kv.get(&mut mem, 2), Some(&[0xbb; 1024][..]));
        assert_eq!(kv.get(&mut mem, 1), Some(&b"short"[..]));
        assert_eq!(kv.get(&mut mem, 2), Some(&[0xbb; 1024][..]));
    }

    #[test]
    fn rmw_only_touches_existing_keys() {
        let mut mem = SimpleMemory::new();
        let mut kv = KvStore::new(&mut mem, 100);
        assert!(!kv.read_modify_write(&mut mem, 3, b"new"));
        kv.set(&mut mem, 3, b"old");
        assert!(kv.read_modify_write(&mut mem, 3, b"new"));
        assert_eq!(kv.get(&mut mem, 3), Some(&b"new"[..]));
    }

    #[test]
    fn operations_touch_simulated_memory() {
        let mut mem = SimpleMemory::new();
        let mut kv = KvStore::new(&mut mem, 100);
        let before = mem.accesses;
        kv.set(&mut mem, 1, &[0u8; 1024]);
        let after_set = mem.accesses;
        assert!(after_set > before, "a SET touches bucket + item pages");
        kv.get(&mut mem, 1);
        assert!(
            mem.accesses > after_set,
            "a GET touches bucket + item pages"
        );
    }

    #[test]
    fn thousand_records_with_ycsb_sized_values() {
        let mut mem = SimpleMemory::new();
        let mut kv = KvStore::new(&mut mem, 1000);
        let value = |i: u64| {
            let mut v = vec![0u8; 1024];
            v[..8].copy_from_slice(&i.to_le_bytes());
            v
        };
        for i in 0..1000u64 {
            kv.set(&mut mem, i, &value(i));
        }
        for i in (0..1000u64).step_by(37) {
            assert_eq!(kv.get(&mut mem, i).unwrap(), value(i), "record {i}");
        }
    }
}
