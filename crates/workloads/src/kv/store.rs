//! The key-value store proper.

use crate::dist::fnv1a_64;
use crate::kv::slab::SlabAllocator;
use crate::memory::Memory;
use mc_mem::{PageKind, VAddr};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// The index's hasher: a key is one multiply by the 64-bit golden ratio,
/// whose high bits (the table's tag) and low bits (its bucket) both differ
/// for consecutive keys. Keys arrive through `write_u64`; `write` folds any
/// other input in a byte at a time.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(GOLDEN);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(GOLDEN);
    }
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
    index: HashMap<u64, ItemRef, BuildHasherDefault<KeyHasher>>,
    stats: KvStats,
    /// One item as stored (header + value): `set_with` assembles it here
    /// and `get` reads it back here, so neither allocates once it has
    /// grown.
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
        self.set_with(mem, key, value.len(), |buf| buf.copy_from_slice(value));
    }

    /// Inserts or updates a record whose `len`-byte value `fill` writes in
    /// place: the item is assembled in the store's buffer, so the value's
    /// bytes are produced once, where they are stored from. `fill` must
    /// write all `len` bytes: the buffer still holds the last item's.
    pub(crate) fn set_with<M: Memory + ?Sized>(
        &mut self,
        mem: &mut M,
        key: u64,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) {
        self.stats.sets += 1;
        // Probe the bucket chain head.
        mem.write(self.bucket_addr(key), BUCKET_BYTES);
        let needed = ITEM_HEADER + len;
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
                old.value_len = len;
                old.addr
            }
            Entry::Vacant(slot) => {
                let addr = self.slab.alloc(mem, needed);
                slot.insert(ItemRef {
                    addr,
                    value_len: len,
                });
                addr
            }
        };
        let item = &mut self.item;
        item.resize(needed, 0);
        item[..8].copy_from_slice(&key.to_le_bytes());
        item[8..ITEM_HEADER].copy_from_slice(&(len as u32).to_le_bytes());
        fill(&mut item[ITEM_HEADER..]);
        // One call for the whole item: header and value share its touches.
        mem.write_bytes(addr, item);
    }

    /// Looks up a record, returning its value. The slice borrows the
    /// store's item buffer, so it lives until the store's next call.
    pub fn get<M: Memory + ?Sized>(&mut self, mem: &mut M, key: u64) -> Option<&[u8]> {
        let item = self.find(mem, key)?;
        self.item.resize(ITEM_HEADER + item.value_len, 0);
        mem.read_bytes(item.addr, &mut self.item);
        debug_assert_eq!(self.item[..8], key.to_le_bytes(), "item header corruption");
        debug_assert_eq!(
            self.item[8..ITEM_HEADER],
            (item.value_len as u32).to_le_bytes()
        );
        Some(&self.item[ITEM_HEADER..])
    }

    /// YCSB's READ, whose value the client drops: the touches of
    /// [`KvStore::get`] without copying the item out of simulated memory.
    /// Returns whether the key is stored.
    pub(crate) fn read<M: Memory + ?Sized>(&mut self, mem: &mut M, key: u64) -> bool {
        let Some(item) = self.find(mem, key) else {
            return false;
        };
        mem.read(item.addr, ITEM_HEADER + item.value_len);
        true
    }

    /// A GET's index half: counts it, probes `key`'s bucket and returns
    /// where its item is stored, if it is.
    fn find<M: Memory + ?Sized>(&mut self, mem: &mut M, key: u64) -> Option<ItemRef> {
        self.stats.gets += 1;
        mem.read(self.bucket_addr(key), BUCKET_BYTES);
        let item = self.index.get(&key).copied()?;
        self.stats.hits += 1;
        Some(item)
    }

    /// Read-modify-write: YCSB workload F's composite operation. The old
    /// value is read as by [`KvStore::read`], the new one written as by
    /// [`KvStore::set_with`].
    pub(crate) fn read_modify_write<M: Memory + ?Sized>(
        &mut self,
        mem: &mut M,
        key: u64,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> bool {
        let found = self.read(mem, key);
        if found {
            self.set_with(mem, key, len, fill);
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SimpleMemory;
    use mc_trace::Recorder;

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
        let new = |buf: &mut [u8]| buf.copy_from_slice(b"new");
        assert!(!kv.read_modify_write(&mut mem, 3, 3, new));
        kv.set(&mut mem, 3, b"old");
        assert!(kv.read_modify_write(&mut mem, 3, 3, new));
        assert_eq!(kv.get(&mut mem, 3), Some(&b"new"[..]));
    }

    #[test]
    fn read_touches_what_get_touches() {
        let mut sides: [(Recorder<SimpleMemory>, KvStore); 2] = std::array::from_fn(|_| {
            let mut mem = Recorder::new(SimpleMemory::new());
            let mut kv = KvStore::new(&mut mem, 64);
            for key in 0..20 {
                kv.set(&mut mem, key, &vec![key as u8; 1000 + 300 * key as usize]);
            }
            (mem, kv)
        });
        // Hits whose items span one or two pages, and misses.
        for key in [0, 3, 19, 7, 20, 99, 3] {
            let [(m0, by_get), (m1, by_read)] = &mut sides;
            let found = by_get.get(m0, key).is_some();
            assert_eq!(by_read.read(m1, key), found, "key {key}");
            assert_eq!(by_read.stats(), by_get.stats());
        }
        // Every page touch, with its time, kind and bytes in the page.
        let [by_get, by_read] = sides.map(|(mem, _)| mem.finish());
        assert_eq!(by_read, by_get);
    }

    /// `set` as it was before `set_with`: the value copied in from a
    /// caller's buffer, then the item assembled in a fresh one.
    fn set_by_copy(kv: &mut KvStore, mem: &mut SimpleMemory, key: u64, value: &[u8]) {
        kv.stats.sets += 1;
        mem.write(kv.bucket_addr(key), BUCKET_BYTES);
        let needed = ITEM_HEADER + value.len();
        let addr = match kv.index.entry(key) {
            Entry::Occupied(mut slot) => {
                let old = slot.get_mut();
                if SlabAllocator::chunk_size(ITEM_HEADER + old.value_len)
                    != SlabAllocator::chunk_size(needed)
                {
                    kv.slab.free(old.addr, ITEM_HEADER + old.value_len);
                    old.addr = kv.slab.alloc(mem, needed);
                }
                old.value_len = value.len();
                old.addr
            }
            Entry::Vacant(slot) => {
                let addr = kv.slab.alloc(mem, needed);
                let value_len = value.len();
                slot.insert(ItemRef { addr, value_len });
                addr
            }
        };
        let mut item = key.to_le_bytes().to_vec();
        item.extend_from_slice(&(value.len() as u32).to_le_bytes());
        item.extend_from_slice(value);
        mem.write_bytes(addr, &item);
    }

    #[test]
    fn set_with_and_set_store_what_a_copied_value_stores() {
        let value = |key: u64, len: usize| -> Vec<u8> {
            (0..len).map(|i| (key as u8) ^ (i as u8) ^ 0x5a).collect()
        };
        let mut sides: [(SimpleMemory, KvStore); 3] = std::array::from_fn(|_| {
            let mut mem = SimpleMemory::new();
            let kv = KvStore::new(&mut mem, 64);
            (mem, kv)
        });
        // Inserts, same-length updates, and lengths that stay in their
        // chunk class or move to another one, in both directions.
        let ops = (0..40u64).map(|k| (k, 1024)).chain([
            (3, 1024),
            (3, 1000),
            (3, 100),
            (3, 4000),
            (7, 0),
            (7, 1024),
            (39, 1024),
        ]);
        let mut lens = HashMap::new();
        for (key, len) in ops {
            let v = value(key, len);
            let [(m0, by_copy), (m1, by_set), (m2, by_fill)] = &mut sides;
            set_by_copy(by_copy, m0, key, &v);
            by_set.set(m1, key, &v);
            by_fill.set_with(m2, key, len, |buf| buf.copy_from_slice(&v));
            lens.insert(key, len);
            for (mem, _) in &sides[1..] {
                assert_eq!(mem.accesses, sides[0].0.accesses, "touches after key {key}");
                assert_eq!(mem.now(), sides[0].0.now());
            }
        }
        for (&key, &len) in &lens {
            let addr = sides[0].1.item_addr(key).expect("stored");
            for (mem, kv) in &mut sides {
                assert_eq!(kv.item_addr(key), Some(addr), "key {key} sits elsewhere");
                let mut item = vec![0xee; ITEM_HEADER + len];
                mem.read_bytes(addr, &mut item);
                assert_eq!(item[..8], key.to_le_bytes());
                assert_eq!(item[8..ITEM_HEADER], (len as u32).to_le_bytes());
                assert_eq!(item[ITEM_HEADER..], value(key, len), "value of key {key}");
            }
        }
        for (_, kv) in &sides[1..] {
            assert_eq!(kv.stats(), sides[0].1.stats());
        }
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
