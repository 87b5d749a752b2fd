//! The key-value store proper.

use crate::dist::fnv1a_64;
use crate::kv::slab::SlabAllocator;
use crate::memory::Memory;
use mc_mem::{PageKind, VAddr};

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

/// A record's host row: its item's address and length (header + value)
/// and its bucket's index. The default row, of length 0, holds no record.
#[derive(Debug, Default, Clone, Copy)]
struct Row {
    item: VAddr,
    item_len: u32,
    bucket: u32,
}
const _: () = assert!(size_of::<Row>() == 16);

/// A memcached-like hash-table KV store over simulated memory.
///
/// Keys are record numbers below 2^32. The host keeps row `k` for key `k`,
/// so only a key with no row is hashed to probe the simulated buckets.
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
    rows: Vec<Row>,
    /// Rows that hold a record.
    live: usize,
    stats: KvStats,
    /// One item as stored (header + value): `set_with` assembles it here
    /// and `get` reads it back here, so neither allocates once it has
    /// grown.
    item: Vec<u8>,
}

impl KvStore {
    /// Creates a store sized for roughly `expected_records` records: the
    /// bucket array is the next power of two above 1.5x that (memcached
    /// grows its table to keep load factor below 1.5), at most 2^32 buckets.
    pub fn new<M: Memory + ?Sized>(mem: &mut M, expected_records: usize) -> Self {
        let nbuckets = (expected_records as u64 * 3 / 2).clamp(16, 1 << 32);
        let nbuckets = nbuckets.next_power_of_two();
        let buckets_base = mem.mmap(nbuckets as usize * BUCKET_BYTES, PageKind::Anon);
        KvStore {
            slab: SlabAllocator::new(),
            buckets_base,
            nbuckets,
            rows: Vec::with_capacity(expected_records),
            live: 0,
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
        self.live
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The simulated address of a stored item (diagnostics: lets tools
    /// check which tier holds a given key's page).
    pub fn item_addr(&self, key: u64) -> Option<VAddr> {
        self.row(key).map(|r| r.item)
    }

    /// Key `key`'s row, if it holds a record.
    fn row(&self, key: u64) -> Option<Row> {
        let row = *self.rows.get(usize::try_from(key).ok()?)?;
        (row.item_len != 0).then_some(row)
    }

    /// `key`'s bucket: its row's, or, for a key with no row, its hash's.
    fn bucket(&self, key: u64, row: Option<Row>) -> u32 {
        let hashed = || (fnv1a_64(key) & (self.nbuckets - 1)) as u32;
        row.map_or_else(hashed, |r| r.bucket)
    }

    fn bucket_addr(&self, bucket: u32) -> VAddr {
        self.buckets_base
            .add(u64::from(bucket) * BUCKET_BYTES as u64)
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
        assert!(key < 1 << 32, "key {key} is not a record number below 2^32");
        self.stats.sets += 1;
        let needed = ITEM_HEADER + len;
        let old = self.row(key);
        let bucket = self.bucket(key, old);
        // Probe the bucket chain head.
        mem.write(self.bucket_addr(bucket), BUCKET_BYTES);
        // A new chunk class moves the item; the same one updates it in place.
        let addr = match old {
            Some(r) if SlabAllocator::same_class(r.item_len as usize, needed) => r.item,
            Some(r) => {
                self.slab.free(r.item, r.item_len as usize);
                self.slab.alloc(mem, needed)
            }
            None => {
                self.live += 1;
                self.slab.alloc(mem, needed)
            }
        };
        let slot = key as usize;
        if slot >= self.rows.len() {
            self.rows.resize(slot + 1, Row::default());
        }
        self.rows[slot] = Row {
            item: addr,
            item_len: needed as u32,
            bucket,
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
        let row = self.find(mem, key)?;
        self.item.resize(row.item_len as usize, 0);
        mem.read_bytes(row.item, &mut self.item);
        debug_assert_eq!(self.item[..8], key.to_le_bytes(), "item header corruption");
        debug_assert_eq!(
            self.item[8..ITEM_HEADER],
            (row.item_len - ITEM_HEADER as u32).to_le_bytes()
        );
        Some(&self.item[ITEM_HEADER..])
    }

    /// YCSB's READ, whose value the client drops: the touches of
    /// [`KvStore::get`] without copying the item out of simulated memory.
    /// Returns whether the key is stored.
    pub(crate) fn read<M: Memory + ?Sized>(&mut self, mem: &mut M, key: u64) -> bool {
        let Some(row) = self.find(mem, key) else {
            return false;
        };
        mem.read(row.item, row.item_len as usize);
        true
    }

    /// A GET's index half: counts it, probes `key`'s bucket and returns
    /// its row, if it holds a record.
    fn find<M: Memory + ?Sized>(&mut self, mem: &mut M, key: u64) -> Option<Row> {
        self.stats.gets += 1;
        let row = self.row(key);
        mem.read(self.bucket_addr(self.bucket(key, row)), BUCKET_BYTES);
        self.stats.hits += u64::from(row.is_some());
        row
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
    use mc_mem::Nanos;
    use mc_trace::{Recorder, Trace};
    use proptest::prelude::*;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

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

    /// The store as it was with a `HashMap` index: the same bucket array
    /// and slab, every op hashing its key to find its bucket and probing
    /// the map for its item. The oracle the row table is checked against.
    struct Model {
        slab: SlabAllocator,
        buckets_base: VAddr,
        nbuckets: u64,
        /// Each stored key's item address and value length.
        index: HashMap<u64, (VAddr, usize)>,
        stats: KvStats,
    }

    impl Model {
        fn new(mem: &mut impl Memory, expected_records: usize) -> Self {
            let nbuckets = ((expected_records * 3 / 2).max(16) as u64).next_power_of_two();
            let buckets_base = mem.mmap(nbuckets as usize * BUCKET_BYTES, PageKind::Anon);
            Model {
                slab: SlabAllocator::new(),
                buckets_base,
                nbuckets,
                index: HashMap::new(),
                stats: KvStats::default(),
            }
        }

        fn bucket_addr(&self, key: u64) -> VAddr {
            let b = fnv1a_64(key) & (self.nbuckets - 1);
            self.buckets_base.add(b * BUCKET_BYTES as u64)
        }

        /// `set` as it was before `set_with`: the value copied in from a
        /// caller's buffer, then the item assembled in a fresh one.
        fn set(&mut self, mem: &mut impl Memory, key: u64, value: &[u8]) {
            self.stats.sets += 1;
            mem.write(self.bucket_addr(key), BUCKET_BYTES);
            let needed = ITEM_HEADER + value.len();
            let addr = match self.index.entry(key) {
                Entry::Occupied(mut slot) => {
                    let (addr, len) = slot.get_mut();
                    if SlabAllocator::chunk_size(ITEM_HEADER + *len)
                        != SlabAllocator::chunk_size(needed)
                    {
                        self.slab.free(*addr, ITEM_HEADER + *len);
                        *addr = self.slab.alloc(mem, needed);
                    }
                    *len = value.len();
                    *addr
                }
                Entry::Vacant(slot) => {
                    let addr = self.slab.alloc(mem, needed);
                    slot.insert((addr, value.len()));
                    addr
                }
            };
            let mut item = key.to_le_bytes().to_vec();
            item.extend_from_slice(&(value.len() as u32).to_le_bytes());
            item.extend_from_slice(value);
            mem.write_bytes(addr, &item);
        }

        /// A GET's index half: the bucket probe, then the map's item.
        fn find(&mut self, mem: &mut impl Memory, key: u64) -> Option<(VAddr, usize)> {
            self.stats.gets += 1;
            mem.read(self.bucket_addr(key), BUCKET_BYTES);
            let found = self.index.get(&key).copied()?;
            self.stats.hits += 1;
            Some(found)
        }

        fn get(&mut self, mem: &mut impl Memory, key: u64) -> Option<Vec<u8>> {
            let (addr, len) = self.find(mem, key)?;
            let mut item = vec![0; ITEM_HEADER + len];
            mem.read_bytes(addr, &mut item);
            Some(item.split_off(ITEM_HEADER))
        }

        fn read(&mut self, mem: &mut impl Memory, key: u64) -> bool {
            let Some((addr, len)) = self.find(mem, key) else {
                return false;
            };
            mem.read(addr, ITEM_HEADER + len);
            true
        }
    }

    #[test]
    fn set_with_and_set_store_what_a_copied_value_stores() {
        let value = |key: u64, len: usize| -> Vec<u8> {
            (0..len).map(|i| (key as u8) ^ (i as u8) ^ 0x5a).collect()
        };
        let mut by_copy = {
            let mut mem = SimpleMemory::new();
            let kv = Model::new(&mut mem, 64);
            (mem, kv)
        };
        let mut sides: [(SimpleMemory, KvStore); 2] = std::array::from_fn(|_| {
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
            let [(m1, by_set), (m2, by_fill)] = &mut sides;
            by_copy.1.set(&mut by_copy.0, key, &v);
            by_set.set(m1, key, &v);
            by_fill.set_with(m2, key, len, |buf| buf.copy_from_slice(&v));
            lens.insert(key, len);
            for (mem, _) in &sides {
                assert_eq!(mem.accesses, by_copy.0.accesses, "touches after key {key}");
                assert_eq!(mem.now(), by_copy.0.now());
            }
        }
        for (&key, &len) in &lens {
            let (addr, _) = by_copy.1.index[&key];
            let copied = stored_item(&mut by_copy.0, addr, len);
            for (mem, kv) in &mut sides {
                assert_eq!(kv.item_addr(key), Some(addr), "key {key} sits elsewhere");
                let item = stored_item(mem, addr, len);
                assert_eq!(item, copied, "item of key {key}");
                assert_eq!(item[..8], key.to_le_bytes());
                assert_eq!(item[8..ITEM_HEADER], (len as u32).to_le_bytes());
                assert_eq!(item[ITEM_HEADER..], value(key, len), "value of key {key}");
            }
        }
        for (_, kv) in &sides {
            assert_eq!(kv.stats(), by_copy.1.stats);
        }
    }

    /// One store op of the differential test.
    #[derive(Debug, Clone)]
    enum Op {
        Set(u64, usize),
        SetWith(u64, usize),
        Get(u64),
        Read(u64),
        Rmw(u64, usize),
        /// D's insert: the key one past the highest inserted so far.
        Append(usize),
    }

    /// Keys that can be stored: the table's first rows, past its initial
    /// capacity, with gaps wherever a sequence skips one.
    fn stored_key() -> impl Strategy<Value = u64> {
        0..48u64
    }

    /// Lookup keys: mostly storable ones, else keys no row can hold.
    fn any_key() -> impl Strategy<Value = u64> {
        (0..52u64).prop_map(|k| match k {
            48 | 49 => 1 << 32,
            50 | 51 => u64::MAX,
            k => k,
        })
    }

    /// Value lengths, half of them at the edges of the 64-, 128- and
    /// 1024-byte chunk classes (the item adds its 12-byte header).
    fn value_len() -> impl Strategy<Value = usize> {
        const EDGES: [usize; 7] = [52, 53, 116, 117, 1012, 1013, 1024];
        (0..2 * EDGES.len(), 0..3000usize)
            .prop_map(|(pick, len)| EDGES.get(pick).copied().unwrap_or(len))
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (stored_key(), value_len()).prop_map(|(k, l)| Op::Set(k, l)),
            (stored_key(), value_len()).prop_map(|(k, l)| Op::SetWith(k, l)),
            any_key().prop_map(Op::Get),
            any_key().prop_map(Op::Read),
            (any_key(), value_len()).prop_map(|(k, l)| Op::Rmw(k, l)),
            value_len().prop_map(Op::Append),
        ]
    }

    /// Lends a memory to a [`Recorder`] for one step, so that each step's
    /// touches are compared on their own.
    struct Lent<'a>(&'a mut SimpleMemory);

    impl Memory for Lent<'_> {
        fn mmap(&mut self, bytes: usize, kind: PageKind) -> VAddr {
            self.0.mmap(bytes, kind)
        }
        fn read(&mut self, addr: VAddr, len: usize) {
            self.0.read(addr, len);
        }
        fn write(&mut self, addr: VAddr, len: usize) {
            self.0.write(addr, len);
        }
        fn write_bytes(&mut self, addr: VAddr, data: &[u8]) {
            self.0.write_bytes(addr, data);
        }
        fn read_bytes(&mut self, addr: VAddr, buf: &mut [u8]) {
            self.0.read_bytes(addr, buf);
        }
        fn now(&self) -> Nanos {
            self.0.now()
        }
        fn compute(&mut self, t: Nanos) {
            self.0.compute(t);
        }
    }

    /// Runs `step` against `mem` and returns its touches.
    fn recorded<'a, T>(
        mem: &'a mut SimpleMemory,
        step: impl FnOnce(&mut Recorder<Lent<'a>>) -> T,
    ) -> (T, Trace) {
        let mut rec = Recorder::new(Lent(mem));
        let out = step(&mut rec);
        (out, rec.finish())
    }

    /// The item stored at `addr`, read from `mem` without a store.
    fn stored_item(mem: &mut SimpleMemory, addr: VAddr, len: usize) -> Vec<u8> {
        let mut item = vec![0xee; ITEM_HEADER + len];
        mem.read_bytes(addr, &mut item);
        item
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_row_table_matches_the_hash_map_index(
            // Below the key range, so the table grows; or so large that the
            // bucket array spans pages, so a trace shows which bucket is read.
            expected in prop_oneof![0..48usize, 256..4096usize],
            ops in prop::collection::vec(op(), 1..80),
        ) {
            let (mut want_mem, mut got_mem) = (SimpleMemory::new(), SimpleMemory::new());
            let mut want = Model::new(&mut want_mem, expected);
            let mut got = KvStore::new(&mut got_mem, expected);
            // One past the highest key inserted: D's next insert.
            let mut next = 0u64;
            for (i, op) in ops.into_iter().enumerate() {
                let (key, len) = match op {
                    Op::Set(k, l) | Op::SetWith(k, l) | Op::Rmw(k, l) => (k, l),
                    Op::Get(k) | Op::Read(k) => (k, 0),
                    Op::Append(l) => (next, l),
                };
                let v: Vec<u8> = (0..len).map(|b| (key as u8) ^ (b as u8) ^ (i as u8)).collect();
                let fill = |buf: &mut [u8]| buf.copy_from_slice(&v);
                // A lookup's outcome: `None` if it missed, else the value a
                // GET read (empty for a READ or RMW, which drop it).
                let (want_out, want_touches) = recorded(&mut want_mem, |m| match op {
                    Op::Set(..) | Op::SetWith(..) | Op::Append(_) => {
                        want.set(m, key, &v);
                        None
                    }
                    Op::Get(_) => Some(want.get(m, key)),
                    Op::Read(_) => Some(want.read(m, key).then(Vec::new)),
                    Op::Rmw(..) => {
                        let found = want.read(m, key);
                        if found {
                            want.set(m, key, &v);
                        }
                        Some(found.then(Vec::new))
                    }
                });
                let (got_out, got_touches) = recorded(&mut got_mem, |m| match op {
                    Op::Set(..) => {
                        got.set(m, key, &v);
                        None
                    }
                    Op::SetWith(..) | Op::Append(_) => {
                        got.set_with(m, key, len, fill);
                        None
                    }
                    Op::Get(_) => Some(got.get(m, key).map(<[u8]>::to_vec)),
                    Op::Read(_) => Some(got.read(m, key).then(Vec::new)),
                    Op::Rmw(..) => Some(got.read_modify_write(m, key, len, fill).then(Vec::new)),
                });
                prop_assert_eq!(got_out, want_out, "step {} ({:?}) returned otherwise", i, op);
                prop_assert_eq!(got_touches, want_touches, "step {} ({:?}) touched otherwise", i, op);
                prop_assert_eq!(got.stats(), want.stats, "step {} ({:?})", i, op);
                prop_assert_eq!(got.len(), want.index.len(), "step {} ({:?})", i, op);
                let at = want.index.get(&key).copied();
                prop_assert_eq!(got.item_addr(key), at.map(|(addr, _)| addr), "step {} ({:?})", i, op);
                if let Some((addr, len)) = at {
                    prop_assert_eq!(
                        stored_item(&mut got_mem, addr, len),
                        stored_item(&mut want_mem, addr, len),
                        "step {} ({:?}) stored otherwise", i, op
                    );
                }
                if matches!(op, Op::Set(..) | Op::SetWith(..) | Op::Append(_)) {
                    next = next.max(key + 1);
                }
            }
            // Every row, gaps and the first row past the end included.
            for key in 0..=next {
                let at = want.index.get(&key).copied();
                prop_assert_eq!(got.item_addr(key), at.map(|(addr, _)| addr), "key {}", key);
                if let Some((addr, len)) = at {
                    prop_assert_eq!(
                        stored_item(&mut got_mem, addr, len),
                        stored_item(&mut want_mem, addr, len),
                        "key {}", key
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "key 4294967296 is not a record number below 2^32")]
    fn a_key_no_row_can_hold_panics_naming_it() {
        let mut mem = SimpleMemory::new();
        let mut kv = KvStore::new(&mut mem, 16);
        kv.set(&mut mem, 1 << 32, b"x");
    }

    #[test]
    fn loading_the_expected_records_never_regrows_the_table() {
        let mut mem = SimpleMemory::new();
        let n = 1000;
        let mut kv = KvStore::new(&mut mem, n);
        let (rows, capacity) = (kv.rows.as_ptr(), kv.rows.capacity());
        for key in 0..n as u64 {
            kv.set(&mut mem, key, &[key as u8; 100]);
        }
        assert_eq!(kv.len(), n);
        assert_eq!((kv.rows.as_ptr(), kv.rows.capacity()), (rows, capacity));
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
