//! The data plane's bytes: for every virtual page a workload stored real
//! bytes to, only the 64-byte lines it wrote.
//!
//! [`Memory::write_bytes`](crate::Memory::write_bytes) is the only way in,
//! and a workload rarely fills a page: the key-value store puts a 1 036-byte
//! item in each 2 KiB chunk, so a page holds 34 written lines of 64. A page
//! therefore keeps a 64-bit mask of its present lines and the lines
//! themselves, packed in line order, and a line's slot is the popcount of
//! the mask below it. An absent line reads as zeros, as an absent page
//! does. Bytes cost no virtual time, so nothing simulated depends on this
//! layout.

use crate::{VAddr, VPage, VPageMap, PAGE_SIZE};

/// Bytes per line: a cache line, the store's one granularity.
const LINE: usize = 64;

/// Lines per page, so one `u64` masks a page.
const LINES: usize = PAGE_SIZE / LINE;

/// Splits `len` bytes at `addr` at page boundaries: one `(page, offset in
/// the page, bytes)` per page touched, in address order.
#[inline]
pub fn page_chunks(addr: VAddr, len: usize) -> impl Iterator<Item = (VPage, usize, usize)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        let at = addr.add(done as u64);
        let n = (PAGE_SIZE - at.page_offset()).min(len - done);
        done += n;
        (n > 0).then(|| (at.page(), at.page_offset(), n))
    })
}

/// The mask of lines `first..first + n`, for `n` in `1..=64`.
fn run_mask(first: usize, n: usize) -> u64 {
    // `1 << 64` overflows: a whole page is its own case.
    let run = if n == LINES { u64::MAX } else { (1 << n) - 1 };
    run << first
}

/// The lines `len` bytes at page offset `offset` cover: first and count.
fn line_span(offset: usize, len: usize) -> (usize, usize) {
    let first = offset / LINE;
    (first, (offset + len - 1) / LINE - first + 1)
}

/// The written lines of one page.
#[derive(Debug, Clone, Default)]
struct Lines {
    /// Bit `i` set: line `i` has been written and sits in `bytes`.
    present: u64,
    /// The present lines, [`LINE`] bytes each, in line order.
    bytes: Vec<u8>,
}

impl Lines {
    /// Where line `line` starts in `bytes`, if it were present: the
    /// present lines below it, times [`LINE`].
    fn slot(&self, line: usize) -> usize {
        (self.present & ((1 << line) - 1)).count_ones() as usize * LINE
    }

    /// Stores `data` at page offset `offset`; the bytes stay in the page.
    #[inline]
    fn write(&mut self, offset: usize, data: &[u8]) {
        let (first, n) = line_span(offset, data.len());
        let missing = run_mask(first, n) & !self.present;
        if missing != 0 {
            self.add(missing);
        }
        // Every line the write covers is present now, and so contiguous.
        let at = self.slot(first) + offset % LINE;
        self.bytes[at..at + data.len()].copy_from_slice(data);
    }

    /// Makes the `missing` lines present, zeroed, with one allocation:
    /// each run of them opens one gap in `bytes`. Out of line, so a store
    /// over lines already present stays short.
    #[inline(never)]
    fn add(&mut self, mut missing: u64) {
        self.bytes
            .reserve_exact(missing.count_ones() as usize * LINE);
        while missing != 0 {
            let start = missing.trailing_zeros() as usize;
            let run = run_mask(start, (missing >> start).trailing_ones() as usize);
            let (at, old_len) = (self.slot(start), self.bytes.len());
            let added = run.count_ones() as usize * LINE;
            self.bytes.resize(old_len + added, 0);
            if at < old_len {
                // The lines above the run move up.
                self.bytes.copy_within(at..old_len, at + added);
                self.bytes[at..at + added].fill(0);
            }
            self.present |= run;
            missing &= !run;
        }
    }

    /// Loads `buf.len()` bytes at page offset `offset`; absent lines read
    /// as zeros.
    fn read(&self, offset: usize, buf: &mut [u8]) {
        let (first, n) = line_span(offset, buf.len());
        if run_mask(first, n) & !self.present == 0 {
            let at = self.slot(first) + offset % LINE;
            buf.copy_from_slice(&self.bytes[at..at + buf.len()]);
            return;
        }
        let (mut slot, mut within) = (self.slot(first), offset % LINE);
        let mut rest = buf;
        for line in first..first + n {
            let take = (LINE - within).min(rest.len());
            let (chunk, tail) = rest.split_at_mut(take);
            if self.present & (1 << line) != 0 {
                chunk.copy_from_slice(&self.bytes[slot + within..slot + within + take]);
                slot += LINE;
            } else {
                chunk.fill(0);
            }
            within = 0;
            rest = tail;
        }
    }
}

/// The bytes workloads stored, by virtual page: the data plane of both
/// [`Memory`](crate::Memory) implementations.
///
/// Pages are kept in a [`VPageMap`], and each keeps only the 64-byte lines
/// that have been written (the module doc has the layout). The default
/// store is empty: every byte reads as zero. Writing over lines already
/// present allocates nothing; a write that adds lines to a page grows its
/// storage once.
#[derive(Debug, Clone, Default)]
pub struct PageBytes {
    pages: VPageMap<Lines>,
}

impl PageBytes {
    /// Stores `data` at `addr`, across as many pages as it spans. A page
    /// at or past [`VPageMap::MAX_VPAGES`] keeps nothing (the memory
    /// refused its touch already) and reads back as zeros.
    #[inline]
    pub fn write(&mut self, addr: VAddr, mut data: &[u8]) {
        for (page, offset, n) in page_chunks(addr, data.len()) {
            let (chunk, rest) = data.split_at(n);
            if let Ok(lines) = self.pages.get_or_insert_with(page, Lines::default) {
                lines.write(offset, chunk);
            }
            data = rest;
        }
    }

    /// Loads `buf.len()` bytes at `addr`; bytes never written read as
    /// zero.
    #[inline]
    pub fn read(&self, addr: VAddr, mut buf: &mut [u8]) {
        for (page, offset, n) in page_chunks(addr, buf.len()) {
            let (chunk, rest) = buf.split_at_mut(n);
            match self.pages.get(page) {
                Some(lines) => lines.read(offset, chunk),
                None => chunk.fill(0),
            }
            buf = rest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pages the oracle test spans.
    const PAGES: usize = 4;
    const SPAN: usize = PAGES * PAGE_SIZE;

    /// One step against the store and a flat model of the span.
    #[derive(Debug, Clone)]
    enum Op {
        Write { at: usize, len: usize, seed: u8 },
        Read { at: usize, len: usize },
    }

    /// `len` bytes derived from `seed`, never all zero, so a lost line
    /// cannot pass for an absent one.
    fn payload(seed: u8, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed | 1)
            .collect()
    }

    /// Spans that stress the layout: whole pages, the last byte of a page,
    /// straddles of a page and of a line, and anything else in the span.
    fn span() -> impl Strategy<Value = (usize, usize)> {
        prop_oneof![
            (0..PAGES).prop_map(|p| (p * PAGE_SIZE, PAGE_SIZE)),
            (0..PAGES).prop_map(|p| (p * PAGE_SIZE + PAGE_SIZE - 1, 1usize)),
            (1..PAGES, 1..200usize, 1..400usize)
                .prop_map(|(p, back, len)| (p * PAGE_SIZE - back, len)),
            (0..SPAN / LINE, 1..LINE, 1..3 * LINE)
                .prop_map(|(l, back, len)| ((l * LINE).saturating_sub(back), len)),
            (0..SPAN, 1..2 * PAGE_SIZE),
        ]
        .prop_map(|(at, len): (usize, usize)| (at, len.min(SPAN - at)))
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (span(), any::<u8>()).prop_map(|((at, len), seed)| Op::Write { at, len, seed }),
            span().prop_map(|(at, len)| Op::Read { at, len }),
        ]
    }

    /// Every page's storage holds exactly its present lines.
    fn assert_packed(store: &PageBytes) {
        for p in 0..PAGES as u64 {
            if let Some(lines) = store.pages.get(VPage::new(p)) {
                assert_eq!(
                    lines.bytes.len(),
                    lines.present.count_ones() as usize * LINE
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_store_reads_back_what_a_flat_model_holds(
            ops in prop::collection::vec(op(), 1..40),
        ) {
            let (mut store, mut model) = (PageBytes::default(), vec![0u8; SPAN]);
            for op in ops {
                match op {
                    Op::Write { at, len, seed } => {
                        let data = payload(seed, len);
                        store.write(VAddr::new(at as u64), &data);
                        model[at..at + len].copy_from_slice(&data);
                    }
                    Op::Read { at, len } => {
                        let mut buf = vec![0xee; len];
                        store.read(VAddr::new(at as u64), &mut buf);
                        prop_assert_eq!(&buf[..], &model[at..at + len], "read {} at {}", len, at);
                    }
                }
                assert_packed(&store);
            }
            let mut all = vec![0xee; SPAN];
            store.read(VAddr::new(0), &mut all);
            prop_assert_eq!(all, model);
        }
    }

    #[test]
    fn a_whole_page_write_fills_every_line() {
        let mut store = PageBytes::default();
        let data = payload(7, PAGE_SIZE);
        store.write(VAddr::new(PAGE_SIZE as u64), &data);
        let lines = store.pages.get(VPage::new(1)).map(|l| l.present);
        assert_eq!(lines, Some(u64::MAX));
        let mut buf = vec![0; PAGE_SIZE];
        store.read(VAddr::new(PAGE_SIZE as u64), &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn the_last_byte_of_a_page_is_its_last_line() {
        let mut store = PageBytes::default();
        store.write(VAddr::new(PAGE_SIZE as u64 - 1), &[9]);
        let lines = store
            .pages
            .get(VPage::new(0))
            .map(|l| (l.present, l.bytes.len()));
        assert_eq!(lines, Some((1 << 63, LINE)));
        let mut buf = [1; 3];
        store.read(VAddr::new(PAGE_SIZE as u64 - 2), &mut buf);
        assert_eq!(
            buf,
            [0, 9, 0],
            "absent lines and an absent page read as zeros"
        );
    }

    #[test]
    fn two_items_in_a_page_keep_34_lines() {
        // Two slab items of the key-value store: a 12-byte header and a
        // 1 KiB value each, in the two 2 KiB chunks of one page.
        let mut store = PageBytes::default();
        let base = 5 * PAGE_SIZE as u64;
        store.write(VAddr::new(base), &payload(1, 1036));
        store.write(VAddr::new(base + 2048), &payload(2, 1036));
        let lines = store.pages.get(VPage::new(5));
        assert_eq!(lines.map(|l| l.present.count_ones()), Some(34));
        assert_eq!(lines.map(|l| l.bytes.capacity()), Some(34 * LINE));
        assert_eq!(store.pages.len(), 1);
    }
}
