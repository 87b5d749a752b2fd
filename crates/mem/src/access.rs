//! The memory interface workloads (and trace record/replay) are written
//! against.
//!
//! Clients of this module never see frames, tiers or policies — they
//! allocate regions, load and store, and time passes. The `mc-sim` engine
//! implements this trait on top of the tiering substrate; [`SimpleMemory`]
//! is a flat, policy-free implementation for unit-testing workload logic.
//! The trait lives here in `mc-mem` (rather than in `mc-workloads`, which
//! re-exports it) so lower layers such as `mc-trace` can consume it
//! without depending on workload code.
//!
//! Access-cost semantics implementations must follow:
//!
//! * [`Memory::read`]/[`Memory::write`] charge the device access latency
//!   **once per page touched** plus a bandwidth (streaming) cost for the
//!   bytes beyond one cache line — so random single-element accesses pay
//!   full latency while sequential scans are bandwidth-bound, matching how
//!   CPU caches amortise DRAM/PM latency;
//! * every touched page's PTE reference bit is set (these are
//!   *unsupervised* accesses in the paper's terms — the OS only learns of
//!   them by scanning).

use crate::{Nanos, PageKind, VAddr, VPageMap, PAGE_SIZE};

/// The workload-facing memory abstraction.
pub trait Memory {
    /// Reserves a zero-initialised region of at least `bytes` bytes and
    /// returns its base address. Regions are page-aligned and never
    /// overlap. Every page is anonymous, so `kind` carries nothing.
    fn mmap(&mut self, bytes: usize, kind: PageKind) -> VAddr;

    /// Loads `len` bytes at `addr` (access accounting only; no data).
    fn read(&mut self, addr: VAddr, len: usize);

    /// Stores `len` bytes at `addr` (access accounting only; no data).
    fn write(&mut self, addr: VAddr, len: usize);

    /// Stores real bytes (data plane + the same accounting as
    /// [`Memory::write`]).
    fn write_bytes(&mut self, addr: VAddr, data: &[u8]);

    /// Loads real bytes previously stored with [`Memory::write_bytes`];
    /// unwritten bytes read as zero.
    fn read_bytes(&mut self, addr: VAddr, buf: &mut [u8]);

    /// Current virtual time.
    fn now(&self) -> Nanos;

    /// Charges pure CPU time (computation between memory accesses).
    fn compute(&mut self, t: Nanos);
}

/// A flat in-process [`Memory`] with no tiering: every access costs a
/// fixed latency. Used to unit-test workloads in isolation.
#[derive(Debug, Default)]
pub struct SimpleMemory {
    next_page: u64,
    data: VPageMap<Box<[u8; PAGE_SIZE]>>,
    clock: Nanos,
    /// Accesses performed (reads + writes), for tests.
    pub accesses: u64,
    /// Fixed per-page-touch latency.
    pub access_cost: Nanos,
}

impl SimpleMemory {
    /// A fresh flat memory with a 100 ns access cost.
    pub fn new() -> Self {
        SimpleMemory {
            access_cost: Nanos::from_nanos(100),
            ..Default::default()
        }
    }

    fn touch(&mut self, addr: VAddr, len: usize) {
        let first = addr.page().raw();
        let last = addr.add(len.max(1) as u64 - 1).page().raw();
        let pages = last - first + 1;
        self.accesses += pages;
        self.clock += Nanos::from_nanos(self.access_cost.as_nanos() * pages);
    }
}

impl Memory for SimpleMemory {
    fn mmap(&mut self, bytes: usize, _kind: PageKind) -> VAddr {
        assert!(bytes > 0, "cannot map an empty region");
        let pages = bytes.div_ceil(PAGE_SIZE) as u64;
        let base = self.next_page;
        self.next_page += pages;
        VAddr::new(base * PAGE_SIZE as u64)
    }

    fn read(&mut self, addr: VAddr, len: usize) {
        self.touch(addr, len);
    }

    fn write(&mut self, addr: VAddr, len: usize) {
        self.touch(addr, len);
    }

    fn write_bytes(&mut self, addr: VAddr, data: &[u8]) {
        self.touch(addr, data.len());
        let mut off = 0usize;
        while off < data.len() {
            let a = addr.add(off as u64);
            let in_page = a.page_offset();
            let n = (PAGE_SIZE - in_page).min(data.len() - off);
            // Pages come from `mmap`, densely from zero: inside the span.
            if let Ok(slot) = self
                .data
                .get_or_insert_with(a.page(), || Box::new([0u8; PAGE_SIZE]))
            {
                slot[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            }
            off += n;
        }
    }

    fn read_bytes(&mut self, addr: VAddr, buf: &mut [u8]) {
        self.touch(addr, buf.len());
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr.add(off as u64);
            let in_page = a.page_offset();
            let n = (PAGE_SIZE - in_page).min(buf.len() - off);
            match self.data.get(a.page()) {
                Some(slot) => buf[off..off + n].copy_from_slice(&slot[in_page..in_page + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
    }

    fn now(&self) -> Nanos {
        self.clock
    }

    fn compute(&mut self, t: Nanos) {
        self.clock += t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_regions_never_overlap() {
        let mut m = SimpleMemory::new();
        let a = m.mmap(10, PageKind::Anon);
        let b = m.mmap(PAGE_SIZE + 1, PageKind::Anon);
        let c = m.mmap(1, PageKind::Anon);
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), PAGE_SIZE as u64, "10 bytes round up to one page");
        assert_eq!(c.raw(), 3 * PAGE_SIZE as u64, "PAGE_SIZE+1 takes two pages");
    }

    #[test]
    fn bytes_round_trip() {
        let mut m = SimpleMemory::new();
        let base = m.mmap(3 * PAGE_SIZE, PageKind::Anon);
        // Write spanning a page boundary.
        let addr = base.add(PAGE_SIZE as u64 - 3);
        let data = [1u8, 2, 3, 4, 5, 6, 7];
        m.write_bytes(addr, &data);
        let mut out = [0u8; 7];
        m.read_bytes(addr, &mut out);
        assert_eq!(out, data);
        // Unwritten memory reads as zero.
        let mut z = [9u8; 4];
        m.read_bytes(base.add(100), &mut z);
        assert_eq!(z, [0, 0, 0, 0]);
    }

    #[test]
    fn touch_counts_pages_not_bytes() {
        let mut m = SimpleMemory::new();
        let base = m.mmap(4 * PAGE_SIZE, PageKind::Anon);
        m.read(base, 8);
        assert_eq!(m.accesses, 1);
        m.read(base, 2 * PAGE_SIZE);
        assert_eq!(m.accesses, 3, "a two-page span touches two pages");
    }

    #[test]
    fn clock_advances_with_accesses_and_compute() {
        let mut m = SimpleMemory::new();
        let base = m.mmap(PAGE_SIZE, PageKind::Anon);
        assert_eq!(m.now(), Nanos::ZERO);
        m.read(base, 1);
        assert_eq!(m.now(), Nanos::from_nanos(100));
        m.compute(Nanos::from_micros(1));
        assert_eq!(m.now().as_nanos(), 1_100);
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn empty_mmap_rejected() {
        let mut m = SimpleMemory::new();
        let _ = m.mmap(0, PageKind::Anon);
    }
}
