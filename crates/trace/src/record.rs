//! Trace recording: a [`Memory`] decorator.

use crate::trace::{Trace, TraceEvent};
use mc_mem::Memory;
use mc_mem::{AccessKind, Nanos, PageKind, VAddr, VPage, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Wraps a [`Memory`], recording every page touch the workload performs
/// while forwarding all operations unchanged.
///
/// With [`Recorder::with_sampling`], only a random subset of pages is
/// recorded — the paper's §II-A technique for keeping tracing overhead
/// tractable ("we randomly sampled pages from memory ... and traced the
/// accesses to these sampled pages").
#[derive(Debug)]
pub struct Recorder<M> {
    inner: M,
    trace: Trace,
    /// When set, only pages in the set are recorded.
    sample: Option<SampleFilter>,
    mapped_pages: u64,
}

#[derive(Debug)]
struct SampleFilter {
    /// Probability of admitting a newly seen page into the sample.
    rate: f64,
    rng: StdRng,
    admitted: HashSet<u64>,
    rejected: HashSet<u64>,
    limit: usize,
}

impl<M: Memory> Recorder<M> {
    /// Records every page touch.
    pub fn new(inner: M) -> Self {
        Recorder {
            inner,
            trace: Trace::new(),
            sample: None,
            mapped_pages: 0,
        }
    }

    /// Records only a random sample of pages: each page is admitted with
    /// probability `rate` on first touch, up to `limit` pages (the
    /// paper's 50-page samples use a small limit).
    pub fn with_sampling(inner: M, rate: f64, limit: usize, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        assert!(limit > 0, "sample limit must be positive");
        Recorder {
            inner,
            trace: Trace::new(),
            sample: Some(SampleFilter {
                rate,
                rng: StdRng::seed_from_u64(seed),
                admitted: HashSet::new(),
                rejected: HashSet::new(),
                limit,
            }),
            mapped_pages: 0,
        }
    }

    /// The pages currently admitted to the sample (empty when recording
    /// everything).
    pub fn sampled_pages(&self) -> Vec<VPage> {
        match &self.sample {
            Some(s) => {
                let mut v: Vec<u64> = s.admitted.iter().copied().collect();
                v.sort_unstable();
                v.into_iter().map(VPage::new).collect()
            }
            None => Vec::new(),
        }
    }

    /// Stops recording and returns the trace.
    pub fn finish(mut self) -> Trace {
        self.trace.mapped_pages = self.trace.mapped_pages.max(self.mapped_pages);
        self.trace
    }

    /// Access to the wrapped memory.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    fn admit(&mut self, vpage: VPage) -> bool {
        match &mut self.sample {
            None => true,
            Some(s) => {
                let raw = vpage.raw();
                if s.admitted.contains(&raw) {
                    return true;
                }
                if s.rejected.contains(&raw) {
                    return false;
                }
                if s.admitted.len() < s.limit && s.rng.gen_bool(s.rate) {
                    s.admitted.insert(raw);
                    true
                } else {
                    s.rejected.insert(raw);
                    false
                }
            }
        }
    }

    fn record(&mut self, addr: VAddr, len: usize, kind: AccessKind) {
        let at = self.inner.now();
        let len = len.max(1);
        let mut page = addr.page();
        let last = addr.add(len as u64 - 1).page();
        let mut offset = addr.page_offset();
        let mut remaining = len;
        loop {
            let in_page = (PAGE_SIZE - offset).min(remaining);
            if self.admit(page) {
                self.trace.push(TraceEvent {
                    at,
                    vpage: page,
                    kind,
                    bytes: in_page as u16,
                });
            }
            remaining -= in_page;
            if page == last {
                break;
            }
            page = page.next();
            offset = 0;
        }
    }
}

impl<M: Memory> Memory for Recorder<M> {
    fn mmap(&mut self, bytes: usize, kind: PageKind) -> VAddr {
        self.mapped_pages += bytes.div_ceil(PAGE_SIZE) as u64;
        self.inner.mmap(bytes, kind)
    }

    fn read(&mut self, addr: VAddr, len: usize) {
        self.record(addr, len, AccessKind::Read);
        self.inner.read(addr, len);
    }

    fn write(&mut self, addr: VAddr, len: usize) {
        self.record(addr, len, AccessKind::Write);
        self.inner.write(addr, len);
    }

    fn write_bytes(&mut self, addr: VAddr, data: &[u8]) {
        self.record(addr, data.len(), AccessKind::Write);
        self.inner.write_bytes(addr, data);
    }

    fn read_bytes(&mut self, addr: VAddr, buf: &mut [u8]) {
        self.record(addr, buf.len(), AccessKind::Read);
        self.inner.read_bytes(addr, buf);
    }

    fn now(&self) -> Nanos {
        self.inner.now()
    }

    fn compute(&mut self, t: Nanos) {
        self.inner.compute(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_mem::SimpleMemory;

    #[test]
    fn records_all_touches_with_time_and_kind() {
        let mut rec = Recorder::new(SimpleMemory::new());
        let a = rec.mmap(PAGE_SIZE * 4, PageKind::Anon);
        rec.read(a, 8);
        rec.write(a.add(PAGE_SIZE as u64), 100);
        rec.write_bytes(a.add(2 * PAGE_SIZE as u64), b"xyz");
        let t = rec.finish();
        assert_eq!(t.len(), 3);
        assert_eq!(t.mapped_pages, 4);
        let e = t.events();
        assert_eq!(e[0].vpage, VPage::new(0));
        assert_eq!(e[0].kind, AccessKind::Read);
        assert_eq!(e[1].vpage, VPage::new(1));
        assert_eq!(e[1].kind, AccessKind::Write);
        assert_eq!(e[2].bytes, 3);
        assert!(e[1].at > e[0].at, "time flows through the decorator");
    }

    #[test]
    fn spanning_access_records_every_page() {
        let mut rec = Recorder::new(SimpleMemory::new());
        let a = rec.mmap(PAGE_SIZE * 3, PageKind::Anon);
        rec.read(a, 3 * PAGE_SIZE);
        let t = rec.finish();
        assert_eq!(t.len(), 3);
        assert_eq!(t.unique_pages(), 3);
        assert_eq!(t.events()[0].bytes as usize, PAGE_SIZE);
    }

    #[test]
    fn data_plane_passes_through() {
        let mut rec = Recorder::new(SimpleMemory::new());
        let a = rec.mmap(PAGE_SIZE, PageKind::Anon);
        rec.write_bytes(a, b"hello");
        let mut buf = [0u8; 5];
        rec.read_bytes(a, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn sampling_restricts_recorded_pages() {
        let mut rec = Recorder::with_sampling(SimpleMemory::new(), 0.3, 8, 7);
        let a = rec.mmap(PAGE_SIZE * 64, PageKind::Anon);
        for round in 0..3 {
            for i in 0..64u64 {
                rec.read(a.add(i * PAGE_SIZE as u64), 8);
            }
            let _ = round;
        }
        let sampled = rec.sampled_pages();
        assert!(
            !sampled.is_empty() && sampled.len() <= 8,
            "{}",
            sampled.len()
        );
        let t = rec.finish();
        // Every event belongs to a sampled page, and each sampled page
        // appears once per round.
        let sset: HashSet<u64> = sampled.iter().map(|p| p.raw()).collect();
        assert!(t.events().iter().all(|e| sset.contains(&e.vpage.raw())));
        assert_eq!(t.len(), 3 * sampled.len());
    }

    #[test]
    fn sampling_is_stable_per_page() {
        let mut rec = Recorder::with_sampling(SimpleMemory::new(), 0.5, 4, 3);
        let a = rec.mmap(PAGE_SIZE * 16, PageKind::Anon);
        for _ in 0..5 {
            rec.read(a, 8);
        }
        let t = rec.finish();
        // Page 0 was either always recorded or never.
        assert!(t.len() == 5 || t.is_empty());
    }
}
