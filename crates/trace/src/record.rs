//! Trace recording: a [`Memory`] decorator.

use crate::trace::{Trace, TraceEvent};
use mc_mem::Memory;
use mc_mem::{AccessKind, Nanos, PageKind, VAddr, PAGE_SIZE};

/// Wraps a [`Memory`], recording every page touch the workload performs
/// while forwarding all operations unchanged.
#[derive(Debug)]
pub struct Recorder<M> {
    inner: M,
    trace: Trace,
}

impl<M: Memory> Recorder<M> {
    /// Records every page touch.
    pub fn new(inner: M) -> Self {
        Recorder {
            inner,
            trace: Trace::new(),
        }
    }

    /// Stops recording and returns the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }

    /// Access to the wrapped memory.
    pub fn inner(&self) -> &M {
        &self.inner
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
            self.trace.push(TraceEvent {
                at,
                vpage: page,
                kind,
                bytes: in_page as u16,
            });
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
    use mc_mem::{SimpleMemory, VPage};

    #[test]
    fn records_all_touches_with_time_and_kind() {
        let mut rec = Recorder::new(SimpleMemory::new());
        let a = rec.mmap(PAGE_SIZE * 4, PageKind::Anon);
        rec.read(a, 8);
        rec.write(a.add(PAGE_SIZE as u64), 100);
        rec.write_bytes(a.add(2 * PAGE_SIZE as u64), b"xyz");
        let t = rec.finish();
        assert_eq!(t.len(), 3);
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
        let pages: Vec<u64> = t.events().iter().map(|e| e.vpage.raw()).collect();
        assert_eq!(pages, [0, 1, 2]);
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
}
