//! The trace data structure and its binary codec.

use mc_mem::{AccessKind, Nanos, VPage};
use std::io::{self, Read, Write};

/// One recorded page touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the access.
    pub at: Nanos,
    /// The page touched.
    pub vpage: VPage,
    /// Load or store.
    pub kind: AccessKind,
    /// Bytes touched within the page (1..=4096).
    pub bytes: u16,
}

/// A recorded page-access trace.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    /// Pages the traced address space spans (for replay pre-sizing): above
    /// every event's page. [`Self::push`] keeps it so; [`Self::read_from`]
    /// rejects a file where it is not.
    pub mapped_pages: u64,
}

/// Magic bytes of the binary format.
const MAGIC: &[u8; 8] = b"MCTRACE1";

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event. Events must be appended in non-decreasing time
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous event or `bytes` is zero or
    /// exceeds a page.
    pub fn push(&mut self, ev: TraceEvent) {
        if let Some(last) = self.events.last() {
            assert!(ev.at >= last.at, "trace events must be time-ordered");
        }
        assert!(
            (1..=mc_mem::PAGE_SIZE as u16).contains(&ev.bytes),
            "bytes must be within a page"
        );
        self.mapped_pages = self.mapped_pages.max(ev.vpage.raw().saturating_add(1));
        self.events.push(ev);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Duration from first to last event.
    pub fn duration(&self) -> Nanos {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.at - a.at,
            _ => Nanos::ZERO,
        }
    }

    /// Distinct pages touched.
    pub fn unique_pages(&self) -> usize {
        let mut pages: Vec<u64> = self.events.iter().map(|e| e.vpage.raw()).collect();
        pages.sort_unstable();
        pages.dedup();
        pages.len()
    }

    /// Writes the compact binary form (fixed 19 bytes per event after a
    /// 24-byte header).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&self.mapped_pages.to_le_bytes())?;
        w.write_all(&(self.events.len() as u64).to_le_bytes())?;
        for e in &self.events {
            w.write_all(&e.at.as_nanos().to_le_bytes())?;
            w.write_all(&e.vpage.raw().to_le_bytes())?;
            w.write_all(&e.bytes.to_le_bytes())?;
            w.write_all(&[u8::from(e.kind.is_write())])?;
        }
        Ok(())
    }

    /// Reads a trace previously written with [`Self::write_to`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for bad magic, corrupt fields or truncation.
    /// Page numbers come from outside the program and later index dense
    /// tables, so they are checked here: the header's `mapped_pages` must
    /// fit the page table and every event's page must lie below it.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad trace magic",
            ));
        }
        let mut u64buf = [0u8; 8];
        r.read_exact(&mut u64buf)?;
        let mapped_pages = u64::from_le_bytes(u64buf);
        if mapped_pages > mc_mem::PageTable::MAX_VPAGES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "corrupt trace header",
            ));
        }
        r.read_exact(&mut u64buf)?;
        let n = u64::from_le_bytes(u64buf) as usize;
        let mut trace = Trace {
            // `n` is unvalidated until the events have been read.
            events: Vec::with_capacity(n.min(1 << 20)),
            mapped_pages,
        };
        let mut u16buf = [0u8; 2];
        let mut u8buf = [0u8; 1];
        let mut prev = Nanos::ZERO;
        for _ in 0..n {
            r.read_exact(&mut u64buf)?;
            let at = Nanos::from_nanos(u64::from_le_bytes(u64buf));
            r.read_exact(&mut u64buf)?;
            let vpage = VPage::new(u64::from_le_bytes(u64buf));
            r.read_exact(&mut u16buf)?;
            let bytes = u16::from_le_bytes(u16buf);
            r.read_exact(&mut u8buf)?;
            let kind = if u8buf[0] != 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            if at < prev
                || bytes == 0
                || bytes as usize > mc_mem::PAGE_SIZE
                || vpage.raw() >= mapped_pages
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "corrupt trace event",
                ));
            }
            prev = at;
            trace.events.push(TraceEvent {
                at,
                vpage,
                kind,
                bytes,
            });
        }
        Ok(trace)
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceEvent>>(iter: T) -> Self {
        let mut t = Trace::new();
        for e in iter {
            t.push(e);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, page: u64, write: bool) -> TraceEvent {
        TraceEvent {
            at: Nanos::from_nanos(at),
            vpage: VPage::new(page),
            kind: if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            bytes: 8,
        }
    }

    #[test]
    fn push_and_stats() {
        let t: Trace = [ev(10, 1, false), ev(20, 2, true), ev(30, 1, false)]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 3);
        assert_eq!(t.unique_pages(), 2);
        assert_eq!(t.duration().as_nanos(), 20);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_rejected() {
        let mut t = Trace::new();
        t.push(ev(20, 1, false));
        t.push(ev(10, 1, false));
    }

    #[test]
    fn binary_roundtrip() {
        let mut t: Trace = (0..500u64).map(|i| ev(i * 7, i % 37, i % 3 == 0)).collect();
        t.mapped_pages = 37;
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), 24 + 500 * 19);
        let back = Trace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    /// The file's page numbers end up indexing dense tables, so a page at
    /// or past `mapped_pages` — or a `mapped_pages` no page table could
    /// hold — is corruption, not a sizing hint.
    #[test]
    fn out_of_range_pages_rejected() {
        let t: Trace = [ev(1, 3, false), ev(2, 9, true)].into_iter().collect();
        assert_eq!(
            t.mapped_pages, 10,
            "push keeps mapped_pages above every page"
        );
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        assert_eq!(Trace::read_from(&mut buf.as_slice()).unwrap(), t);

        // Header claims 9 pages; the second event touches page 9.
        let mut short = buf.clone();
        short[8..16].copy_from_slice(&9u64.to_le_bytes());
        let err = Trace::read_from(&mut short.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "corrupt trace event");

        // A wild page number in an event.
        let mut wild = buf.clone();
        wild[24 + 8..24 + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Trace::read_from(&mut wild.as_slice()).is_err());

        // A header no page table could hold.
        let mut huge = buf;
        huge[8..16].copy_from_slice(&(mc_mem::PageTable::MAX_VPAGES + 1).to_le_bytes());
        let err = Trace::read_from(&mut huge.as_slice()).unwrap_err();
        assert_eq!(err.to_string(), "corrupt trace header");
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut buf = Vec::new();
        Trace::new().write_to(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(Trace::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let t: Trace = [ev(1, 1, false), ev(2, 2, false)].into_iter().collect();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(Trace::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn empty_trace_roundtrip() {
        let mut buf = Vec::new();
        Trace::new().write_to(&mut buf).unwrap();
        let back = Trace::read_from(&mut buf.as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.duration(), Nanos::ZERO);
    }
}
