//! The benchmark-side [`Memory`] decorator. It sits between the workload
//! and the simulation, so it sees every workload-level call without any
//! probe inside a crate. Untraced it is clock-free: it counts calls and
//! the pages they should touch and records each call's *virtual* latency
//! (`sim.now()` before and after). Traced it also opens host-time spans
//! around calls (sampled, see [`crate::spans`]), as children of the op
//! that made them.

use crate::cputime::thread_cpu_time;
use crate::spans::{SpanLog, SpanName};
use mc_mem::{Memory, Nanos, PageKind, VAddr};
use mc_sim::{LatencyHistogram, Simulation};
use std::time::Duration;

/// Data calls between two marks of the host CPU-time line.
const MARK_EVERY_CALLS: u64 = 1 << 14;

pub struct Probe<'a> {
    sim: &'a mut Simulation,
    /// Workload-level `Memory` calls that move data (compute excluded).
    pub calls: u64,
    /// Pages those calls span: what `MemStats.reads + writes` must grow
    /// by, unless the engine skipped an access.
    pub touches: u64,
    /// Virtual latency of each data call.
    pub virt: LatencyHistogram,
    /// Host CPU time (see [`crate::cputime`]), marked every
    /// [`MARK_EVERY_CALLS`] data calls: lets the caller see the phase as
    /// segments and discount the ones the host disturbed.
    pub marks: Vec<Duration>,
    pub log: Option<SpanLog>,
}

fn pages_spanned(addr: VAddr, len: usize) -> u64 {
    let last = addr.add(len.max(1) as u64 - 1);
    last.page().raw() - addr.page().raw() + 1
}

impl<'a> Probe<'a> {
    pub fn new(sim: &'a mut Simulation, log: Option<SpanLog>) -> Self {
        Probe {
            sim,
            calls: 0,
            touches: 0,
            virt: LatencyHistogram::new(),
            marks: Vec::new(),
            log,
        }
    }

    /// Marks the host CPU-time line now (the caller marks both ends of
    /// the phase; the probe marks in between).
    pub fn mark(&mut self) {
        self.marks.push(thread_cpu_time());
    }

    pub fn begin_op(&mut self) {
        if let Some(log) = &mut self.log {
            log.begin_op();
        }
    }

    pub fn end_op(&mut self) {
        if let Some(log) = &mut self.log {
            log.end_op();
        }
    }

    fn data_call(&mut self, name: SpanName, pages: u64, f: impl FnOnce(&mut Simulation)) {
        self.calls += 1;
        self.touches += pages;
        if self.calls.is_multiple_of(MARK_EVERY_CALLS) {
            self.mark();
        }
        let virt_start = self.sim.now();
        self.timed(name, f);
        self.virt.record(self.sim.now() - virt_start);
    }

    fn timed<R>(&mut self, name: SpanName, f: impl FnOnce(&mut Simulation) -> R) -> R {
        let start = self.log.as_mut().and_then(SpanLog::call_start);
        let out = f(self.sim);
        if let (Some(log), Some(start)) = (&mut self.log, start) {
            log.call_end(name, start);
        }
        out
    }
}

impl Memory for Probe<'_> {
    fn mmap(&mut self, bytes: usize, kind: PageKind) -> VAddr {
        self.timed(SpanName::Mmap, |sim| sim.mmap(bytes, kind))
    }

    fn read(&mut self, addr: VAddr, len: usize) {
        self.data_call(SpanName::Read, pages_spanned(addr, len), |sim| {
            sim.read(addr, len)
        });
    }

    fn write(&mut self, addr: VAddr, len: usize) {
        self.data_call(SpanName::Write, pages_spanned(addr, len), |sim| {
            sim.write(addr, len)
        });
    }

    fn write_bytes(&mut self, addr: VAddr, data: &[u8]) {
        self.data_call(
            SpanName::WriteBytes,
            pages_spanned(addr, data.len()),
            |sim| sim.write_bytes(addr, data),
        );
    }

    fn read_bytes(&mut self, addr: VAddr, buf: &mut [u8]) {
        self.data_call(SpanName::ReadBytes, pages_spanned(addr, buf.len()), |sim| {
            sim.read_bytes(addr, buf)
        });
    }

    fn now(&self) -> Nanos {
        self.sim.now()
    }

    /// Due daemon ticks fire inside `compute` as well as inside accesses,
    /// so it gets a span too; it moves no data, so it is not a data call.
    fn compute(&mut self, t: Nanos) {
        self.timed(SpanName::Compute, |sim| sim.compute(t));
    }
}
