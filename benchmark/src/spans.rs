//! Host-time spans recorded by the benchmark around the calls it makes
//! into each layer.
//!
//! Every op gets a span. Reading the clock twice costs about as much as
//! one cheap `Memory` call (PageRank makes 12 M of them a second), so call
//! spans are sampled: every call inside every 64th op, and every 7th call
//! elsewhere. A timed span also contains one clock read's worth of time
//! that is not the callee's (the tail of the first read and the head of
//! the second); the log measures that cost when it is created and takes
//! it off every timed call, or scaling the samples up would overstate the
//! calls by half on PageRank. Timed spans feed per-name aggregates (count,
//! total, histogram), and totals over all calls are estimated by scaling
//! with calls made / calls timed. Full span records (raw timestamps) are
//! kept in memory for the sampled ops and written out when the run ends.

use mc_mem::Nanos;
use mc_obs::perf::PhaseSummary;
use mc_sim::LatencyHistogram;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Ops whose index is a multiple of this are sampled: all their calls
/// are timed and full records kept.
const SAMPLE_EVERY_OPS: u64 = 64;
/// Calls timed and recorded per sampled op. A PageRank trial makes
/// millions of calls; beyond this it is sampled like any other op.
const MAX_CHILD_RECORDS_PER_OP: u32 = 4096;
/// Outside sampled ops every this-many-th call is timed. Odd, so that it
/// cycles through the call pattern of an op (compute/bucket/item,
/// get/set) instead of locking onto one member.
const TIME_EVERY_CALLS: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    Op,
    Mmap,
    Read,
    Write,
    ReadBytes,
    WriteBytes,
    Compute,
}

impl SpanName {
    pub const ALL: [SpanName; 7] = [
        SpanName::Op,
        SpanName::Mmap,
        SpanName::Read,
        SpanName::Write,
        SpanName::ReadBytes,
        SpanName::WriteBytes,
        SpanName::Compute,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Op => "op",
            SpanName::Mmap => "mmap",
            SpanName::Read => "read",
            SpanName::Write => "write",
            SpanName::ReadBytes => "read_bytes",
            SpanName::WriteBytes => "write_bytes",
            SpanName::Compute => "compute",
        }
    }

    /// The layer (crate) whose code the span times: an op is workload
    /// code, every `Memory` call lands in the simulation.
    pub fn layer(self) -> &'static str {
        match self {
            SpanName::Op => "workloads",
            _ => "sim",
        }
    }
}

/// Count, total and duration histogram of the spans of one name.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub hist: LatencyHistogram,
}

impl Agg {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.hist.record(Nanos::from_nanos(ns));
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Self time of one span: its duration minus the part of that interval
/// its child spans cover. Children arrive in start order; they may nest,
/// abut or overlap, and anything outside the parent is clipped.
#[derive(Debug, Clone, Copy)]
pub struct SelfTime {
    start: u64,
    /// End of the latest stretch already counted as covered.
    frontier: u64,
    covered: u64,
}

impl SelfTime {
    pub fn new(start: u64) -> Self {
        SelfTime {
            start,
            frontier: start,
            covered: 0,
        }
    }

    pub fn child(&mut self, start: u64, end: u64) {
        let from = start.max(self.frontier);
        if end > from {
            self.covered += end - from;
            self.frontier = end;
        }
    }

    pub fn finish(self, end: u64) -> u64 {
        let overshoot = self.frontier.saturating_sub(end.max(self.start));
        let covered = self.covered.saturating_sub(overshoot);
        end.saturating_sub(self.start).saturating_sub(covered)
    }
}

#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    id: u64,
    /// 0 for a span without a parent.
    parent: u64,
    name: SpanName,
    start_ns: u64,
    end_ns: u64,
    op: u64,
    /// Self time, for an op all of whose calls were timed.
    self_ns: Option<u64>,
}

#[derive(Debug)]
struct OpenOp {
    id: u64,
    index: u64,
    self_time: SelfTime,
    start_ns: u64,
    sampled: bool,
    child_records: u32,
    /// Whether a call of this op went untimed.
    has_untimed_calls: bool,
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    /// Host ns between two back-to-back clock reads.
    clock_read_ns: u64,
    aggs: [Agg; SpanName::ALL.len()],
    /// The timed `Memory` calls, whatever their name.
    pub calls: Agg,
    /// `Memory` calls made, timed or not.
    pub calls_made: u64,
    records: Vec<SpanRecord>,
    next_id: u64,
    ops: u64,
    open: Option<OpenOp>,
}

impl SpanLog {
    pub fn new() -> Self {
        let epoch = Instant::now();
        let now = || epoch.elapsed().as_nanos() as u64;
        let mut gaps: Vec<u64> = (0..1001)
            .map(|_| {
                let first = now();
                now() - first
            })
            .collect();
        gaps.sort_unstable();
        SpanLog {
            epoch,
            clock_read_ns: gaps[gaps.len() / 2],
            aggs: Default::default(),
            calls: Agg::default(),
            calls_made: 0,
            records: Vec::new(),
            next_id: 1,
            ops: 0,
            open: None,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn agg(&self, name: SpanName) -> &Agg {
        &self.aggs[name as usize]
    }

    /// Host seconds inside `Memory` calls, estimated from the timed ones
    /// (a timed call runs a little slower than an untimed one, so the
    /// estimate is held to what the op spans can contain).
    pub fn calls_s(&self) -> f64 {
        let scaled = self.calls.total_s() * self.calls_made as f64 / self.calls.count.max(1) as f64;
        scaled.min(self.agg(SpanName::Op).total_s())
    }

    /// Host seconds of op self time: op spans minus the calls inside
    /// them. The probe's own cost (clock reads, bookkeeping) is in here.
    pub fn ops_self_s(&self) -> f64 {
        self.agg(SpanName::Op).total_s() - self.calls_s()
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn begin_op(&mut self) {
        let id = self.take_id();
        let start_ns = self.now_ns();
        self.open = Some(OpenOp {
            id,
            index: self.ops,
            self_time: SelfTime::new(start_ns),
            start_ns,
            sampled: self.ops.is_multiple_of(SAMPLE_EVERY_OPS),
            child_records: 0,
            has_untimed_calls: false,
        });
        self.ops += 1;
    }

    pub fn end_op(&mut self) {
        let end_ns = self.now_ns();
        let Some(op) = self.open.take() else { return };
        self.aggs[SpanName::Op as usize].record(end_ns - op.start_ns);
        if op.sampled {
            self.records.push(SpanRecord {
                id: op.id,
                parent: 0,
                name: SpanName::Op,
                start_ns: op.start_ns,
                end_ns,
                op: op.index,
                self_ns: (!op.has_untimed_calls).then(|| op.self_time.finish(end_ns)),
            });
        }
    }

    /// Announces a `Memory` call; returns its start time if it is one of
    /// those to be timed, to be handed back to [`SpanLog::call_end`].
    pub fn call_start(&mut self) -> Option<u64> {
        self.calls_made += 1;
        let in_sampled_op = self
            .open
            .as_ref()
            .is_some_and(|op| op.sampled && op.child_records < MAX_CHILD_RECORDS_PER_OP);
        if in_sampled_op || self.calls_made.is_multiple_of(TIME_EVERY_CALLS) {
            return Some(self.now_ns());
        }
        if let Some(op) = &mut self.open {
            op.has_untimed_calls = true;
        }
        None
    }

    /// Closes a timed `Memory`-call span that started at `start_ns`.
    pub fn call_end(&mut self, name: SpanName, start_ns: u64) {
        let end_ns = self.now_ns();
        let id = self.take_id();
        let callee_ns = (end_ns - start_ns).saturating_sub(self.clock_read_ns);
        self.aggs[name as usize].record(callee_ns);
        self.calls.record(callee_ns);
        let Some(op) = &mut self.open else { return };
        op.self_time.child(start_ns, end_ns);
        if op.sampled && op.child_records < MAX_CHILD_RECORDS_PER_OP {
            op.child_records += 1;
            self.records.push(SpanRecord {
                id,
                parent: op.id,
                name,
                start_ns,
                end_ns,
                op: op.index,
                self_ns: None,
            });
        }
    }

    /// Writes the sampled span records, one JSON object a line, followed
    /// by one line per daemon phase. The phases come from `PerfHooks` as
    /// aggregates only, so they carry a parent *layer* (the `sim` calls
    /// they ran inside) instead of a parent span.
    pub fn write_jsonl(&self, path: &Path, phases: &[PhaseSummary]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for r in &self.records {
            let self_ns = r
                .self_ns
                .map_or(String::new(), |ns| format!(",\"self_ns\":{ns}"));
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{}{self_ns}}}",
                r.id,
                r.parent,
                r.name.as_str(),
                r.name.layer(),
                r.start_ns,
                r.end_ns,
                r.op
            )?;
        }
        for p in phases {
            writeln!(
                out,
                "{{\"aggregate\":\"{}\",\"layer\":\"core\",\"parent_layer\":\"sim\",\"count\":{},\"total_ns\":{},\"items\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                p.phase.name(),
                p.count,
                p.total_nanos,
                p.items,
                p.p50_nanos,
                p.p99_nanos
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
        let mut st = SelfTime::new(span.0);
        for &(s, e) in children {
            st.child(s, e);
        }
        st.finish(span.1)
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((100, 350), &[]), 250);
    }

    #[test]
    fn abutting_children_cover_their_sum() {
        assert_eq!(self_time((0, 100), &[(10, 30), (30, 50), (50, 60)]), 50);
    }

    #[test]
    fn nested_and_overlapping_children_are_counted_once() {
        // (20,40) lies inside (10,50); (45,70) overlaps its tail.
        assert_eq!(self_time((0, 100), &[(10, 50), (20, 40), (45, 70)]), 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((50, 100), &[(40, 60), (90, 120)]), 30);
        assert_eq!(self_time((50, 100), &[(0, 200)]), 0);
    }

    fn one_op(log: &mut SpanLog, calls: usize) {
        log.begin_op();
        for _ in 0..calls {
            if let Some(start) = log.call_start() {
                log.call_end(SpanName::Read, start);
            }
        }
        log.end_op();
    }

    #[test]
    fn sampled_op_times_every_call_and_records_its_self_time() {
        let mut log = SpanLog::new();
        one_op(&mut log, 5);
        assert_eq!(log.calls.count, 5, "op 0 is sampled: all calls timed");
        // Five children pointing at the op record, which comes last.
        assert_eq!(log.records.len(), 6);
        let op = log.records[5];
        assert!(log.records[..5].iter().all(|r| r.parent == op.id));
        let children: u64 = log.records[..5].iter().map(|r| r.end_ns - r.start_ns).sum();
        assert_eq!(op.self_ns, Some(op.end_ns - op.start_ns - children));
        assert_eq!(
            log.calls.total_ns,
            log.records[..5]
                .iter()
                .map(|r| (r.end_ns - r.start_ns).saturating_sub(log.clock_read_ns))
                .sum::<u64>(),
            "aggregates hold the callee's time, without the clock read"
        );
    }

    #[test]
    fn other_ops_time_one_call_in_seven() {
        let mut log = SpanLog::new();
        one_op(&mut log, 0);
        one_op(&mut log, 70);
        assert_eq!(log.calls_made, 70);
        assert_eq!(log.calls.count, 10);
        assert_eq!(log.records.len(), 1, "only the sampled op left records");
    }

    #[test]
    fn call_total_is_scaled_from_the_timed_calls_and_held_to_the_op_spans() {
        let mut log = SpanLog::new();
        log.calls_made = 70;
        log.calls.count = 10;
        log.calls.total_ns = 1_000;
        log.aggs[SpanName::Op as usize].total_ns = 20_000;
        assert!((log.calls_s() - 7_000e-9).abs() < 1e-15);
        assert!((log.ops_self_s() - 13_000e-9).abs() < 1e-15);
        log.aggs[SpanName::Op as usize].total_ns = 5_000;
        assert!((log.calls_s() - 5_000e-9).abs() < 1e-15);
        assert_eq!(log.ops_self_s(), 0.0);
    }
}
