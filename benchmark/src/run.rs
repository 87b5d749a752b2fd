//! One cell of a workload: set-up, warm-up, measured phase, output check.
//! Every number a cell reports is a delta over its measured phase.

use crate::cputime::thread_cpu_time;
use crate::probe::Probe;
use crate::spans::SpanLog;
use crate::workloads::{App, Spec};
use mc_mem::{MemStats, Memory, Nanos, SimpleMemory};
use mc_obs::{ObsConfig, PerfHooks, PhaseSummary};
use mc_sim::{CostBreakdown, LatencyHistogram, Simulation, SystemKind};
use std::time::Instant;

/// Set-ups per repeated cell: at least this many, so `setup_s` can be a
/// median, and more for cheap set-ups until they add up to
/// `SETUP_MIN_TOTAL_S`, at most `SETUP_MAX_REPS`.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 15;
const SETUP_MIN_TOTAL_S: f64 = 0.4;

/// What a pass over a cell switches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Tracing off: what the end-to-end metrics are measured on.
    Plain,
    /// Host-time spans around ops and `Memory` calls, `PerfHooks` on.
    Traced,
    /// `ObsConfig::on()` in the engine, no spans: the cost of looking.
    Observed,
}

/// Simulated results that must not depend on the pass or the rep.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSignature {
    pub reads: u64,
    pub writes: u64,
    pub virt_ns: u64,
    pub promotions: u64,
    pub demotions: u64,
}

#[derive(Debug)]
pub struct CellOut {
    pub system: SystemKind,
    /// Host CPU seconds of each set-up (machine construction + load /
    /// graph build).
    pub setup_s: Vec<f64>,
    /// Wall seconds of the measured phase (of the last repeat).
    pub wall_s: f64,
    /// Host CPU seconds of each stretch between two marks of the measured
    /// phase; with repeats, the fastest repeat of each.
    pub segments_s: Vec<f64>,
    pub ops: u64,
    /// Workload-level data calls.
    pub calls: u64,
    /// Substrate counters over the measured phase.
    pub stats: MemStats,
    pub fast_tier_share: f64,
    pub virt_ns: u64,
    pub costs: CostBreakdown,
    /// Policy counters over the measured phase.
    pub counters: Vec<(&'static str, u64)>,
    /// Fig. 9 re-access percentage (whole run: the engine keeps no
    /// per-phase figure).
    pub reaccess_pct: f64,
    /// Virtual latency of each workload-level data call.
    pub virt_calls: LatencyHistogram,
    /// Outputs checked after the run, and how many were wrong (including
    /// accesses the engine skipped).
    pub checked: u64,
    pub failed: u64,
    pub log: Option<SpanLog>,
    /// Daemon phases over the measured phase; empty unless traced.
    pub phases: Vec<PhaseSummary>,
    pub obs_events: u64,
    pub obs_dropped: u64,
}

impl CellOut {
    pub fn touches(&self) -> u64 {
        self.stats.reads + self.stats.writes
    }

    /// Host CPU seconds of the measured phase with host interference
    /// taken out (see [`run_cells`]).
    pub fn steady_s(&self) -> f64 {
        self.segments_s.iter().sum()
    }

    pub fn signature(&self) -> SimSignature {
        SimSignature {
            reads: self.stats.reads,
            writes: self.stats.writes,
            virt_ns: self.virt_ns,
            promotions: self.stats.promotions,
            demotions: self.stats.demotions,
        }
    }

    /// # Panics
    ///
    /// Panics unless the cell ran under [`Pass::Traced`].
    pub fn span_log(&self) -> &SpanLog {
        self.log.as_ref().expect("traced cells carry a span log")
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn phase(&self, phase: mc_obs::Phase) -> Option<&PhaseSummary> {
        self.phases.iter().find(|p| p.phase == phase)
    }
}

struct Snapshot {
    stats: MemStats,
    now: Nanos,
    costs: CostBreakdown,
    counters: Vec<(&'static str, u64)>,
}

impl Snapshot {
    fn take(sim: &Simulation) -> Self {
        Snapshot {
            stats: sim.mem().stats().clone(),
            now: sim.now(),
            costs: sim.metrics().costs(),
            counters: sim.counters(),
        }
    }
}

fn stats_delta(before: &MemStats, after: &MemStats) -> MemStats {
    MemStats {
        allocs: after.allocs - before.allocs,
        frees: after.frees - before.frees,
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        promotions: after.promotions - before.promotions,
        demotions: after.demotions - before.demotions,
        evictions: after.evictions - before.evictions,
        swap_ins: after.swap_ins - before.swap_ins,
        hint_faults: after.hint_faults - before.hint_faults,
        migration_failures: after.migration_failures - before.migration_failures,
        injected_faults: after.injected_faults - before.injected_faults,
        txn_begins: after.txn_begins - before.txn_begins,
        txn_aborts: after.txn_aborts - before.txn_aborts,
        txn_commits: after.txn_commits - before.txn_commits,
        shadow_hits: after.shadow_hits - before.shadow_hits,
        shadow_invalidations: after.shadow_invalidations - before.shadow_invalidations,
        tier_accesses: after
            .tier_accesses
            .iter()
            .enumerate()
            .map(|(i, a)| a - before.tier_accesses.get(i).copied().unwrap_or(0))
            .collect(),
    }
}

fn costs_delta(before: CostBreakdown, after: CostBreakdown) -> CostBreakdown {
    CostBreakdown {
        access_time: after.access_time - before.access_time,
        stall_time: after.stall_time - before.stall_time,
        daemon_time: after.daemon_time - before.daemon_time,
        background_time: after.background_time - before.background_time,
        hint_faults: after.hint_faults - before.hint_faults,
        minor_faults: after.minor_faults - before.minor_faults,
    }
}

/// Builds the machine and loads the store / builds the graph on it.
fn set_up(
    spec: &Spec,
    system: SystemKind,
    seed: u64,
    pass: Pass,
    hooks: Option<&PerfHooks>,
    reference: Option<&[f64]>,
) -> (Simulation, App) {
    let mut cfg = spec.config(system);
    cfg.instrument.perf = hooks.cloned();
    if pass == Pass::Observed {
        cfg.instrument.obs = ObsConfig::on();
    }
    let mut sim = Simulation::new(cfg);
    let app = App::build(spec, seed, reference.map(<[f64]>::to_vec), &mut sim);
    (sim, app)
}

/// One pass over one cell: set-up, warm-up, measured phase, output check.
fn run_pass(
    spec: &Spec,
    system: SystemKind,
    seed: u64,
    seconds: f64,
    pass: Pass,
    reference: Option<&[f64]>,
) -> CellOut {
    let hooks = (pass == Pass::Traced).then(PerfHooks::new);
    let t = thread_cpu_time();
    let (mut sim, mut app) = set_up(spec, system, seed, pass, hooks.as_ref(), reference);
    let setup_s = vec![(thread_cpu_time() - t).as_secs_f64()];

    for _ in 0..spec.warmup_ops(seconds) {
        app.run_op(&mut sim);
    }

    let ops = spec.measured_ops(seconds);
    let before = Snapshot::take(&sim);
    if let Some(h) = &hooks {
        h.profiler().reset();
    }
    let mut probe = Probe::new(&mut sim, (pass == Pass::Traced).then(SpanLog::new));
    let wall = Instant::now();
    probe.mark();
    for _ in 0..ops {
        probe.begin_op();
        app.run_op(&mut probe);
        probe.end_op();
    }
    probe.mark();
    let wall_s = wall.elapsed().as_secs_f64();
    let Probe {
        calls,
        touches: expected_touches,
        virt: virt_calls,
        marks,
        log,
        ..
    } = probe;
    let segments_s: Vec<f64> = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    let phases = hooks.map_or_else(Vec::new, |h| h.profiler().summaries());
    let after = Snapshot::take(&sim);

    sim.finish();
    let reaccess_pct = sim.metrics().overall_reaccess_pct().unwrap_or(0.0);
    let (checked, wrong) = app.verify(&mut sim);

    let stats = stats_delta(&before.stats, &after.stats);
    let skipped = expected_touches.saturating_sub(stats.reads + stats.writes);
    CellOut {
        system,
        setup_s,
        wall_s,
        segments_s,
        ops,
        calls,
        fast_tier_share: stats.fast_tier_share(sim.mem().topology()).unwrap_or(0.0),
        stats,
        virt_ns: (after.now - before.now).as_nanos(),
        costs: costs_delta(before.costs, after.costs),
        counters: after
            .counters
            .iter()
            .zip(&before.counters)
            .map(|((name, a), (_, b))| (*name, a - b))
            .collect(),
        reaccess_pct,
        virt_calls,
        checked: ops + checked,
        failed: wrong + skipped,
        log,
        phases,
        obs_events: sim.mem().recorder().total(),
        obs_dropped: sim.mem().recorder().dropped(),
    }
}

/// Runs every cell of `spec` under `pass`, `repeats` times from scratch.
///
/// The repeats exist to take host interference out of the throughput.
/// This runs in a shared VM; the thread's CPU clock ([`crate::cputime`])
/// keeps stolen CPU out, but neighbours also slow memory-bound code by up
/// to a half for seconds at a time. The measured phase is marked every
/// 16 Ki calls, a segment does the same work in every repeat of one
/// seed, and `steady_s` sums each segment's fastest repeat. No work is
/// left out — every segment counts, at the time it took when least
/// disturbed — and a slowdown in the program shows in all repeats alike.
/// Repeats are the outer loop, so the repeats of one cell lie seconds
/// apart even when its phase is short. They also give `setup_s` its
/// samples, topped up with set-ups alone, and must agree on every
/// simulated result.
pub fn run_cells(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    pass: Pass,
    repeats: usize,
    reference: Option<&[f64]>,
) -> Vec<CellOut> {
    let once = || -> Vec<CellOut> {
        spec.systems
            .iter()
            .map(|s| run_pass(spec, *s, seed, seconds, pass, reference))
            .collect()
    };
    let mut cells = once();
    for _ in 1..repeats {
        cells = cells.into_iter().zip(once()).map(merge_repeat).collect();
    }
    if repeats > 1 {
        for cell in &mut cells {
            while cell.setup_s.len() < SETUP_MIN_REPS
                || (cell.setup_s.iter().sum::<f64>() < SETUP_MIN_TOTAL_S
                    && cell.setup_s.len() < SETUP_MAX_REPS)
            {
                let t = thread_cpu_time();
                let built = set_up(spec, cell.system, seed, pass, None, reference);
                cell.setup_s.push((thread_cpu_time() - t).as_secs_f64());
                drop(built);
            }
        }
    }
    cells
}

/// Folds a further repeat of a cell into what the earlier ones gave.
fn merge_repeat((mut earlier, again): (CellOut, CellOut)) -> CellOut {
    let same = again.signature() == earlier.signature()
        && again.segments_s.len() == earlier.segments_s.len();
    earlier.setup_s.extend(&again.setup_s);
    let fastest: Vec<f64> = earlier
        .segments_s
        .iter()
        .zip(&again.segments_s)
        .map(|(a, b)| a.min(*b))
        .collect();
    CellOut {
        setup_s: earlier.setup_s,
        segments_s: fastest,
        checked: earlier.checked + again.checked + 1,
        failed: earlier.failed + again.failed + u64::from(!same),
        ..again
    }
}

/// The same op stream on the flat, policy-free [`SimpleMemory`]: what the
/// workload generator costs on its own.
pub struct FlatRun {
    /// Host seconds of the measured ops.
    pub gen_only_s: f64,
    /// The output later runs must reproduce (PageRank ranks).
    pub reference: Option<Vec<f64>>,
}

pub fn run_flat(spec: &Spec, seed: u64, warmup_ops: u64, measured_ops: u64) -> FlatRun {
    let mut mem = SimpleMemory::new();
    let mut app = App::build(spec, seed, None, &mut mem);
    for _ in 0..warmup_ops {
        app.run_op(&mut mem);
    }
    let t = Instant::now();
    for _ in 0..measured_ops {
        app.run_op(&mut mem);
    }
    std::hint::black_box(mem.now());
    FlatRun {
        gen_only_s: t.elapsed().as_secs_f64(),
        reference: app.reference(),
    }
}
