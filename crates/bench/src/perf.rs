//! The pinned `mc-perf` suite definitions: fixed workload configurations
//! measured with [`mc_obs::perf`] hooks, repeated N times, summarised as
//! median/MAD into a [`BenchArtifact`].
//!
//! Suites are *pinned*: names, workloads and knob settings stay stable
//! across PRs so `mc-perf-report` can chart a trajectory. Adding a suite
//! is fine (old artifacts simply show `-`); renaming or re-knobbing one
//! breaks comparability and needs a schema bump.
//!
//! All measurements here are host wall-clock (this crate is inside the
//! `wallclock` lint's allow-list, alongside `mc_obs::perf` itself):
//!
//! * engine ticks/sec — [`Phase::Tick`] spans over fixed YCSB-A and
//!   GAPBS-BFS runs;
//! * scan throughput — [`Phase::Scan`] items/sec on 8-shard YCSB-A (the
//!   suite keeps its historical name `scan_pages_per_sec.threads_1` so
//!   the committed BENCH trajectory lines up);
//! * migration-overhead share — simulated-cost ratio at batch 1 vs 8
//!   (deterministic, so its MAD is 0 by construction);
//! * promote-stall share — the application-stall share of accounted time
//!   on pinned YCSB-A under [`MigrationMode::Sync`] vs
//!   [`MigrationMode::Transactional`] (deterministic; the transactional
//!   number must be strictly lower — copy windows replace the full
//!   migration stall with one atomic-remap charge per settled batch);
//! * shadow-hit rate — the fraction of demotions served by a retained
//!   shadow copy (zero-copy mapping flip) on pinned YCSB-B in
//!   transactional mode (deterministic);
//! * sweep speedup — wall time of a 4-job grid under [`SweepRunner`]
//!   with 1 worker vs several;
//! * idle-component overhead — wall-time ratio of the same YCSB-A drive
//!   loop with 64 never-waking components on the scheduler vs none (an
//!   idle component must cost nothing beyond its heap entry);
//! * tera scan cost — the daemon's mean tick cost (ns) at a fixed
//!   working set on a quarter-size vs full terabyte-class machine, plus
//!   their ratio: 4x the frames must leave the per-tick cost roughly
//!   flat, because a list scan costs `min(scan_batch, list length)`
//!   whatever the frame count (`--smoke` shrinks
//!   both machines so CI hosts survive the O(frames) construction);
//! * sketch tracking cost vs full scan — virtual cost of the pages each
//!   *tracker* harvests (HybridTier's bounded CM-sketch sampling vs
//!   MULTI-CLOCK's full reference-bit scan), priced at `scan_per_page`,
//!   on the same pinned YCSB-A / `dram-cxl-pm` machine (deterministic,
//!   MAD 0 by construction; the sketch number must be *strictly* lower
//!   — sampling touches a bounded batch per tier where the scanner
//!   walks every populated list);
//! * CXL grid engine throughput — wall-clock ticks/sec of HybridTier
//!   driving the three-tier `dram-cxl-pm` machine.

use crate::artifact::{BenchArtifact, SuiteResult, SCHEMA_VERSION};
use crate::SweepRunner;
use mc_mem::{Memory, Nanos};
use mc_obs::{PerfHooks, Phase};
use mc_sim::experiments::{Experiment, MachinePreset, RunOutcome, Scale};
use mc_sim::{Component, EngineCtx, MigrationMode, SimConfig, Simulation, SystemKind};
use mc_workloads::graph::Kernel;
use mc_workloads::ycsb::{YcsbClient, YcsbConfig, YcsbWorkload};
use std::time::Instant;

/// Everything `mc-perf` needs to run the pinned suites.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Repetitions per suite (median/MAD are taken over these).
    pub reps: usize,
    /// PR number stamped into the artifact (`BENCH_<pr>.json`).
    pub pr: u64,
    /// Scale label recorded in the artifact (`perf` / `smoke`).
    pub scale_label: String,
    /// The experiment scale all suites run at.
    pub scale: Scale,
    /// Worker count for the parallel side of the sweep-speedup suite.
    pub sweep_threads: usize,
    /// Total frames of the tera scan-cost suite's larger machine (the
    /// quarter machine divides this by 4). `2^28` frames (1 TiB of
    /// 4 KiB frames) in the committed-artifact shape; reduced under
    /// `--smoke` so CI hosts survive the O(frames) construction.
    pub tera_frames: usize,
}

/// The standard configuration: `smoke` shrinks repetitions and run
/// length for CI, the default is the committed-artifact shape.
pub fn default_config(smoke: bool) -> PerfConfig {
    let mut scale = Scale::tiny();
    if smoke {
        scale.warmup = mc_mem::Nanos::from_millis(200);
        scale.measure = mc_mem::Nanos::from_millis(400);
        scale.graph_scale = 8;
    } else {
        scale.warmup = mc_mem::Nanos::from_millis(400);
        scale.measure = mc_mem::Nanos::from_millis(800);
        scale.graph_scale = 10;
    }
    PerfConfig {
        reps: if smoke { 2 } else { 5 },
        pr: 10,
        scale_label: if smoke { "smoke" } else { "perf" }.to_string(),
        scale,
        sweep_threads: host_cores().clamp(2, 4),
        tera_frames: if smoke { 1 << 20 } else { 1 << 28 },
    }
}

/// Logical cores on this host (1 if undetectable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The build profile the suites ran under.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn run_hooked(exp: Experiment) -> (RunOutcome, PerfHooks) {
    let hooks = PerfHooks::new();
    let outcome = exp
        .perf(hooks.clone())
        .run()
        .expect("no obs artifacts requested, so no I/O can fail");
    (outcome, hooks)
}

/// Engine ticks/sec for one repetition of the given experiment.
fn ticks_per_sec(exp: Experiment) -> f64 {
    let (_, hooks) = run_hooked(exp);
    hooks.profiler().summary(Phase::Tick).per_sec()
}

/// Pages scanned per wall-second of scan phase.
fn scan_pages_per_sec(scale: &Scale) -> f64 {
    let (_, hooks) = run_hooked(Experiment::ycsb(YcsbWorkload::A).scale(scale).shards(8));
    hooks.profiler().summary(Phase::Scan).items_per_sec()
}

fn repeat(reps: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    (0..reps).map(|_| f()).collect()
}

/// The application-stall share of total accounted time on pinned YCSB-A
/// under the given migration mode. Deterministic (virtual-time ratio),
/// so its MAD is 0 by construction; the suite exists for the *gap*
/// between the two modes, not the absolute number.
fn promote_stall_share(scale: &Scale, mode: MigrationMode) -> f64 {
    let o = Experiment::ycsb(YcsbWorkload::A)
        .scale(scale)
        .migration(mode)
        .run()
        .expect("no obs artifacts requested, so no I/O can fail");
    let c = &o.costs;
    let total = c.access_time + c.stall_time + c.daemon_time + c.background_time;
    if total == Nanos::ZERO {
        0.0
    } else {
        c.stall_time.as_nanos() as f64 / total.as_nanos() as f64
    }
}

/// Virtual tracking cost (ns) of one pinned YCSB-A run on the
/// three-tier `dram-cxl-pm` machine under the given system: the pages
/// whose reference bits the *tracker* harvested (HybridTier's bounded
/// samples vs MULTI-CLOCK's full list scan — each system's own
/// counter), priced at the model's `scan_per_page`. Deterministic
/// (virtual counts), so its MAD is 0 by construction.
fn tracking_cost_ns(scale: &Scale, system: SystemKind) -> f64 {
    let mut cfg = SimConfig::new(system, scale.dram_pages, scale.pm_pages);
    cfg.mem = MachinePreset::DramCxlPm.mem_config(scale.dram_pages, scale.pm_pages);
    cfg.scan_interval = scale.scan_interval();
    cfg.scan_batch = scale.scan_batch;
    cfg.window = scale.window();
    let mut sim = Simulation::new(cfg);
    let mut client = YcsbClient::load(
        YcsbConfig {
            records: scale.records,
            value_size: scale.value_size,
            op_compute: scale.op_compute,
            insert_scale: scale.insert_scale,
            seed: scale.seed,
        },
        &mut sim,
    );
    let end = sim.now() + scale.warmup + scale.measure;
    while sim.now() < end {
        client.run_op(YcsbWorkload::A, &mut sim);
    }
    sim.finish();
    let pages = match system {
        SystemKind::HybridTier => sim.counter("ht_samples"),
        _ => sim.counter("mc_pages_scanned"),
    };
    assert!(pages > 0, "{system:?} tracker must have run");
    pages as f64 * sim.mem().latency().scan_per_page.as_nanos() as f64
}

/// The fraction of demotions served by a retained shadow copy on pinned
/// YCSB-B in transactional mode (also deterministic).
fn shadow_hit_rate(scale: &Scale) -> f64 {
    let o = Experiment::ycsb(YcsbWorkload::B)
        .scale(scale)
        .migration(MigrationMode::Transactional)
        .run()
        .expect("no obs artifacts requested, so no I/O can fail");
    if o.demotions == 0 {
        0.0
    } else {
        o.shadow_hits as f64 / o.demotions as f64
    }
}

/// A never-waking component: registered far in the future, it only
/// occupies a scheduler-heap entry. The idle-overhead suite pins that
/// such components cost nothing on the engine's access path.
struct Dormant;

impl Component for Dormant {
    fn name(&self) -> &'static str {
        "dormant"
    }

    fn tick(&mut self, _now: Nanos, _ctx: &mut EngineCtx<'_>) -> Option<Nanos> {
        None
    }
}

/// Wall seconds (and promotions, for the inertness check) of a pinned
/// YCSB-A drive loop with `dormant` never-waking components registered
/// on the scheduler. Machine construction and load are excluded — only
/// the op loop, where every access consults the scheduler, is timed.
fn drive_secs_with_dormant(scale: &Scale, dormant: usize) -> (f64, u64) {
    let mut cfg = SimConfig::new(SystemKind::MultiClock, scale.dram_pages, scale.pm_pages);
    cfg.scan_interval = scale.scan_interval();
    cfg.scan_batch = scale.scan_batch;
    cfg.window = scale.window();
    let mut sim = Simulation::new(cfg);
    for _ in 0..dormant {
        sim.add_component(Box::new(Dormant), Nanos::from_secs(1 << 20));
    }
    let mut client = YcsbClient::load(
        YcsbConfig {
            records: scale.records,
            value_size: scale.value_size,
            op_compute: scale.op_compute,
            insert_scale: scale.insert_scale,
            seed: scale.seed,
        },
        &mut sim,
    );
    let end = sim.now() + scale.warmup + scale.measure;
    let t0 = Instant::now();
    while sim.now() < end {
        client.run_op(YcsbWorkload::A, &mut sim);
    }
    sim.finish();
    (t0.elapsed().as_secs_f64(), sim.metrics().total_promotions())
}

/// Wall-time ratio of the drive loop with `dormant` idle components vs
/// none (~1.0: an idle component is one heap entry, never dispatched).
/// Also asserts the dormant run is behaviourally inert.
fn idle_component_overhead(scale: &Scale, dormant: usize) -> f64 {
    let (with, promotions_with) = drive_secs_with_dormant(scale, dormant);
    let (without, promotions_without) = drive_secs_with_dormant(scale, 0);
    assert_eq!(
        promotions_with, promotions_without,
        "dormant components must not perturb results"
    );
    with / without.max(1e-9)
}

/// Mean daemon-tick wall cost (ns) of the fixed tiny working set on a
/// machine of `total_frames` frames (512 DRAM pages + the rest PM, so
/// the working set still overflows DRAM and tiering stays active).
fn tera_tick_cost_ns(scale: &Scale, total_frames: usize) -> f64 {
    let mut s = scale.clone();
    s.dram_pages = 512;
    s.pm_pages = total_frames - s.dram_pages;
    let (_, hooks) = run_hooked(Experiment::ycsb(YcsbWorkload::A).scale(&s));
    let t = hooks.profiler().summary(Phase::Tick);
    if t.count == 0 {
        0.0
    } else {
        t.total_nanos as f64 / t.count as f64
    }
}

/// Runs every pinned suite and assembles the artifact (host metadata,
/// suite medians/MADs, per-phase percentile extras). Progress and
/// per-suite summaries go to stdout.
pub fn run_suites(cfg: &PerfConfig) -> BenchArtifact {
    let mut suites = Vec::new();
    let mut push = |name: &str, unit: &str, higher: bool, reps: Vec<f64>| {
        let s = SuiteResult::from_reps(name, unit, higher, reps);
        println!(
            "  {:<36} median {:>12.2} {:<9} mad {:.3} ({} reps)",
            s.name,
            s.median,
            s.unit,
            s.mad,
            s.reps.len()
        );
        suites.push(s);
    };

    println!("[1/10] engine ticks/sec (YCSB-A, GAPBS-BFS)");
    push(
        "engine_ticks_per_sec.ycsb_a",
        "ticks/sec",
        true,
        repeat(cfg.reps, || {
            ticks_per_sec(Experiment::ycsb(YcsbWorkload::A).scale(&cfg.scale))
        }),
    );
    push(
        "engine_ticks_per_sec.gapbs_bfs",
        "ticks/sec",
        true,
        repeat(cfg.reps, || {
            ticks_per_sec(Experiment::gapbs(Kernel::Bfs).scale(&cfg.scale))
        }),
    );

    println!("[2/10] scan throughput (8 shards)");
    push(
        "scan_pages_per_sec.threads_1",
        "pages/sec",
        true,
        repeat(cfg.reps, || scan_pages_per_sec(&cfg.scale)),
    );

    println!("[3/10] migration-overhead share at batch 1/8");
    for batch in [1usize, 8] {
        push(
            &format!("migration_overhead_share.batch_{batch}"),
            "share",
            false,
            repeat(cfg.reps, || {
                Experiment::ycsb(YcsbWorkload::A)
                    .scale(&cfg.scale)
                    .shards(4)
                    .batch(batch)
                    .run()
                    .expect("no obs artifacts requested, so no I/O can fail")
                    .overhead_share()
            }),
        );
    }

    println!("[4/10] promote-stall share, sync vs transactional (YCSB-A)");
    for (label, mode) in [
        ("sync", MigrationMode::Sync),
        ("transactional", MigrationMode::Transactional),
    ] {
        push(
            &format!("promote_stall_share.{label}"),
            "share",
            false,
            repeat(cfg.reps, || promote_stall_share(&cfg.scale, mode)),
        );
    }

    println!("[5/10] shadow-hit rate (YCSB-B, transactional)");
    push(
        "shadow_hit_rate.ycsb_b",
        "share",
        true,
        repeat(cfg.reps, || shadow_hit_rate(&cfg.scale)),
    );

    println!(
        "[6/10] sweep parallel speedup (4-job grid, 1 vs {} workers)",
        cfg.sweep_threads
    );
    push(
        "sweep_parallel_speedup",
        "x",
        true,
        repeat(cfg.reps, || sweep_speedup(&cfg.scale, cfg.sweep_threads)),
    );

    println!("[7/10] idle-component overhead (64 dormant components)");
    push(
        "idle_component_overhead.dormant_64",
        "x",
        false,
        repeat(cfg.reps, || idle_component_overhead(&cfg.scale, 64)),
    );

    println!(
        "[8/10] tera scan cost at a fixed working set ({} vs {} frames)",
        cfg.tera_frames / 4,
        cfg.tera_frames
    );
    // Each repetition pays an O(frames) machine construction (tens of
    // seconds at the terabyte point), so cap these at 3 repetitions.
    let tera_reps = cfg.reps.min(3);
    let quarter = repeat(tera_reps, || {
        tera_tick_cost_ns(&cfg.scale, cfg.tera_frames / 4)
    });
    let full = repeat(tera_reps, || tera_tick_cost_ns(&cfg.scale, cfg.tera_frames));
    let ratio: Vec<f64> = full
        .iter()
        .zip(&quarter)
        .map(|(f, q)| if *q == 0.0 { 0.0 } else { f / q })
        .collect();
    push("tera_tick_cost_ns.quarter", "ns/tick", false, quarter);
    push("tera_tick_cost_ns.full", "ns/tick", false, full);
    // 4x the frames: anything near 1.0 is sublinear; an O(frames) tick
    // path would sit near 4.0.
    push("tera_scan_sublinearity", "x", false, ratio);

    println!("[9/10] sketch tracking cost vs full scan (YCSB-A, dram-cxl-pm)");
    let sketch = repeat(cfg.reps, || {
        tracking_cost_ns(&cfg.scale, SystemKind::HybridTier)
    });
    let scan = repeat(cfg.reps, || {
        tracking_cost_ns(&cfg.scale, SystemKind::MultiClock)
    });
    for (s, f) in sketch.iter().zip(&scan) {
        assert!(
            s < f,
            "sketch tracking ({s} ns) must stay strictly below the full scan ({f} ns)"
        );
    }
    let track_ratio: Vec<f64> = sketch
        .iter()
        .zip(&scan)
        .map(|(s, f)| if *f == 0.0 { 0.0 } else { s / f })
        .collect();
    push(
        "sketch_track_cost_vs_scan.hybridtier_ns",
        "ns",
        false,
        sketch,
    );
    push("sketch_track_cost_vs_scan.multiclock_ns", "ns", false, scan);
    push("sketch_track_cost_vs_scan.ratio", "x", false, track_ratio);

    println!("[10/10] CXL grid engine throughput (HybridTier, dram-cxl-pm)");
    push(
        "cxl_grid_ticks_per_sec",
        "ticks/sec",
        true,
        repeat(cfg.reps, || {
            ticks_per_sec(
                Experiment::ycsb(YcsbWorkload::A)
                    .scale(&cfg.scale)
                    .system(SystemKind::HybridTier)
                    .machine(MachinePreset::DramCxlPm),
            )
        }),
    );

    // Per-phase wall-time detail from one representative hooked run.
    let (_, hooks) = run_hooked(
        Experiment::ycsb(YcsbWorkload::A)
            .scale(&cfg.scale)
            .shards(4),
    );
    let mut extras = Vec::new();
    println!("phase breakdown (YCSB-A, 4 shards):");
    println!(
        "  {:<14} {:>8} {:>12} {:>10} {:>10} {:>10}",
        "phase", "spans", "total_ns", "p50_ns", "p95_ns", "p99_ns"
    );
    for s in hooks.profiler().summaries() {
        println!(
            "  {:<14} {:>8} {:>12} {:>10} {:>10} {:>10}",
            s.phase.name(),
            s.count,
            s.total_nanos,
            s.p50_nanos,
            s.p95_nanos,
            s.p99_nanos
        );
        let p = s.phase.name();
        extras.push((format!("phase.{p}.count"), s.count as f64));
        extras.push((format!("phase.{p}.total_ns"), s.total_nanos as f64));
        extras.push((format!("phase.{p}.p50_ns"), s.p50_nanos as f64));
        extras.push((format!("phase.{p}.p95_ns"), s.p95_nanos as f64));
        extras.push((format!("phase.{p}.p99_ns"), s.p99_nanos as f64));
    }

    BenchArtifact {
        schema_version: SCHEMA_VERSION,
        pr: cfg.pr,
        host_os: std::env::consts::OS.to_string(),
        host_arch: std::env::consts::ARCH.to_string(),
        host_cores: host_cores() as u64,
        profile: build_profile().to_string(),
        scale: cfg.scale_label.clone(),
        suites,
        extras,
    }
}

/// One repetition of the sweep-speedup suite: wall time of the same
/// 4-job grid under a 1-worker runner vs a `threads`-worker runner.
/// Each job is a full deterministic experiment, so only the wall time
/// differs between the two runs.
fn sweep_speedup(scale: &Scale, threads: usize) -> f64 {
    let jobs = || {
        vec![
            YcsbWorkload::A,
            YcsbWorkload::B,
            YcsbWorkload::C,
            YcsbWorkload::F,
        ]
    };
    let run_one = |w: YcsbWorkload| {
        Experiment::ycsb(w)
            .scale(scale)
            .run()
            .expect("no obs artifacts requested, so no I/O can fail")
            .ops_per_sec
    };
    let t0 = Instant::now();
    let seq = SweepRunner::new(1).run(jobs(), run_one);
    let sequential = t0.elapsed();
    let t1 = Instant::now();
    let par = SweepRunner::new(threads).run(jobs(), run_one);
    let parallel = t1.elapsed();
    assert_eq!(seq, par, "sweep results must not depend on worker count");
    let p = parallel.as_secs_f64();
    if p == 0.0 {
        1.0
    } else {
        sequential.as_secs_f64() / p
    }
}
