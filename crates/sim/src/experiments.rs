//! Canned experiment drivers shared by `mc-bench`'s `repro` sections and
//! the integration tests.
//!
//! The paper's absolute scale (192 GB DRAM + 512 GB PM, hundreds of
//! millions of pages) is shrunk to laptop scale while preserving the
//! ratios that drive the results: the workload footprint exceeds the DRAM
//! tier by a similar factor, the scan batch covers a comparable share of
//! memory per wake-up, and the DRAM:PM latency gap is the measured one.
//! A [`Scale`] is a page budget, not a machine: [`Experiment::machine`]
//! takes the *shape* that arranges it into a [`MachineDesc`]. The [`house`]
//! workload is the exception: a fixed budget that no scale changes.

use crate::config::{SimConfig, SystemKind};
use crate::engine::Simulation;
use crate::error::RunError;
use crate::latency_hist::LatencyHistogram;
use crate::metrics::{CostBreakdown, WindowStats};
use mc_mem::{MachineDesc, MemStats, Nanos, PageKind, TimeLedger, VPage, PAGE_SIZE};
use mc_workloads::dist::{ScrambledZipfian, Uniform};
use mc_workloads::graph::{bc, bfs, cc, pagerank, sssp, tc, Csr, GraphConfig, Kernel};
use mc_workloads::kv::KvStore;
use mc_workloads::ycsb::{YcsbClient, YcsbConfig, YcsbWorkload};
use mc_workloads::Memory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Experiment sizing knobs.
///
/// **Time scaling.** The paper's machine holds hundreds of gigabytes; at
/// the default 1 s `kpromoted` interval only a small fraction of pages is
/// referenced between scans, which is what makes reference-bit scanning
/// informative. A scaled-down machine compresses virtual time: at our
/// simulated throughput, one real second would touch *every* page and
/// saturate every reference bit. [`Scale::interval_unit`] is therefore
/// the simulated-time equivalent of **one paper second**: all daemon
/// intervals (and the Fig. 8-10 windows/sweeps) are expressed in this
/// unit, preserving the paper's "fraction of memory referenced per scan"
/// operating point.
#[derive(Debug, Clone)]
pub struct Scale {
    /// DRAM tier size in pages.
    pub dram_pages: usize,
    /// PM tier size in pages.
    pub pm_pages: usize,
    /// YCSB records loaded.
    pub records: usize,
    /// Pages scanned per list per tick. At paper scale 1024 covers a
    /// small share of each list per wake-up; here it is sized so a full
    /// list sweep completes within about one interval, preserving the
    /// one-interval recency window of the reference bits.
    pub scan_batch: usize,
    /// Simulated time corresponding to one paper second (see above).
    pub interval_unit: Nanos,
    /// Virtual warm-up time before measurement.
    pub warmup: Nanos,
    /// Virtual measurement time.
    pub measure: Nanos,
    /// GAPBS graph scale (log2 vertices).
    pub graph_scale: u32,
    /// GAPBS average degree.
    pub graph_degree: usize,
    /// DRAM tier size for GAPBS runs (sized so the graph exceeds DRAM,
    /// as the paper configures: "memory footprints are larger than the
    /// DRAM size").
    pub graph_dram_pages: usize,
    /// GAPBS timed trials (after one untimed warm-up trial).
    pub trials: usize,
}

impl Scale {
    /// YCSB value size in bytes.
    pub const VALUE_SIZE: usize = 1024;
    /// CPU time per YCSB operation (request handling).
    pub const OP_COMPUTE: Nanos = Nanos::from_nanos(500);
    /// Interval scaling for GAPBS runs. A GAPBS trial is seconds long on
    /// the paper's testbed — hundreds of scan intervals — while a scaled
    /// trial lasts only a few; the factor shortens the daemon interval so
    /// a trial spans a comparable number of scans.
    pub(crate) const GRAPH_INTERVAL_FACTOR: f64 = 0.2;
    /// Insert-rate scaling for workload D (see
    /// [`mc_workloads::ycsb::YcsbConfig::insert_scale`]): keeps the
    /// latest-distribution frontier moving at the paper's relative speed
    /// on the scaled-down keyspace. One value for every scale: records
    /// and the interval unit grow together, so the frontier crosses about
    /// the same share of the keyspace per scan interval at each.
    pub const INSERT_SCALE: f64 = 0.01;
    /// Seed for all stochastic components.
    pub const SEED: u64 = 42;

    /// Integration-test scale: seconds of wall time for a full sweep.
    pub fn tiny() -> Self {
        Scale {
            dram_pages: 512,
            pm_pages: 4096,
            records: 6_000,
            scan_batch: 4096,
            interval_unit: Nanos::from_millis(5),
            warmup: Nanos::from_millis(800),
            measure: Nanos::from_millis(800),
            graph_scale: 11,
            graph_degree: 8,
            graph_dram_pages: 48,
            trials: 3,
        }
    }

    /// Default scale of `repro`, where the claims are pinned (a few minutes
    /// for the whole document in release mode).
    pub fn quick() -> Self {
        Scale {
            dram_pages: 1024,
            pm_pages: 8192,
            records: 12_000,
            scan_batch: 8192,
            interval_unit: Nanos::from_millis(5),
            warmup: Nanos::from_secs(2),
            measure: Nanos::from_secs(2),
            graph_scale: 12,
            graph_degree: 16,
            graph_dram_pages: 144,
            trials: 3,
        }
    }

    /// Larger runs for `--full` (tens of minutes).
    pub fn full() -> Self {
        Scale {
            dram_pages: 2048,
            pm_pages: 16384,
            records: 24_000,
            scan_batch: 16384,
            interval_unit: Nanos::from_millis(10),
            warmup: Nanos::from_secs(4),
            measure: Nanos::from_secs(4),
            graph_scale: 14,
            graph_degree: 16,
            graph_dram_pages: 384,
            trials: 4,
        }
    }

    /// The simulated interval corresponding to `paper_seconds` of the
    /// paper's wall clock (scan intervals, metric windows).
    pub fn paper_interval(&self, paper_seconds: f64) -> Nanos {
        Nanos::from_nanos((self.interval_unit.as_nanos() as f64 * paper_seconds) as u64)
    }

    /// The default 1-paper-second scan interval.
    pub fn scan_interval(&self) -> Nanos {
        self.paper_interval(1.0)
    }

    /// The Figs. 8-9 metrics window (20 paper seconds).
    pub(crate) fn window(&self) -> Nanos {
        self.paper_interval(20.0)
    }

    /// The Fig. 7 Memory-mode comparison sizes the footprint at 4x DRAM
    /// ("we set the workload size to be 4x of the available DRAM
    /// capacity").
    pub fn memory_mode(&self) -> Self {
        // footprint ~= records * chunk(value+header) + table; aim for
        // records so that footprint = 4 * dram.
        let chunk = (Self::VALUE_SIZE + 12).next_power_of_two().max(64);
        let target_bytes = self.dram_pages * mc_mem::PAGE_SIZE * 4;
        Scale {
            records: target_bytes / chunk,
            ..self.clone()
        }
    }

    /// The machine configuration used for GAPBS runs.
    pub fn graph_machine(&self) -> (usize, usize) {
        (self.graph_dram_pages, self.pm_pages)
    }
}

/// Everything one experiment run produced: the figure metrics, the
/// substrate's and the policy's counters at the end of the run, and the
/// cost breakdown. One flat type for every run — comparison tables, chaos
/// sweeps and batch grids all read the same fields.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// System under test.
    pub system: SystemKind,
    /// Throughput of the measured phase, in operations per virtual second:
    /// YCSB operations, the split micro's read + write pairs, the hot
    /// tenant's operations under co-location, overcommit's reads; zero
    /// for GAPBS and the house workload.
    pub ops_per_sec: f64,
    /// GAPBS mean time per trial (virtual); zero for every other workload.
    pub trial_time: Nanos,
    /// Pages promoted during measurement.
    pub promotions: u64,
    /// Pages demoted during measurement.
    pub demotions: u64,
    /// Re-access percentage of promoted pages (Fig. 9 metric).
    pub reaccess_pct: Option<f64>,
    /// Fraction of accesses served from the top (DRAM) tier.
    pub top_tier_share: Option<f64>,
    /// Median per-operation latency during measurement, exact (the
    /// nearest-rank sample): a YCSB operation's, or under co-location the
    /// lukewarm tenant's get; `None` for every other workload.
    pub p50: Option<mc_mem::Nanos>,
    /// 99th-percentile per-operation latency, exact and timed like
    /// [`Self::p50`].
    pub p99: Option<mc_mem::Nanos>,
    /// Per-window statistics (Figs. 8-9 series).
    pub windows: Vec<WindowStats>,
    /// The substrate's counters: migrations and their failures, injected
    /// faults, transactions, shadow hits, evictions, swap-ins.
    pub stats: MemStats,
    /// The policy's counters, by name (empty for Memory-mode); read one
    /// with [`RunOutcome::counter`].
    pub counters: Vec<(&'static str, u64)>,
    /// Page accesses skipped because an injected allocation fault
    /// outlasted the retry budget (zero without an injector: there the
    /// first such access fails the run instead).
    pub dropped_accesses: u64,
    /// Where time went (access/stall/daemon/background split).
    pub costs: CostBreakdown,
}

impl RunOutcome {
    /// One policy counter by name, like [`Simulation::counter`]: 0 for an
    /// unknown name and for Memory-mode.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Share of total accounted time spent on tiering overhead (stalls,
    /// daemon CPU, background copies) rather than device accesses — the
    /// metric of `repro`'s `batch` section.
    pub fn overhead_share(&self) -> f64 {
        let c = &self.costs;
        let overhead = c.stall_time + c.daemon_time + c.background_time;
        let total = c.access_time + overhead;
        if total == Nanos::ZERO {
            0.0
        } else {
            overhead.as_nanos() as f64 / total.as_nanos() as f64
        }
    }
}

/// The workload an [`Experiment`] drives.
#[derive(Debug, Clone, Copy)]
enum Workload {
    /// A YCSB key-value workload (Figs. 5, 7-10).
    Ycsb(YcsbWorkload),
    /// A GAPBS graph kernel (Fig. 6).
    Gapbs(Kernel),
    /// §VII's read/write-split microbenchmark.
    SplitMicro,
    /// §II's co-location race: a lukewarm tenant, then a hot one.
    Colocation,
    /// §III-C's demotion cascade: a zipfian read stream over `footprint`
    /// pages.
    Overcommit { footprint: usize },
    /// The [`house`] workload.
    House,
}

/// The split micro's `(dram_pages, pm_pages)` budget: DRAM for one of its
/// two hot sets, and a PM tier far larger than both.
const SPLIT_MICRO_BUDGET: (usize, usize) = (256, 4096);

impl Workload {
    /// The `(dram_pages, pm_pages)` budget `scale` gives this workload.
    fn budget(self, scale: &Scale) -> (usize, usize) {
        match self {
            Workload::Ycsb(_) | Workload::Colocation => (scale.dram_pages, scale.pm_pages),
            Workload::Gapbs(_) => scale.graph_machine(),
            Workload::SplitMicro => SPLIT_MICRO_BUDGET,
            // The scale's total memory, a fifth of it DRAM.
            Workload::Overcommit { .. } => {
                let total = scale.dram_pages + scale.pm_pages;
                (total / 5, total - total / 5)
            }
            Workload::House => house::BUDGET,
        }
    }
}

/// One experiment run as the single description of it: the constructors
/// resolve everything the [`Scale`] implies (page budget, scan interval,
/// scan batch, metrics window) into [`Experiment::cfg`] once, and
/// whatever else a run varies — fault injection, batch size, migration
/// mode, perf hooks, the §VII knobs, the machine — is an edit of `cfg` in
/// place.
///
/// ```no_run
/// use mc_sim::experiments::{Experiment, Scale};
/// use mc_sim::SystemKind;
/// use mc_workloads::ycsb::YcsbWorkload;
///
/// let mut e = Experiment::ycsb(YcsbWorkload::A, SystemKind::MultiClock, &Scale::tiny());
/// e.cfg.engine.migrate_batch_size = 8;
/// let outcome = e.run().unwrap();
/// assert!(outcome.ops_per_sec > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    workload: Workload,
    scale: Scale,
    /// The configuration [`Experiment::run`] hands to [`Simulation::new`].
    pub cfg: SimConfig,
    /// Where to write the events/ticks/report artifacts after the run
    /// (the layout `mc-obs-report` consumes); `Some` turns observability
    /// on for the run.
    pub obs_dir: Option<std::path::PathBuf>,
}

impl Experiment {
    fn new(workload: Workload, system: SystemKind, scale: &Scale) -> Self {
        let (dram, pm) = workload.budget(scale);
        let mut cfg = SimConfig::new(system, dram, pm);
        cfg.scan_batch = scale.scan_batch;
        cfg.window = scale.window();
        let e = Experiment {
            workload,
            scale: scale.clone(),
            cfg,
            obs_dir: None,
        };
        e.interval(scale.scan_interval())
    }

    /// `workload` on `system` at `scale`: the scale's DRAM + PM budget as
    /// a [`MachineDesc::dram_pm`], scanning every paper second.
    pub fn ycsb(workload: YcsbWorkload, system: SystemKind, scale: &Scale) -> Self {
        Experiment::new(Workload::Ycsb(workload), system, scale)
    }

    /// The GAPBS `kernel` on `system` at `scale`: the scale's graph
    /// machine ([`Scale::graph_machine`]), with the scan interval
    /// shortened by `Scale::GRAPH_INTERVAL_FACTOR`.
    pub fn gapbs(kernel: Kernel, system: SystemKind, scale: &Scale) -> Self {
        Experiment::new(Workload::Gapbs(kernel), system, scale)
    }

    /// The read/write-split microbenchmark on `system`: one page set is
    /// read-hot, a disjoint one write-hot, and DRAM fits only one of them
    /// — where §VII's dirtiness weighting has something to decide. A
    /// 256-page DRAM + 4 096-page PM budget, scanning every paper second;
    /// 300 000 read + write pairs warm up, 300 000 are measured.
    pub fn split_micro(system: SystemKind, scale: &Scale) -> Self {
        Experiment::new(Workload::SplitMicro, system, scale)
    }

    /// Two tenants share `system` on the scale's machine: a lukewarm
    /// uniform-access store loads first and wins the DRAM race, then a hot
    /// YCSB-A client over half the records loads into what is left; the
    /// run interleaves four hot operations with one lukewarm get. The
    /// throughput is the hot tenant's, the latency percentiles are the
    /// lukewarm tenant's gets.
    pub fn colocation(system: SystemKind, scale: &Scale) -> Self {
        Experiment::new(Workload::Colocation, system, scale)
    }

    /// A zipfian read stream over `ratio` × the scale's total memory, on
    /// a machine of that total with a fifth of it DRAM, so that past 1.0
    /// the lowest tier must evict. Every page is faulted in address order
    /// first, then twice the footprint in reads warms the policy up and
    /// 400 000 are measured. The daemon scans 4 096 pages every 5 ms
    /// whatever the scale.
    pub fn overcommit(system: SystemKind, ratio: f64, scale: &Scale) -> Self {
        let total = scale.dram_pages + scale.pm_pages;
        let footprint = (total as f64 * ratio) as usize;
        let mut e = Experiment::new(Workload::Overcommit { footprint }, system, scale);
        e.cfg.scan_interval = Nanos::from_millis(5);
        e.cfg.scan_batch = 4096;
        e
    }

    /// The [`house`] workload on `system`: its fixed 64 + 512-page budget
    /// as a [`MachineDesc::dram_pm`], observability on, and
    /// [`SimConfig::new`]'s scan interval, scan batch and metrics window —
    /// no scale applies, so its runs are the same at every one.
    pub fn house(system: SystemKind) -> Self {
        let (dram, pm) = house::BUDGET;
        let mut cfg = SimConfig::new(system, dram, pm);
        cfg.instrument.obs = mc_obs::ObsConfig::on();
        Experiment {
            workload: Workload::House,
            // Never read: the house workload has no scale.
            scale: Scale::quick(),
            cfg,
            obs_dir: None,
        }
    }

    /// Selects the machine *shape*: a function arranging the workload's
    /// `(dram_pages, pm_pages)` budget into a [`MachineDesc`], so the same
    /// [`Scale`] drives every machine. Default [`MachineDesc::dram_pm`];
    /// `repro`'s house `dual` / `small` rows and the ablation's `slow-pm`
    /// device pick other shapes.
    pub fn machine(mut self, shape: fn(usize, usize) -> MachineDesc) -> Self {
        let (dram, pm) = self.workload.budget(&self.scale);
        self.cfg.mem = shape(dram, pm);
        self
    }

    /// Overrides the daemon scan interval (the Fig. 10 knob); a GAPBS run
    /// shortens it by `Scale::GRAPH_INTERVAL_FACTOR`.
    pub fn interval(mut self, interval: Nanos) -> Self {
        self.cfg.scan_interval = if let Workload::Gapbs(_) = self.workload {
            Nanos::from_nanos((interval.as_nanos() as f64 * Scale::GRAPH_INTERVAL_FACTOR) as u64)
        } else {
            interval
        };
        self
    }

    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// The first [`RunError`] the simulation latched — the workload ran
    /// the machine out of memory or touched an address past the page
    /// table — or the filesystem error from writing the obs artifacts.
    pub fn run(self) -> Result<RunOutcome, RunError> {
        self.run_observed().map(|(outcome, _)| outcome)
    }

    /// [`Experiment::run`], and for a house run its [`Observables`], taken
    /// from the finished simulation.
    ///
    /// # Errors
    ///
    /// As [`Experiment::run`].
    pub fn run_observed(self) -> Result<(RunOutcome, Option<Observables>), RunError> {
        let dir = self.obs_dir.clone();
        let house = matches!(self.workload, Workload::House);
        let (mut sim, measured) = self.drive();
        let observed = house.then(|| Observables::of(&sim, house::PAGES));
        let outcome = summarize(&mut sim, measured);
        if let Some(dir) = &dir {
            sim.write_obs(dir)?;
        }
        Ok((outcome?, observed))
    }

    /// Drives the workload on a new simulation of `cfg` to its end.
    fn drive(mut self) -> (Simulation, Measured) {
        if self.obs_dir.is_some() {
            self.cfg.instrument.obs = mc_obs::ObsConfig::on();
        }
        let scale = &self.scale;
        let mut sim = Simulation::new(self.cfg);
        let measured = match self.workload {
            Workload::Ycsb(w) => run_ycsb(&mut sim, w, scale),
            Workload::Gapbs(k) => run_gapbs(&mut sim, k, scale),
            Workload::SplitMicro => run_split_micro(&mut sim),
            Workload::Colocation => run_colocation(&mut sim, scale),
            Workload::Overcommit { footprint } => run_overcommit(&mut sim, footprint),
            Workload::House => house::drive(&mut sim),
        };
        sim.finish();
        (sim, measured)
    }
}

/// What a finished run observably produced: the terms of the house
/// invariant (DESIGN.md §17), under which a change that keeps every one
/// is bit-identical. A house run carries them beside its [`RunOutcome`]
/// ([`Experiment::run_observed`]), and `repro` digests their `Debug` into
/// the run's appendix fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Observables {
    /// Virtual time at the end of the run.
    pub now: Nanos,
    /// The substrate's counters.
    pub stats: MemStats,
    /// The per-tick counter series; empty with obs off.
    pub ticks_csv: String,
    /// The retained tracepoint events; empty with obs off.
    pub events_jsonl: String,
    /// `(frame, tier)` of each of the workload's pages, `None` if unmapped.
    pub placement: Vec<Option<(u32, u8)>>,
    /// Pages promoted over the run.
    pub promotions: u64,
    /// Pages demoted over the run.
    pub demotions: u64,
    /// Where time went (access/stall/daemon/background split).
    pub costs: CostBreakdown,
    /// Transactions still in their copy window when the run ended (the
    /// last tick's begins never get a settle tick); zero in `Sync` mode.
    pub open_txns: u64,
    /// The run's time ledger: [`Self::now`] is the sum of its on-clock
    /// categories, and [`Self::costs`] groups them.
    pub time: TimeLedger,
}

impl Observables {
    /// Reads a finished run whose workload mapped virtual pages
    /// `0..pages`.
    fn of(s: &Simulation, pages: u64) -> Self {
        let placement = (0..pages)
            .map(|p| {
                s.mem().translate(VPage::new(p)).map(|f| {
                    let frame = s.mem().frame(f);
                    (f.raw(), frame.tier().index() as u8)
                })
            })
            .collect();
        Observables {
            now: s.now(),
            stats: s.mem().stats().clone(),
            ticks_csv: s.obs_ticks_csv().unwrap_or_default(),
            events_jsonl: s.obs_events_jsonl().unwrap_or_default(),
            placement,
            promotions: s.metrics().total_promotions(),
            demotions: s.metrics().total_demotions(),
            costs: s.metrics().costs(),
            open_txns: s.mem().migration_txns().len() as u64,
            time: s.time().clone(),
        }
    }
}

/// The house workload: the run `repro`'s `house` section pins under every
/// system and engine mode, and the one the batch, machine and perf
/// harnesses compare. A first-touch fill spills the tail of the working
/// set into the capacity tier, a hot set deep in that tail is hammered
/// every round (so the scanner must promote it), a stride keeps the lists
/// churning, and compute gaps let the daemon tick.
pub mod house {
    use super::{Experiment, Measured};
    use crate::config::SimConfig;
    use crate::engine::Simulation;
    use mc_mem::{Nanos, PageKind, PAGE_SIZE};
    use mc_workloads::Memory;

    /// Virtual pages the workload maps, `0..PAGES`.
    pub const PAGES: u64 = 192;

    /// The `(dram_pages, pm_pages)` budget of [`Experiment::house`].
    pub(super) const BUDGET: (usize, usize) = (64, 512);

    /// Runs the workload on `cfg` as given and hands back the finished
    /// simulation, for harnesses that compare two of them field by field.
    pub fn run(cfg: SimConfig) -> Simulation {
        let system = cfg.system;
        Experiment {
            cfg,
            ..Experiment::house(system)
        }
        .drive()
        .0
    }

    /// The driver: it measures nothing beyond what the simulation holds.
    pub(super) fn drive(s: &mut Simulation) -> Measured {
        let a = s.mmap(PAGE_SIZE * PAGES as usize, PageKind::Anon);
        for p in 0..PAGES {
            s.write(a.add(p * PAGE_SIZE as u64), 64);
        }
        for round in 0..400u64 {
            for h in 0..8u64 {
                s.read(a.add((160 + h) * PAGE_SIZE as u64), 64);
            }
            let page = (round * 7) % PAGES;
            let addr = a.add(page * PAGE_SIZE as u64);
            if round % 3 == 0 {
                s.write(addr, 256);
            } else {
                s.read(addr, 64);
            }
            s.compute(Nanos::from_millis(25));
            s.record_op();
        }
        Measured::default()
    }
}

/// What a driver measured over its timed phase; [`summarize`] adds what
/// the finished simulation holds.
#[derive(Debug, Default)]
pub(crate) struct Measured {
    /// See [`RunOutcome::ops_per_sec`].
    ops_per_sec: f64,
    /// See [`RunOutcome::trial_time`].
    trial_time: Nanos,
    /// The per-operation latencies behind [`RunOutcome::p50`] and
    /// [`RunOutcome::p99`]; empty where the driver times no operations.
    latency: LatencyHistogram,
}

impl Measured {
    /// `ops` operations in `elapsed` virtual time.
    fn ops(ops: u64, elapsed: Nanos, latency: LatencyHistogram) -> Measured {
        let ops_per_sec = ops as f64 / elapsed.as_secs_f64();
        Measured {
            ops_per_sec,
            latency,
            ..Measured::default()
        }
    }
}

/// A YCSB client over `records` records, with every other setting the
/// [`Scale`] constants.
fn ycsb_config(records: usize) -> YcsbConfig {
    YcsbConfig {
        records,
        value_size: Scale::VALUE_SIZE,
        op_compute: Scale::OP_COMPUTE,
        insert_scale: Scale::INSERT_SCALE,
        seed: Scale::SEED,
    }
}

/// The YCSB driver: load, warm up for `scale.warmup`, measure for
/// `scale.measure`.
fn run_ycsb(sim: &mut Simulation, workload: YcsbWorkload, scale: &Scale) -> Measured {
    let mut client = YcsbClient::load(ycsb_config(scale.records), sim);
    // Warm-up phase (untimed).
    let warm_end = sim.now() + scale.warmup;
    while sim.now() < warm_end {
        client.run_op(workload, sim);
    }
    // Measurement phase (per-op latencies feed the tail histogram).
    let t0 = sim.now();
    let end = t0 + scale.measure;
    let mut ops = 0u64;
    let mut latency = LatencyHistogram::new();
    while sim.now() < end {
        let before = sim.now();
        client.run_op(workload, sim);
        latency.record(sim.now() - before);
        sim.record_op();
        ops += 1;
    }
    Measured::ops(ops, sim.now() - t0, latency)
}

/// The GAPBS driver: build the graph, run one untimed trial, then time
/// `scale.trials` more.
fn run_gapbs(sim: &mut Simulation, kernel: Kernel, scale: &Scale) -> Measured {
    let gcfg = GraphConfig {
        scale: scale.graph_scale,
        degree: scale.graph_degree,
        symmetric: true,
        max_weight: 255,
        seed: Scale::SEED,
        arena_slots: 8,
    };
    let mut csr = Csr::build(&gcfg, sim);

    // The kernels return their computed values (distances, ranks, counts);
    // this driver only measures the memory traffic they generate, so the
    // results are deliberately dropped.
    let run_trial = |csr: &mut Csr, sim: &mut Simulation, trial: usize| {
        csr.reset_arena();
        match kernel {
            Kernel::Bfs => {
                let src = csr.source_vertex(trial);
                let _ = bfs::bfs(csr, sim, src);
            }
            Kernel::Sssp => {
                let src = csr.source_vertex(trial);
                let _ = sssp::sssp(csr, sim, src);
            }
            Kernel::Pr => {
                let _ = pagerank::pagerank(csr, sim, 5);
            }
            Kernel::Cc => {
                let _ = cc::cc(csr, sim);
            }
            Kernel::Bc => {
                let _ = bc::bc(csr, sim, 2);
            }
            Kernel::Tc => {
                let _ = tc::tc(csr, sim);
            }
        }
    };

    // One untimed warm-up trial lets the tiering system converge, as the
    // paper's multi-trial averaging does.
    run_trial(&mut csr, sim, 0);
    let t0 = sim.now();
    for trial in 0..scale.trials {
        run_trial(&mut csr, sim, trial);
        sim.record_op();
    }
    let elapsed = sim.now() - t0;
    Measured {
        trial_time: Nanos::from_nanos(elapsed.as_nanos() / scale.trials as u64),
        ..Measured::default()
    }
}

/// The split micro's driver ([`Experiment::split_micro`]).
fn run_split_micro(sim: &mut Simulation) -> Measured {
    const OPS: u64 = 300_000;
    let dram = SPLIT_MICRO_BUDGET.0;
    // Two hot sets, each as large as usable DRAM: they cannot both fit.
    let set_pages = 220u64;
    let filler = sim.mmap(PAGE_SIZE * dram, PageKind::Anon); // consumes DRAM
    for i in 0..dram as u64 {
        sim.read(filler.add(i * PAGE_SIZE as u64), 8);
    }
    let read_hot = sim.mmap(PAGE_SIZE * set_pages as usize, PageKind::Anon);
    let write_hot = sim.mmap(PAGE_SIZE * set_pages as usize, PageKind::Anon);
    let mut rng = StdRng::seed_from_u64(Scale::SEED);
    let mut run_ops = |sim: &mut Simulation| {
        for _ in 0..OPS {
            let p = rng.gen_range(0..set_pages);
            sim.read(read_hot.add(p * PAGE_SIZE as u64), 64);
            let q = rng.gen_range(0..set_pages);
            sim.write(write_hot.add(q * PAGE_SIZE as u64), 256);
        }
    };
    run_ops(sim); // warm up
    let t0 = sim.now();
    run_ops(sim);
    Measured::ops(OPS, sim.now() - t0, LatencyHistogram::new())
}

/// The co-location driver ([`Experiment::colocation`]).
fn run_colocation(sim: &mut Simulation, scale: &Scale) -> Measured {
    // The lukewarm tenant loads FIRST and wins the DRAM race.
    let mut cold_store = KvStore::new(sim, scale.records);
    let value = vec![7u8; Scale::VALUE_SIZE];
    let cold_keys = scale.records as u64 / 2;
    for k in 0..cold_keys {
        cold_store.set(sim, k, &value);
    }
    let cold_dist = Uniform::new(cold_keys);
    let mut cold_rng = StdRng::seed_from_u64(Scale::SEED ^ 0xc01d);
    // The hot zipfian tenant loads second: its records land in PM.
    let mut hot = YcsbClient::load(ycsb_config(scale.records / 2), sim);
    // Interleave: 4 hot ops per 1 cold op (the hot tenant dominates).
    let mut latency = LatencyHistogram::new();
    let mut phase = |sim: &mut Simulation, until: Nanos, count: bool| -> u64 {
        let mut hot_ops = 0u64;
        while sim.now() < until {
            for _ in 0..4 {
                hot.run_op(YcsbWorkload::A, sim);
                hot_ops += 1;
            }
            let before = sim.now();
            cold_store.get(sim, cold_dist.next(&mut cold_rng));
            if count {
                latency.record(sim.now() - before);
                sim.record_op();
            }
        }
        hot_ops
    };
    let warm_end = sim.now() + scale.warmup;
    phase(sim, warm_end, false);
    let t0 = sim.now();
    let hot_ops = phase(sim, t0 + scale.measure, true);
    Measured::ops(hot_ops, sim.now() - t0, latency)
}

/// The overcommit driver ([`Experiment::overcommit`]).
fn run_overcommit(sim: &mut Simulation, footprint: usize) -> Measured {
    const OPS: u64 = 400_000;
    let region = sim.mmap(PAGE_SIZE * footprint, PageKind::Anon);
    let zipf = ScrambledZipfian::new(footprint as u64);
    let mut rng = StdRng::seed_from_u64(Scale::SEED);
    // Fault every page in address order first — like an application that
    // initialises its heap before serving. First-touch order is then
    // unrelated to hotness (the scrambled zipfian spreads hot pages
    // uniformly), and overcommitted footprints actually overcommit.
    for p in 0..footprint as u64 {
        sim.write(region.add(p * PAGE_SIZE as u64), 64);
    }
    // Warm up the policy, then measure a fixed op count.
    for _ in 0..footprint * 2 {
        sim.read(region.add(zipf.next(&mut rng) * PAGE_SIZE as u64), 64);
    }
    let t0 = sim.now();
    for _ in 0..OPS {
        sim.read(region.add(zipf.next(&mut rng) * PAGE_SIZE as u64), 64);
    }
    Measured::ops(OPS, sim.now() - t0, LatencyHistogram::new())
}

/// A finished simulation as the run's result: the error it latched, or
/// what the driver measured plus the simulation's metrics and counters.
pub(crate) fn summarize(sim: &mut Simulation, measured: Measured) -> Result<RunOutcome, RunError> {
    if let Some(e) = sim.take_error() {
        return Err(e);
    }
    let m = sim.metrics();
    Ok(RunOutcome {
        system: sim.config().system,
        ops_per_sec: measured.ops_per_sec,
        trial_time: measured.trial_time,
        promotions: m.total_promotions(),
        demotions: m.total_demotions(),
        reaccess_pct: m.overall_reaccess_pct(),
        top_tier_share: sim
            .memory_mode_stats()
            .map(|s| s.hit_ratio())
            .or_else(|| sim.mem().stats().fast_tier_share(sim.mem().topology())),
        p50: measured.latency.percentile(50.0),
        p99: measured.latency.percentile(99.0),
        windows: m.windows().to_vec(),
        stats: sim.mem().stats().clone(),
        counters: sim.counters(),
        dropped_accesses: sim.dropped_accesses(),
        costs: m.costs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ycsb_run_produces_throughput() {
        let mut scale = Scale::tiny();
        scale.warmup = Nanos::from_millis(500);
        scale.measure = Nanos::from_millis(500);
        let o = Experiment::ycsb(YcsbWorkload::C, SystemKind::Static, &scale)
            .run()
            .unwrap();
        assert!(o.ops_per_sec > 0.0);
        assert_eq!(o.promotions, 0, "static never promotes");
        assert_eq!(o.stats.injected_faults, 0, "no injector installed");
        assert!(o.costs.access_time > Nanos::ZERO);
    }

    /// No system runs the tiny machine out of memory or off the page
    /// table: the typed failure path stays unused on every frontend.
    #[test]
    fn every_system_completes_at_tiny_scale() {
        let mut scale = Scale::tiny();
        scale.warmup = Nanos::from_millis(200);
        scale.measure = Nanos::from_millis(200);
        for system in [
            SystemKind::Static,
            SystemKind::MultiClock,
            SystemKind::Nomad,
            SystemKind::Nimble,
            SystemKind::HybridTier,
            SystemKind::AtCpm,
            SystemKind::AtOpm,
            SystemKind::AutoNuma,
            SystemKind::Amp,
            SystemKind::MemoryMode,
            SystemKind::OracleLru,
            SystemKind::OracleLfu,
        ] {
            let o = Experiment::ycsb(YcsbWorkload::A, system, &scale).run();
            match o {
                Ok(o) => assert_eq!(o.dropped_accesses, 0, "{system:?}"),
                Err(e) => panic!("{system:?}: {e}"),
            }
        }
    }

    #[test]
    fn multi_clock_promotes_on_ycsb() {
        let o = Experiment::ycsb(YcsbWorkload::A, SystemKind::MultiClock, &Scale::tiny())
            .run()
            .unwrap();
        assert!(o.promotions > 0, "MULTI-CLOCK should promote hot pages");
        let share = o.overhead_share();
        assert!((0.0..=1.0).contains(&share), "share={share}");
    }

    #[test]
    fn experiment_default_interval_follows_the_scale() {
        let scale = Scale::tiny();
        let b = || Experiment::ycsb(YcsbWorkload::B, SystemKind::MultiClock, &scale);
        let implicit = b().run().unwrap();
        let explicit = b().interval(scale.scan_interval()).run().unwrap();
        assert_eq!(implicit.ops_per_sec, explicit.ops_per_sec);
        assert_eq!(implicit.promotions, explicit.promotions);
        assert_eq!(implicit.demotions, explicit.demotions);
    }

    #[test]
    fn experiment_batch_and_shard_knobs_reach_the_policy() {
        let mut scale = Scale::tiny();
        scale.warmup = Nanos::from_millis(400);
        scale.measure = Nanos::from_millis(400);
        // Two sockets: two list shards per tier, derived from the machine.
        let mut e = Experiment::ycsb(YcsbWorkload::A, SystemKind::MultiClock, &scale)
            .machine(|dram, pm| MachineDesc::dual_socket(dram / 2, pm / 2));
        e.cfg.engine.migrate_batch_size = 8;
        let o = e.run().unwrap();
        assert!(o.ops_per_sec > 0.0);
    }

    /// The extension workloads keep the machines, intervals and batches
    /// their hand-built configurations had, and follow a machine shape
    /// like every other run.
    #[test]
    fn extension_workloads_resolve_their_machine_interval_and_batch() {
        let s = Scale::quick();
        let total = s.dram_pages + s.pm_pages;
        let cases = [
            (
                Experiment::split_micro(SystemKind::MultiClock, &s),
                (256, 4096),
                (s.scan_interval(), s.scan_batch),
            ),
            (
                Experiment::colocation(SystemKind::Nimble, &s),
                (s.dram_pages, s.pm_pages),
                (s.scan_interval(), s.scan_batch),
            ),
            (
                Experiment::overcommit(SystemKind::Static, 1.5, &s),
                (total / 5, total - total / 5),
                (Nanos::from_millis(5), 4096),
            ),
        ];
        for (e, (dram, pm), daemon) in cases {
            assert_eq!(e.cfg.mem, MachineDesc::dram_pm(dram, pm));
            assert_eq!((e.cfg.scan_interval, e.cfg.scan_batch), daemon);
            let dual = e.machine(|dram, pm| MachineDesc::dual_socket(dram / 2, pm / 2));
            assert_eq!(dual.cfg.mem, MachineDesc::dual_socket(dram / 2, pm / 2));
        }
    }

    #[test]
    fn gapbs_run_produces_trial_time() {
        let mut scale = Scale::tiny();
        scale.graph_scale = 8;
        let e = Experiment::gapbs(Kernel::Bfs, SystemKind::Static, &scale);
        // The graph machine and the shortened interval are resolved once.
        let graph_machine = MachineDesc::dram_pm(scale.graph_dram_pages, scale.pm_pages);
        assert_eq!(e.cfg.mem, graph_machine);
        assert_eq!(e.cfg.scan_interval, Nanos::from_millis(1));
        let r = e.run().unwrap();
        assert!(r.trial_time > Nanos::ZERO);
    }

    #[test]
    fn paper_interval_scales_linearly() {
        let s = Scale::tiny();
        assert_eq!(s.scan_interval(), s.interval_unit);
        assert_eq!(
            s.paper_interval(5.0).as_nanos(),
            5 * s.interval_unit.as_nanos()
        );
        assert_eq!(s.window(), s.paper_interval(20.0));
    }

    #[test]
    fn explicit_default_machine_is_result_neutral() {
        let mut scale = Scale::tiny();
        scale.warmup = Nanos::from_millis(400);
        scale.measure = Nanos::from_millis(400);
        let b = || Experiment::ycsb(YcsbWorkload::B, SystemKind::MultiClock, &scale);
        let implicit = b().run().unwrap();
        let explicit = b().machine(MachineDesc::dram_pm).run().unwrap();
        assert_eq!(implicit.ops_per_sec, explicit.ops_per_sec);
        assert_eq!(implicit.promotions, explicit.promotions);
        assert_eq!(implicit.demotions, explicit.demotions);
    }

    #[test]
    fn hybridtier_runs_on_three_tier_machine() {
        let mut scale = Scale::tiny();
        scale.warmup = Nanos::from_millis(400);
        scale.measure = Nanos::from_millis(400);
        let o = Experiment::ycsb(YcsbWorkload::A, SystemKind::HybridTier, &scale)
            .machine(|dram, pm| MachineDesc::three_tier(dram / 2, dram, pm))
            .run()
            .unwrap();
        assert!(o.ops_per_sec > 0.0);
        let share = o.top_tier_share.unwrap_or(0.0);
        assert!((0.0..=1.0).contains(&share), "share={share}");
    }

    #[test]
    fn memory_mode_scale_targets_4x_dram() {
        let s = Scale::tiny().memory_mode();
        let chunk = 2048; // 1024 value + 12 header -> 2 KiB class
        let footprint = s.records * chunk;
        let dram = s.dram_pages * mc_mem::PAGE_SIZE;
        let ratio = footprint as f64 / dram as f64;
        assert!((3.5..4.5).contains(&ratio), "ratio={ratio}");
    }
}
