//! The simulation engine: implements [`Memory`] over the tiering
//! substrate, interleaving application accesses with the tiering daemon's
//! periodic tick (the paper's one `kpromoted` thread) in virtual time.

use crate::config::{EngineKnobs, SimConfig, SystemKind};
use crate::error::RunError;
use crate::metrics::Metrics;
use crate::obs::ObsState;
use mc_mem::{
    page_chunks, AccessKind, Charge, Instruments, MemEvent, MemorySystem, MigrationMode, Nanos,
    PageBytes, PageKind, PageTable, TierId, TieringPolicy, TimeLedger, Topology, VAddr, VPage,
    PAGE_SIZE,
};
use mc_policies::{
    AutoNuma, AutoTiering, AutoTieringMode, HybridTier, MemoryModeCache, Nimble, Scored,
    ScoredKind, StaticTiering,
};
use mc_workloads::Memory;
use multi_clock::{MultiClock, MultiClockConfig};

/// The system frontend: an OS tiering policy, or the Memory-mode cache.
enum Frontend {
    Tiered {
        policy: Box<dyn TieringPolicy>,
        oracle_visibility: bool,
    },
    MemoryMode(MemoryModeCache),
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Frontend::Tiered { policy, .. } => write!(f, "Tiered({})", policy.name()),
            Frontend::MemoryMode(_) => write!(f, "MemoryMode"),
        }
    }
}

/// A running simulation. Implements [`Memory`] so workloads drive it
/// directly.
#[derive(Debug)]
pub struct Simulation {
    cfg: SimConfig,
    mem: MemorySystem,
    frontend: Frontend,
    /// When the tiering daemon next wakes; `None` for Memory-mode and for
    /// policies that never tick.
    next_tick: Option<Nanos>,
    next_free_page: u64,
    /// The bytes workloads stored with `write_bytes`, by virtual page:
    /// only the lines they wrote. They cost no virtual time.
    data: PageBytes,
    metrics: Metrics,
    obs: Option<ObsState>,
    /// The first error of the run; once set, every later fault is skipped.
    error: Option<RunError>,
    /// Accesses skipped because their fault could not be served.
    dropped: u64,
}

impl Simulation {
    /// Builds a simulation for the configured system.
    pub fn new(cfg: SimConfig) -> Self {
        let mut mem = MemorySystem::new(cfg.mem.clone());
        let topo = mem.topology();
        let frontend = match tiering_policy(&cfg, topo) {
            Some(policy) => Frontend::Tiered {
                policy,
                oracle_visibility: cfg.system.needs_oracle_visibility(),
            },
            None => Frontend::MemoryMode(MemoryModeCache::new(topo.tier(TierId::TOP).pages())),
        };
        let next_tick = match &frontend {
            Frontend::Tiered { policy, .. } => policy.tick_interval(),
            Frontend::MemoryMode(_) => None,
        };
        let obs = cfg
            .instrument
            .obs
            .enabled
            .then(|| ObsState::new(mem.topology().tier_count()));
        let knobs = &cfg.instrument;
        mem.instruments = Instruments::new(&knobs.obs, &knobs.fault, knobs.perf.clone());
        let window = cfg.window;
        let (horizon, frames) = (cfg.scan_interval, mem.total_frames());
        Simulation {
            cfg,
            mem,
            frontend,
            next_tick,
            next_free_page: 0,
            data: PageBytes::default(),
            metrics: Metrics::with_horizon(window, horizon, frames),
            obs,
            error: None,
            dropped: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The substrate (counters, topology).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The run's clock and where its time went, category by category;
    /// [`Metrics::costs`] is the coarser view of the same ledger.
    pub fn time(&self) -> &TimeLedger {
        &self.metrics.time
    }

    /// The first error the run hit (out of memory, a wild address), if
    /// any. The [`Memory`] interface is infallible, so the error is
    /// latched here: the access that raised it and every later access
    /// that faults are skipped and counted in [`Self::dropped_accesses`].
    pub fn error(&self) -> Option<&RunError> {
        self.error.as_ref()
    }

    /// Moves the latched error out (the step from a finished simulation
    /// to a `Result`).
    pub(crate) fn take_error(&mut self) -> Option<RunError> {
        self.error.take()
    }

    /// Page accesses issued by the workload that were never served: the
    /// ones behind [`Self::error`], and under fault injection the faults
    /// whose allocation retry budget ran out (a degrade, not an error).
    /// Accesses issued = `reads + writes` of the substrate + this.
    pub fn dropped_accesses(&self) -> u64 {
        self.dropped
    }

    /// The retained tracepoint events as JSONL; `None` when obs is off.
    pub fn obs_events_jsonl(&self) -> Option<String> {
        self.obs.as_ref().map(|_| self.mem.recorder().to_jsonl())
    }

    /// The per-tick counter time series as CSV; `None` when obs is off.
    pub fn obs_ticks_csv(&self) -> Option<String> {
        self.obs.as_ref().map(|o| o.series().to_csv())
    }

    /// Writes `events.jsonl`, `ticks.csv` and `report.txt` into `dir`
    /// (creating it), the layout `mc-obs-report` consumes. A no-op when
    /// obs is off.
    pub fn write_obs(&self, dir: &std::path::Path) -> std::io::Result<()> {
        let Some(obs) = &self.obs else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("events.jsonl"), self.mem.recorder().to_jsonl())?;
        std::fs::write(dir.join("ticks.csv"), obs.series().to_csv())?;
        let report = obs.render_report(&self.cfg, &self.mem, &self.metrics);
        std::fs::write(dir.join("report.txt"), report)?;
        Ok(())
    }

    /// The frontend policy's counters (empty for Memory-mode, which has
    /// no tiering daemon).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        match &self.frontend {
            Frontend::Tiered { policy, .. } => policy.counters(&self.mem),
            Frontend::MemoryMode(_) => Vec::new(),
        }
    }

    /// What the frontend policy finds wrong with its own bookkeeping
    /// (MULTI-CLOCK: every mapped page on exactly one list of its tier,
    /// and the rest of `multi_clock::validate`); empty means consistent.
    /// Valid between accesses, which is the only time a caller holds it.
    pub fn invariant_violations(&self) -> Vec<String> {
        match &self.frontend {
            Frontend::Tiered { policy, .. } => policy.invariant_violations(&self.mem),
            Frontend::MemoryMode(_) => Vec::new(),
        }
    }

    /// One policy counter by name, map-style: `sim.counter("mc_ticks")`.
    /// Returns 0 for unknown names and for frontends without a tiering
    /// daemon (Memory-mode), so callers need no unwrapping.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| v)
    }

    /// Memory-mode cache statistics, when running Memory-mode.
    pub(crate) fn memory_mode_stats(&self) -> Option<mc_policies::MemoryModeStats> {
        match &self.frontend {
            Frontend::MemoryMode(c) => Some(c.stats()),
            _ => None,
        }
    }

    /// Records a completed application-level operation (throughput
    /// accounting for the experiment drivers).
    pub fn record_op(&mut self) {
        self.metrics.on_op();
    }

    /// Finalises metrics (settles pending re-access bookkeeping).
    pub fn finish(&mut self) {
        self.metrics.finish();
    }

    /// Runs every daemon tick the clock has passed, each at its own due
    /// instant. A tick can advance the clock (absorbed substrate costs),
    /// so the due check re-reads it each round.
    fn run_due_ticks(&mut self) {
        while let Some(due) = self.next_tick.filter(|&due| due <= self.now()) {
            self.next_tick = self.tick_at(due);
        }
    }

    /// One tick of the tiering daemon at `due`, with scan-CPU charging,
    /// substrate absorption and the obs snapshot. Returns the next
    /// wake-up. Kept out of line: the access path only pays the due check.
    #[inline(never)]
    fn tick_at(&mut self, due: Nanos) -> Option<Nanos> {
        let Frontend::Tiered { policy, .. } = &mut self.frontend else {
            return None;
        };
        self.mem.instruments.set_now(due.as_nanos());
        // Host-time span around the whole daemon tick. The guard only
        // observes the monotonic clock; nothing it reads flows back
        // into engine state, so hooks-on stays bit-identical.
        let mut span = self.mem.instruments.span(mc_obs::Phase::Tick);
        let out = policy.tick(&mut self.mem, due);
        if let Some(s) = span.as_mut() {
            s.add_items(1);
        }
        drop(span);
        // The scan's CPU joins what the tick's migrations charged, so the
        // contention leak is derived once per tick.
        let scan_cost =
            Nanos::from_nanos(out.pages_scanned * self.mem.latency().scan_per_page.as_nanos());
        self.mem.charge(Charge::DaemonCpu, scan_cost);
        absorb_substrate(&mut self.mem, &mut self.metrics);
        self.metrics.settle();
        if let Some(obs) = self.obs.as_mut() {
            let counters = policy.counters(&self.mem);
            obs.snapshot(due, self.mem.stats(), &counters);
        }
        // The policy may have adapted its interval during the tick. A
        // wake-up at or before `due` would spin the catch-up loop forever;
        // clamp to the next representable instant.
        let interval = policy.tick_interval().unwrap_or(self.cfg.scan_interval);
        Some(due + interval.max(Nanos::from_nanos(1)))
    }

    /// Performs one device access, faulting the page in first (allocation
    /// with direct reclaim) if it is not mapped. The heart of the engine.
    fn access_page(&mut self, vpage: VPage, kind: AccessKind, bytes: usize) {
        self.mem.instruments.set_now(self.now().as_nanos());
        // The tier served from and the device time: the first 64 bytes at
        // access latency, the rest streamed from wherever the page now is.
        let (tier, latency) = match &mut self.frontend {
            Frontend::MemoryMode(cache) => {
                // Everything lives in PM; DRAM is a transparent cache, so
                // samples are attributed to the top tier it fronts.
                let (mut lat, bg) = cache.access(vpage, kind, self.mem.latency());
                self.metrics.time.charge(Charge::Background, bg);
                if bytes > 64 {
                    lat += self.mem.latency().stream(TierId::TOP, kind, bytes - 64);
                }
                (TierId::TOP, lat)
            }
            Frontend::Tiered {
                policy,
                oracle_visibility,
            } => {
                // One table lookup on a hit; `NotMapped` is the page fault:
                // allocate (with direct reclaim), map, then access.
                let out = if let Ok(out) = self.mem.access(vpage, kind) {
                    out
                } else {
                    if self.error.is_some() {
                        return self.skip_access(None);
                    }
                    let at = self.metrics.time.now();
                    // A wild pointer in the workload: refused before any
                    // frame is taken for a page that cannot be mapped.
                    if vpage.raw() >= PageTable::MAX_VPAGES {
                        return self.skip_access(Some(RunError::AddressOutOfRange { at, vpage }));
                    }
                    self.mem.note_swap_in(vpage);
                    // Without an injector three reclaim rounds always free a
                    // frame or the machine is genuinely out of memory; with
                    // one, each attempt can fail by injected chance, so give
                    // chaos runs a far larger budget and degrade gracefully
                    // (skip the access, like a fault the kernel retries
                    // later) rather than failing the run.
                    let injected = self.mem.instruments.injector().is_some();
                    let budget = if injected { 64 } else { 3 };
                    let mut attempts = 0;
                    let frame = loop {
                        match self.mem.alloc_page(PageKind::Anon) {
                            Ok(f) => break Some(f),
                            Err(_) => {
                                attempts += 1;
                                if attempts > budget {
                                    break None;
                                }
                                // The outcome is dropped: direct reclaim's scan
                                // work goes uncharged (DESIGN.md §4 records it).
                                let tiers = self.mem.topology().tier_count();
                                for t in (0..tiers).rev() {
                                    policy.on_pressure(
                                        &mut self.mem,
                                        TierId::new(t as u8),
                                        self.metrics.time.now(),
                                    );
                                }
                            }
                        }
                    };
                    let minor_fault = self.mem.latency().minor_fault;
                    self.metrics.time.charge(Charge::MinorFault, minor_fault);
                    let Some(frame) = frame else {
                        let oom = (!injected).then_some(RunError::OutOfMemory { at, vpage });
                        return self.skip_access(oom);
                    };
                    let faulted_in = self.mem.map(vpage, frame).and_then(|()| {
                        policy.on_page_mapped(&mut self.mem, frame);
                        self.mem.access(vpage, kind)
                    });
                    // The page faulted as unmapped, lies inside the span
                    // and the frame is fresh, which rules out every error
                    // `map` and `access` document; the span is the one a
                    // workload address could ever produce.
                    let Ok(out) = faulted_in else {
                        return self.skip_access(Some(RunError::AddressOutOfRange { at, vpage }));
                    };
                    self.metrics.minor_faults += 1;
                    out
                };
                if out.hint_fault {
                    let hf = self.mem.latency().hint_fault;
                    self.metrics.time.charge(Charge::HintFault, hf);
                    self.metrics.hint_faults += 1;
                    policy.on_hint_fault(&mut self.mem, out.frame, kind);
                }
                if *oracle_visibility {
                    policy.on_supervised_access(&mut self.mem, out.frame, kind);
                }
                let mut lat = out.latency;
                if bytes > 64 {
                    lat += self.mem.latency().stream(out.tier, kind, bytes - 64);
                }
                (out.tier, lat)
            }
        };
        self.metrics.time.charge(Charge::Device, latency);
        if let Some(obs) = &mut self.obs {
            obs.on_access(vpage, kind, bytes, tier, latency, self.metrics.time.now());
        }
        self.metrics.on_access(vpage);
        self.settle();
    }

    /// Leaves the access in flight unserved: counts it, latches `error`
    /// unless an earlier one is held, and settles what the fault charged.
    /// Out of line, like the rest of the give-up path: a hit pays nothing.
    #[inline(never)]
    fn skip_access(&mut self, error: Option<RunError>) {
        self.dropped += 1;
        if self.error.is_none() {
            self.error = error;
        }
        self.settle();
    }

    /// Absorbs what the substrate charged meanwhile and runs every
    /// daemon tick the clock has now passed.
    fn settle(&mut self) {
        absorb_substrate(&mut self.mem, &mut self.metrics);
        self.run_due_ticks();
    }

    fn touch(&mut self, addr: VAddr, len: usize, kind: AccessKind) {
        for (page, _, in_page) in page_chunks(addr, len.max(1)) {
            self.access_page(page, kind, in_page);
        }
    }
}

/// The OS tiering policy `cfg` selects over `topo`; `None` for
/// Memory-mode, which is a hardware cache rather than a policy.
fn tiering_policy(cfg: &SimConfig, topo: &Topology) -> Option<Box<dyn TieringPolicy>> {
    use AutoTieringMode::{Cpm, Opm};
    let (interval, batch) = (cfg.scan_interval, cfg.scan_batch);
    // The oracles keep their own clock, 1 s and 1 024 pages a tier,
    // whatever the scan interval (DESIGN.md §2).
    let oracle = |kind| Box::new(Scored::new(kind, topo, Nanos::from_secs(1), 1024));
    Some(match cfg.system {
        SystemKind::Static => Box::new(StaticTiering::new(topo)),
        SystemKind::MultiClock | SystemKind::Nomad => Box::new(MultiClock::new(
            MultiClockConfig {
                scan_interval: interval,
                scan_batch: batch,
                knobs: EngineKnobs {
                    migration_mode: if cfg.system == SystemKind::Nomad {
                        MigrationMode::Transactional
                    } else {
                        cfg.engine.migration_mode
                    },
                    ..cfg.engine
                },
            },
            topo,
        )),
        // Sampling is the point: HybridTier reads a bounded fraction of
        // what the full scanner would walk per wake-up (per tier), trading
        // recall for tracking cost.
        SystemKind::HybridTier => Box::new(HybridTier::new(topo, interval, (batch / 8).max(64))),
        SystemKind::Nimble => Box::new(Nimble::new(topo, interval, batch)),
        SystemKind::AtCpm => Box::new(AutoTiering::new(Cpm, topo, interval, batch)),
        SystemKind::AtOpm => Box::new(AutoTiering::new(Opm, topo, interval, batch)),
        SystemKind::AutoNuma => Box::new(AutoNuma::new(topo, interval, batch)),
        SystemKind::Amp => Box::new(Scored::new(ScoredKind::Amp, topo, interval, batch)),
        SystemKind::OracleLru => oracle(ScoredKind::Lru),
        SystemKind::OracleLfu => oracle(ScoredKind::Lfu),
        SystemKind::MemoryMode => return None,
    })
}

impl Memory for Simulation {
    fn mmap(&mut self, bytes: usize, _kind: PageKind) -> VAddr {
        assert!(bytes > 0, "cannot map an empty region");
        let pages = bytes.div_ceil(PAGE_SIZE) as u64;
        let start = self.next_free_page;
        self.next_free_page += pages;
        VAddr::new(start * PAGE_SIZE as u64)
    }

    fn read(&mut self, addr: VAddr, len: usize) {
        self.touch(addr, len, AccessKind::Read);
    }

    fn write(&mut self, addr: VAddr, len: usize) {
        self.touch(addr, len, AccessKind::Write);
    }

    fn write_bytes(&mut self, addr: VAddr, data: &[u8]) {
        self.touch(addr, data.len(), AccessKind::Write);
        self.data.write(addr, data);
    }

    fn read_bytes(&mut self, addr: VAddr, buf: &mut [u8]) {
        self.touch(addr, buf.len(), AccessKind::Read);
        self.data.read(addr, buf);
    }

    fn now(&self) -> Nanos {
        self.metrics.time.now()
    }

    fn compute(&mut self, t: Nanos) {
        self.metrics.time.charge(Charge::Compute, t);
        self.run_due_ticks();
    }
}

/// Absorbs substrate side effects: the pending charges into the run's
/// ledger, migration events into the windowed metrics. Shared by the
/// access path and the daemon tick. Nearly every access leaves the
/// substrate clean, so the emptiness test is inlined into the hit path
/// and the absorption itself stays out of line.
#[inline]
fn absorb_substrate(mem: &mut MemorySystem, metrics: &mut Metrics) {
    if mem.has_pending_effects() {
        absorb_pending(mem, metrics);
    }
}

/// The out-of-line half of [`absorb_substrate`]: something is pending.
#[inline(never)]
fn absorb_pending(mem: &mut MemorySystem, metrics: &mut Metrics) {
    // Application stalls (TLB shootdowns, swap-ins) hit the app in full;
    // daemon CPU leaks a contention fraction, truncated per absorption.
    let pending = mem.take_charges();
    metrics.time.merge(&pending);
    let daemon_cpu = pending.get(Charge::DaemonCpu).as_nanos();
    let leak = Nanos::from_nanos((daemon_cpu as f64 * mem.latency().daemon_contention) as u64);
    metrics.time.charge(Charge::DaemonLeak, leak);
    for ev in mem.drain_events() {
        let MemEvent::Migrated { vpage, .. } = ev;
        if ev.is_promotion() {
            if let Some(v) = vpage {
                metrics.on_promotion(v);
            }
        } else {
            metrics.on_demotion();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(system: SystemKind) -> Simulation {
        Simulation::new(SimConfig::new(system, 256, 2048))
    }

    #[test]
    fn first_touch_faults_in_dram_first() {
        let mut s = sim(SystemKind::MultiClock);
        let a = s.mmap(PAGE_SIZE * 4, PageKind::Anon);
        s.read(a, 8);
        let frame = s.mem().translate(a.page()).unwrap();
        assert_eq!(s.mem().frame(frame).tier(), TierId::TOP);
        assert_eq!(s.metrics().costs().minor_faults, 1);
        // Second access: no new fault.
        s.read(a, 8);
        assert_eq!(s.metrics().costs().minor_faults, 1);
    }

    /// Frames allocated and not freed again, against pages mapped: a
    /// refused fault must not keep the frame it never mapped.
    fn leaked_frames(s: &Simulation) -> u64 {
        let st = s.mem().stats();
        let mapped = (0..64).filter(|p| s.mem().translate(VPage::new(*p)).is_some());
        st.allocs - st.frees - mapped.count() as u64
    }

    /// An address past the page table's span is a wild pointer in the
    /// workload: refused with a typed error before any frame is taken,
    /// and the pages already mapped keep working.
    #[test]
    fn an_address_beyond_the_page_table_span_is_refused() {
        let mut s = sim(SystemKind::Static);
        let a = s.mmap(PAGE_SIZE, PageKind::Anon);
        s.read(a, 8);
        let wild = VPage::new(PageTable::MAX_VPAGES);
        let before = s.now();
        s.read(wild.base_addr(), 8);
        assert!(matches!(
            s.error(),
            Some(RunError::AddressOutOfRange { vpage, at }) if *vpage == wild && *at == before
        ));
        assert_eq!(s.now(), before, "a refused access costs no virtual time");
        assert_eq!((s.mem().stats().allocs, leaked_frames(&s)), (1, 0));
        assert_eq!(s.dropped_accesses(), 1);
        // A later hit on a mapped page is served as before.
        s.read(a, 8);
        assert!(s.now() > before);
        assert_eq!(s.mem().stats().reads, 2);
        assert_eq!(s.dropped_accesses(), 1);
        let err = crate::experiments::summarize(&mut s, Default::default()).unwrap_err();
        assert!(matches!(err, RunError::AddressOutOfRange { vpage, .. } if vpage == wild));
    }

    /// Under a policy whose `on_pressure` frees nothing, touching more
    /// pages than the machine has frames is a genuine OOM: a value, the
    /// first one wins, and faults after it cost nothing.
    #[test]
    fn exhausting_every_tier_latches_out_of_memory() {
        let mut s = Simulation::new(SimConfig::new(SystemKind::Static, 2, 2));
        s.frontend = Frontend::Tiered {
            policy: Box::new(mc_mem::NullPolicy),
            oracle_visibility: false,
        };
        let a = s.mmap(PAGE_SIZE * 8, PageKind::Anon);
        let page = |i: u64| a.add(i * PAGE_SIZE as u64);
        // Each two-page node keeps one page under its `min` watermark,
        // so the machine holds two pages and the third fault finds none.
        s.write(page(0), 8);
        s.write(page(1), 8);
        assert!(s.error().is_none());
        assert_eq!(s.metrics().costs().minor_faults, 2);
        let before = s.now();
        s.read(page(2), 8);
        assert!(matches!(
            s.error(),
            Some(RunError::OutOfMemory { vpage, at }) if vpage.raw() == 2 && *at == before
        ));
        assert_eq!(
            s.now(),
            before + s.mem().latency().minor_fault,
            "the failed fault is charged, the access is not"
        );
        // The first error wins over a later one, and a fault after the
        // latch returns at once.
        let latched = s.now();
        s.read(VPage::new(PageTable::MAX_VPAGES).base_addr(), 8);
        s.read(page(3), 8);
        assert!(matches!(s.error(), Some(RunError::OutOfMemory { vpage, .. }) if vpage.raw() == 2));
        assert_eq!(s.now(), latched);
        assert_eq!(s.dropped_accesses(), 3);
        assert_eq!(s.metrics().costs().minor_faults, 2);
        assert_eq!(leaked_frames(&s), 0);
        // Mapped pages still hit.
        s.read(page(0), 8);
        assert!(s.now() > latched);
        let st = s.mem().stats();
        assert_eq!(st.reads + st.writes + s.dropped_accesses(), 6, "issued");
        let err = crate::experiments::summarize(&mut s, Default::default()).unwrap_err();
        assert!(
            matches!(err, RunError::OutOfMemory { vpage, at } if vpage.raw() == 2 && at == before)
        );
    }

    #[test]
    fn dram_access_is_faster_than_pm_access() {
        let mut s = sim(SystemKind::Static);
        // Fill DRAM so later touches land in PM.
        let region = s.mmap(PAGE_SIZE * 4096, PageKind::Anon);
        let mut i = 0u64;
        loop {
            let addr = region.add(i * PAGE_SIZE as u64);
            s.read(addr, 8);
            let f = s.mem().translate(addr.page()).unwrap();
            if s.mem().frame(f).tier() != TierId::TOP {
                break;
            }
            i += 1;
            assert!(i < 300, "DRAM must fill eventually");
        }
        let dram_addr = region;
        let pm_addr = region.add(i * PAGE_SIZE as u64);
        let t0 = s.now();
        s.read(dram_addr, 8);
        let dram_cost = s.now() - t0;
        let t1 = s.now();
        s.read(pm_addr, 8);
        let pm_cost = s.now() - t1;
        assert!(pm_cost > dram_cost, "pm={pm_cost} dram={dram_cost}");
    }

    /// Catch-up ticks run at their own due instants, not at `now`.
    #[test]
    fn ticks_fire_on_schedule() {
        let mut cfg = SimConfig::new(SystemKind::MultiClock, 256, 2048);
        cfg.scan_interval = Nanos::from_secs(1);
        cfg.instrument.obs = crate::ObsConfig::on();
        let mut s = Simulation::new(cfg);
        let a = s.mmap(PAGE_SIZE, PageKind::Anon);
        s.read(a, 8);
        // One 2.5 s step crosses two wake-ups.
        s.compute(Nanos::from_millis(2_500));
        assert_eq!(s.counter("mc_ticks"), 2);
        let series = mc_obs::TimeSeries::from_csv(&s.obs_ticks_csv().unwrap()).unwrap();
        assert_eq!(series.timestamps(), [1_000_000_000, 2_000_000_000]);
        assert_eq!(s.next_tick, Some(Nanos::from_secs(3)));
        // The scan daemon has examined the one mapped page.
        assert!(s.metrics().costs().daemon_time > Nanos::ZERO);
    }

    #[test]
    fn static_system_never_ticks() {
        for system in [SystemKind::Static, SystemKind::MemoryMode] {
            let mut s = sim(system);
            assert_eq!(s.next_tick, None, "{system:?}");
            let a = s.mmap(PAGE_SIZE, PageKind::Anon);
            s.read(a, 8);
            s.compute(Nanos::from_secs(10));
            assert_eq!(s.next_tick, None, "{system:?}");
            assert_eq!(s.metrics().costs().daemon_time, Nanos::ZERO);
        }
    }

    #[test]
    fn multi_clock_promotes_hot_pm_page_end_to_end() {
        let mut s = sim(SystemKind::MultiClock);
        // Fill DRAM with one-touch pages.
        let filler = s.mmap(PAGE_SIZE * 4096, PageKind::Anon);
        let mut i = 0u64;
        loop {
            let addr = filler.add(i * PAGE_SIZE as u64);
            s.read(addr, 8);
            let f = s.mem().translate(addr.page()).unwrap();
            if s.mem().frame(f).tier() != TierId::TOP {
                break;
            }
            i += 1;
        }
        let hot = filler.add(i * PAGE_SIZE as u64);
        assert_eq!(
            s.mem().frame(s.mem().translate(hot.page()).unwrap()).tier(),
            TierId::new(1)
        );
        // Touch it every 100 ms for 8 virtual seconds.
        for _ in 0..80 {
            s.read(hot, 8);
            s.compute(Nanos::from_millis(100));
        }
        let f = s.mem().translate(hot.page()).unwrap();
        assert_eq!(s.mem().frame(f).tier(), TierId::TOP, "hot page promoted");
        assert!(s.metrics().total_promotions() >= 1);
    }

    #[test]
    fn memory_mode_caches_hot_pages() {
        let mut s = sim(SystemKind::MemoryMode);
        let a = s.mmap(PAGE_SIZE * 8, PageKind::Anon);
        let t0 = s.now();
        s.read(a, 8); // miss
        let miss_cost = s.now() - t0;
        let t1 = s.now();
        s.read(a, 8); // hit
        let hit_cost = s.now() - t1;
        assert!(miss_cost > hit_cost);
        let st = s.memory_mode_stats().unwrap();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
    }

    #[test]
    fn data_plane_round_trips_across_fault_and_migration() {
        let mut s = sim(SystemKind::MultiClock);
        let a = s.mmap(PAGE_SIZE * 2, PageKind::Anon);
        let payload = vec![7u8; 5000]; // spans two pages
        s.write_bytes(a, &payload);
        let mut out = vec![0u8; 5000];
        s.read_bytes(a, &mut out);
        assert_eq!(out, payload);
    }

    #[test]
    fn oracle_visibility_reaches_policy() {
        let mut s = sim(SystemKind::OracleLru);
        // Fill DRAM, then touch one PM page once: the oracle sees it and
        // promotes at the next tick.
        let filler = s.mmap(PAGE_SIZE * 4096, PageKind::Anon);
        let mut i = 0u64;
        loop {
            let addr = filler.add(i * PAGE_SIZE as u64);
            s.read(addr, 8);
            let f = s.mem().translate(addr.page()).unwrap();
            if s.mem().frame(f).tier() != TierId::TOP {
                break;
            }
            i += 1;
        }
        let pm_page = filler.add(i * PAGE_SIZE as u64);
        s.read(pm_page, 8);
        s.compute(Nanos::from_millis(1_100));
        let f = s.mem().translate(pm_page.page()).unwrap();
        assert_eq!(s.mem().frame(f).tier(), TierId::TOP);
    }

    #[test]
    fn hint_faults_charged_for_autotiering() {
        let mut s = sim(SystemKind::AtOpm);
        let a = s.mmap(PAGE_SIZE * 16, PageKind::Anon);
        for i in 0..16u64 {
            s.read(a.add(i * PAGE_SIZE as u64), 8);
        }
        // Let a tick poison PTEs, then touch the pages again.
        s.compute(Nanos::from_millis(1_100));
        for i in 0..16u64 {
            s.read(a.add(i * PAGE_SIZE as u64), 8);
        }
        assert!(s.metrics().costs().hint_faults > 0);
        assert!(s.metrics().costs().stall_time > Nanos::ZERO);
    }

    #[test]
    fn spanning_read_touches_every_page() {
        let mut s = sim(SystemKind::Static);
        let a = s.mmap(PAGE_SIZE * 3, PageKind::Anon);
        s.read(a, 3 * PAGE_SIZE);
        assert_eq!(s.metrics().costs().minor_faults, 3);
    }

    #[test]
    fn adaptive_interval_config_reaches_the_policy() {
        let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
        cfg.scan_interval = Nanos::from_millis(5);
        cfg.engine.adaptive_interval = true;
        let mut s = Simulation::new(cfg);
        let a = s.mmap(PAGE_SIZE, PageKind::Anon);
        s.read(a, 8);
        // A long idle phase: the adaptive daemon backs off, so it scans
        // far fewer times than the fixed-interval equivalent would.
        s.compute(Nanos::from_secs(2));
        let adaptive_daemon = s.metrics().costs().daemon_time;

        let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
        cfg.scan_interval = Nanos::from_millis(5);
        let mut f = Simulation::new(cfg);
        let b = f.mmap(PAGE_SIZE, PageKind::Anon);
        f.read(b, 8);
        f.compute(Nanos::from_secs(2));
        let fixed_daemon = f.metrics().costs().daemon_time;
        assert!(
            adaptive_daemon < fixed_daemon,
            "adaptive {adaptive_daemon} must scan less than fixed {fixed_daemon} when idle"
        );
    }

    /// Pages of `set` (of `pages` pages) that sit in DRAM.
    fn in_dram(s: &Simulation, set: VAddr, pages: u64) -> usize {
        (0..pages)
            .filter_map(|i| s.mem().translate(set.add(i * PAGE_SIZE as u64).page()))
            .filter(|f| s.mem().frame(*f).tier() == TierId::TOP)
            .count()
    }

    /// Pages in each of [`dram_share`]'s two hot sets.
    const SET: u64 = 48;

    /// A read-hot and a disjoint write-hot set of [`SET`] pages each,
    /// together half as large again as the 64-page DRAM, start in PM
    /// behind a filler that takes DRAM first; returns how many pages of
    /// the read-hot and of the write-hot set DRAM holds after two seconds.
    fn dram_share(dirty_first: bool) -> (usize, usize) {
        let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
        cfg.scan_interval = Nanos::from_millis(5);
        cfg.engine.dirty_first = dirty_first;
        let mut s = Simulation::new(cfg);
        let filler = s.mmap(PAGE_SIZE * 64, PageKind::Anon);
        for i in 0..64u64 {
            s.read(filler.add(i * PAGE_SIZE as u64), 8);
        }
        let read_hot = s.mmap(PAGE_SIZE * SET as usize, PageKind::Anon);
        let write_hot = s.mmap(PAGE_SIZE * SET as usize, PageKind::Anon);
        let mut step = 0u64;
        while s.now() < Nanos::from_secs(2) {
            s.read(read_hot.add((step % SET) * PAGE_SIZE as u64), 64);
            s.write(write_hot.add((step * 7 % SET) * PAGE_SIZE as u64), 64);
            s.compute(Nanos::from_micros(20));
            step += 1;
        }
        (in_dram(&s, read_hot, SET), in_dram(&s, write_hot, SET))
    }

    #[test]
    fn dirty_first_wins_scarce_dram_slots() {
        let (clean, dirty) = dram_share(true);
        assert!(clean < SET as usize, "DRAM must be too small for both sets");
        assert!(
            dirty > clean,
            "dirty candidates must win the scarce slots: {dirty} write-hot vs {clean} read-hot"
        );
        let (_, dirty_off) = dram_share(false);
        assert!(
            dirty > dirty_off,
            "the switch must place more write-hot pages: {dirty} on vs {dirty_off} off"
        );
    }

    #[test]
    fn memory_mode_footprint_beyond_dram_still_serves_all_pages() {
        let mut s = sim(SystemKind::MemoryMode);
        // 4x the DRAM cache size.
        let a = s.mmap(PAGE_SIZE * 1024, PageKind::Anon);
        for i in 0..1024u64 {
            s.read(a.add(i * PAGE_SIZE as u64), 8);
        }
        let st = s.memory_mode_stats().unwrap();
        assert_eq!(st.hits + st.misses, 1024);
        assert!(
            st.misses >= 768,
            "direct-mapped cache cannot hold 4x its size"
        );
    }

    #[test]
    fn obs_is_off_by_default_and_exporters_stay_silent() {
        let s = sim(SystemKind::MultiClock);
        assert!(s.obs_events_jsonl().is_none());
        assert!(s.obs_ticks_csv().is_none());
        assert!(!s.mem().recorder().is_enabled());
        let dir = std::env::temp_dir().join(format!("mc-obs-off-{}", std::process::id()));
        s.write_obs(&dir).unwrap();
        assert!(!dir.exists(), "obs off writes no artifacts");
    }

    /// Drives promotions end to end with obs on and checks every exported
    /// artifact parses and is internally consistent.
    #[test]
    fn obs_run_emits_parseable_events_series_and_report() {
        let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
        cfg.instrument.obs = crate::ObsConfig::on();
        let mut s = Simulation::new(cfg);
        // Fill DRAM with one-touch pages, then hammer the first PM-resident
        // page across scan ticks so it climbs the full promote ladder.
        let filler = s.mmap(PAGE_SIZE * 4096, PageKind::Anon);
        let mut i = 0u64;
        loop {
            let addr = filler.add(i * PAGE_SIZE as u64);
            s.read(addr, 8);
            let f = s.mem().translate(addr.page()).unwrap();
            if s.mem().frame(f).tier() != TierId::TOP {
                break;
            }
            i += 1;
        }
        let hot = filler.add(i * PAGE_SIZE as u64);
        for _ in 0..80 {
            s.read(hot, 8);
            s.compute(Nanos::from_millis(100));
        }
        s.finish();
        assert!(s.metrics().total_promotions() >= 1);

        // Every JSONL line is a parseable flat object.
        let jsonl = s.obs_events_jsonl().unwrap();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            mc_obs::json::parse_flat_object(line).unwrap();
        }

        // The CSV round-trips; timestamps are sorted and every counter
        // column is monotone non-decreasing.
        let csv = s.obs_ticks_csv().unwrap();
        let series = mc_obs::TimeSeries::from_csv(&csv).unwrap();
        assert!(!series.is_empty());
        assert!(series.timestamps().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(series.non_monotonic_columns(), vec![]);
        // Substrate and policy counters both rode along.
        assert!(series.column("promotions").is_some());
        assert!(series.column("mc_ticks").is_some());

        // The hot page's Fig. 4 ladder fired: track, access, activation,
        // promote-enqueue and the promotion migration itself.
        let hits = s.mem().recorder().fig4_hits();
        for edge in [5u8, 2, 6, 7, 10, 13] {
            assert!(hits[edge as usize] > 0, "edge {edge} never fired: {hits:?}");
        }

        // The report reproduces the windowed metrics.
        let report = s
            .obs
            .as_ref()
            .unwrap()
            .render_report(&s.cfg, &s.mem, &s.metrics);
        assert!(report.contains("Windows (Figs. 8-9)"));
        assert!(report.contains(&format!("promotions: {}", s.metrics().total_promotions())));
    }

    /// Observability must never perturb the simulation: identical runs
    /// with obs on and off reach the same virtual time and migrations.
    #[test]
    fn obs_enabled_run_is_deterministically_identical() {
        let run = |obs_on: bool| {
            let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
            if obs_on {
                cfg.instrument.obs = crate::ObsConfig::on();
            }
            let mut s = Simulation::new(cfg);
            let a = s.mmap(PAGE_SIZE * 128, PageKind::Anon);
            for i in 0..600u64 {
                s.read(a.add((i % 128) * PAGE_SIZE as u64), 128);
                s.compute(Nanos::from_millis(10));
            }
            s.finish();
            (
                s.now(),
                s.metrics().total_promotions(),
                s.metrics().total_demotions(),
                s.mem().stats().clone(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn record_op_buckets_by_window() {
        let mut s = sim(SystemKind::Static);
        s.record_op();
        s.compute(Nanos::from_secs(25));
        s.record_op();
        s.finish();
        assert_eq!(s.metrics().windows()[0].ops, 1);
        assert_eq!(s.metrics().windows()[1].ops, 1);
    }
}
