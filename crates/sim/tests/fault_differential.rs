//! Differential harness for the fault-injection layer.
//!
//! The headline guarantee: a zero-rate injector is *bit-identical* to no
//! injector at all — same virtual time, same `MemStats`, same per-tick
//! CSV, same tracepoint JSONL, same final page placement. The injection
//! hooks are `Option`-guarded and a zero rate never draws from the RNG,
//! so the fault layer is provably free when unused.
//!
//! The second half checks the chaotic side: at a real fault rate the run
//! is seed-deterministic, loses no page, and degrades (promotions still
//! happen, throughput drops but the run completes).

mod common;

use common::Fingerprint;
use mc_mem::{Nanos, PageKind, TierId, PAGE_SIZE};
use mc_sim::{FaultConfig, RetryPolicy, SimConfig, Simulation, SystemKind};
use mc_workloads::Memory;

const PAGES: u64 = 192;

/// A deterministic mixed workload: stride reads with a hot set, periodic
/// writes, compute gaps so the daemon ticks, sized to overflow DRAM and
/// force promotion/demotion/reclaim traffic.
fn run(cfg: SimConfig) -> Fingerprint {
    let mut s = Simulation::new(cfg);
    let a = s.mmap(PAGE_SIZE * PAGES as usize, PageKind::Anon);
    for round in 0..400u64 {
        let page = (round * 7) % PAGES;
        let addr = a.add(page * PAGE_SIZE as u64);
        if round % 3 == 0 {
            s.write(addr, 256);
        } else {
            s.read(addr, 64);
        }
        // A small hot set revisited every round so promotions happen.
        s.read(a.add((round % 8) * PAGE_SIZE as u64), 64);
        s.compute(Nanos::from_millis(25));
        s.record_op();
    }
    s.finish();
    Fingerprint::of(&s, PAGES)
}

fn base_cfg() -> SimConfig {
    let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
    cfg.instrument.obs = mc_sim::ObsConfig::on();
    cfg
}

#[test]
fn zero_rate_injector_is_bit_identical_to_no_injector() {
    let without = run(base_cfg());

    let mut cfg = base_cfg();
    cfg.instrument.fault = FaultConfig::rate(42, 0.0);
    assert!(
        cfg.instrument.fault.enabled(),
        "an injector is genuinely installed"
    );
    let with = run(cfg);

    assert_eq!(without, with);
    assert_eq!(with.stats.injected_faults, 0);
}

#[test]
fn zero_rate_with_backoff_policy_is_still_identical() {
    // The retry policy only matters once a migration fails; with no
    // failures the generous policy must be invisible too.
    let without = run(base_cfg());
    let mut cfg = base_cfg();
    cfg.instrument.fault = FaultConfig::rate(7, 0.0);
    cfg.engine.retry = RetryPolicy::Backoff;
    let with = run(cfg);
    assert_eq!(without, with);
}

#[test]
fn chaos_run_is_seed_deterministic() {
    let mk = || {
        let mut cfg = base_cfg();
        cfg.instrument.fault = FaultConfig::rate(42, 0.2);
        cfg.engine.retry = RetryPolicy::Backoff;
        cfg
    };
    let a = run(mk());
    let b = run(mk());
    assert_eq!(a, b);
    assert!(a.stats.injected_faults > 0, "rate 0.2 actually fired");
}

#[test]
fn chaos_run_loses_no_page_and_still_promotes() {
    let mut cfg = base_cfg();
    cfg.instrument.fault = FaultConfig::rate(42, 0.2);
    cfg.engine.retry = RetryPolicy::Backoff;
    let fp = run(cfg);
    // Every page the workload touched is still mapped somewhere.
    for (p, slot) in fp.placement.iter().enumerate() {
        assert!(slot.is_some(), "page {p} was lost under injection");
    }
    // No two virtual pages share a frame.
    let mut frames: Vec<u32> = fp.placement.iter().flatten().map(|(f, _)| *f).collect();
    frames.sort_unstable();
    let before = frames.len();
    frames.dedup();
    assert_eq!(frames.len(), before, "double-mapped frame under injection");
    // The system keeps functioning: promotions happened despite failures.
    assert!(fp.promotions > 0, "no promotion survived 20% failures");
}

#[test]
fn different_seeds_diverge_at_nonzero_rate() {
    let mk = |seed| {
        let mut cfg = base_cfg();
        cfg.instrument.fault = FaultConfig::rate(seed, 0.3);
        cfg.engine.retry = RetryPolicy::Backoff;
        cfg
    };
    let a = run(mk(1));
    let b = run(mk(2));
    // Injection decisions differ, so the runs must not be identical
    // (compared on the full fingerprint).
    assert_ne!(a, b, "independent seeds produced identical chaos");
}

#[test]
fn offline_window_pushes_allocations_down_tier() {
    let mut cfg = base_cfg();
    cfg.instrument.fault.enabled = true;
    cfg.instrument
        .fault
        .plan
        .offline
        .push(mc_fault::OfflineWindow {
            tier: 0,
            from_ns: 0,
            until_ns: Nanos::from_secs(5).as_nanos(),
        });
    let mut s = Simulation::new(cfg);
    let a = s.mmap(PAGE_SIZE * 4, PageKind::Anon);
    s.read(a, 8);
    let f = s.mem().translate(a.page()).unwrap();
    assert_ne!(
        s.mem().frame(f).tier(),
        TierId::TOP,
        "first touch under an offline top tier must spill downward"
    );
}

/// With every tier offline no retry budget can help: the faults that
/// arrive inside the window are given up on. That stays a degrade, not an
/// error — but it is counted, so issued = served + dropped holds exactly.
#[test]
fn chaos_give_ups_are_counted_not_silently_dropped() {
    let mut cfg = base_cfg();
    cfg.instrument.fault = FaultConfig::rate(42, 0.2);
    cfg.engine.retry = RetryPolicy::Backoff;
    for tier in 0..2 {
        cfg.instrument
            .fault
            .plan
            .offline
            .push(mc_fault::OfflineWindow {
                tier,
                from_ns: Nanos::from_secs(2).as_nanos(),
                until_ns: Nanos::from_secs(4).as_nanos(),
            });
    }
    let mut s = Simulation::new(cfg);
    let a = s.mmap(PAGE_SIZE * PAGES as usize, PageKind::Anon);
    let mut issued = 0u64;
    // One first touch per 25 ms: pages 80..160 fault inside the window.
    for page in 0..PAGES {
        s.write(a.add(page * PAGE_SIZE as u64), 64);
        s.read(a.add((page % 8) * PAGE_SIZE as u64), 64);
        issued += 2;
        s.compute(Nanos::from_millis(25));
    }
    let st = s.mem().stats();
    assert!(s.error().is_none(), "a chaos give-up is not a run error");
    assert!(
        (70..=80).contains(&s.dropped_accesses()),
        "the window's first touches are dropped: {}",
        s.dropped_accesses()
    );
    assert_eq!(issued, st.reads + st.writes + s.dropped_accesses());
    // The dropped pages were never mapped; a touch after the window
    // faults them in as usual.
    let lost = a.add(100 * PAGE_SIZE as u64);
    assert!(s.mem().translate(lost.page()).is_none());
    let served = st.reads + st.writes;
    while s.mem().translate(lost.page()).is_none() {
        s.read(lost, 64);
        issued += 1;
    }
    let st = s.mem().stats();
    assert!(st.reads + st.writes > served);
    assert_eq!(issued, st.reads + st.writes + s.dropped_accesses());
}
