//! Differential harness for Nomad-style transactional migration.
//!
//! The headline guarantee mirrors the fault layer's: selecting
//! [`MigrationMode::Sync`] is *bit-identical* to the historical engine —
//! same virtual time, same `MemStats`, same per-tick CSV, same tracepoint
//! JSONL, same final page placement. The transactional path lives behind
//! an explicit mode check, so the refactor is provably free when unused.
//!
//! The second half checks the transactional side: runs are deterministic
//! (same seed, any thread count), stay deterministic when composed with
//! 20% fault injection, lose no page, and `SystemKind::Nomad` is exactly
//! MULTI-CLOCK forced into transactional mode.

mod common;

use common::Fingerprint;
use mc_mem::{Nanos, PageKind, PAGE_SIZE};
use mc_sim::{FaultConfig, MigrationMode, RetryPolicy, SimConfig, Simulation, SystemKind};
use mc_workloads::Memory;

const PAGES: u64 = 192;

/// A deterministic mixed workload shaped to exercise migration both
/// ways. Phase one (rounds 0-99) is pure stride traffic, which fills
/// DRAM with soon-to-be-cold pages. Phase two adds a 16-page hot set
/// that first-touches *after* DRAM is full — so it allocates in PM and
/// must be promoted — with a 1-in-5 write mix so some copy windows get
/// dirtied and abort organically.
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
        // The hot set lives in the last 16 pages, untouched by the time
        // DRAM fills, and is revisited every round once it starts.
        if round >= 100 {
            let hot = a.add((PAGES - 16 + round % 16) * PAGE_SIZE as u64);
            if round % 5 == 0 {
                s.write(hot, 64);
            } else {
                s.read(hot, 64);
            }
        }
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

fn transactional_cfg() -> SimConfig {
    let mut cfg = base_cfg();
    cfg.engine.migration_mode = MigrationMode::Transactional;
    cfg
}

#[test]
fn sync_mode_is_bit_identical_to_the_default_engine() {
    let default_run = run(base_cfg());

    let mut cfg = base_cfg();
    cfg.engine.migration_mode = MigrationMode::Sync;
    let sync_run = run(cfg);

    assert_eq!(default_run, sync_run);
    // Sync mode never opens a transaction or retains a shadow, so every
    // new counter stays at its historical zero.
    assert_eq!(sync_run.stats.txn_begins, 0);
    assert_eq!(sync_run.stats.txn_aborts, 0);
    assert_eq!(sync_run.stats.txn_commits, 0);
    assert_eq!(sync_run.stats.shadow_hits, 0);
    assert_eq!(sync_run.stats.shadow_invalidations, 0);
    assert!(!sync_run.events_jsonl.contains("txn_begin"));
}

#[test]
fn transactional_run_is_deterministic() {
    let a = run(transactional_cfg());
    let b = run(transactional_cfg());
    assert_eq!(a, b);
    assert!(a.stats.txn_begins > 0, "no transaction ever opened");
    assert!(a.stats.txn_commits > 0, "no transaction ever committed");
    assert_eq!(
        a.stats.txn_begins,
        a.stats.txn_commits + a.stats.txn_aborts + a.open_txns,
        "every begun txn must commit, abort, or still be in its copy window"
    );
    assert!(a.events_jsonl.contains("txn_begin"));
    assert!(a.events_jsonl.contains("txn_commit"));
}

#[test]
fn nomad_system_is_multiclock_in_transactional_mode() {
    let mut nomad = base_cfg();
    nomad.system = SystemKind::Nomad;
    assert_eq!(run(nomad), run(transactional_cfg()));
}

#[test]
fn transactional_chaos_is_seed_deterministic() {
    let mk = || {
        let mut cfg = transactional_cfg();
        cfg.instrument.fault = FaultConfig::rate(42, 0.2);
        cfg.engine.retry = RetryPolicy::Backoff;
        cfg
    };
    let a = run(mk());
    let b = run(mk());
    assert_eq!(a, b);
    assert!(a.stats.injected_faults > 0, "rate 0.2 actually fired");
    assert!(
        a.stats.txn_aborts > 0,
        "faults in the copy window must abort transactions"
    );
    assert_eq!(
        a.stats.txn_begins,
        a.stats.txn_commits + a.stats.txn_aborts + a.open_txns
    );
}

#[test]
fn transactional_chaos_loses_no_page_and_still_promotes() {
    let mut cfg = transactional_cfg();
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
    assert!(fp.promotions > 0, "no promotion survived 20% failures");
}

#[test]
fn different_seeds_diverge_under_transactional_chaos() {
    let mk = |seed| {
        let mut cfg = transactional_cfg();
        cfg.instrument.fault = FaultConfig::rate(seed, 0.3);
        cfg.engine.retry = RetryPolicy::Backoff;
        cfg
    };
    assert_ne!(
        run(mk(1)),
        run(mk(2)),
        "independent seeds produced identical chaos"
    );
}

#[test]
fn transactional_mode_stalls_the_app_less_than_sync() {
    // The stall win the mode exists for: sync migration charges the full
    // copy against the application, transactional mode charges the copy
    // to background time and only stalls the app for the atomic remap.
    let sync = run(base_cfg());
    let txn = run(transactional_cfg());
    assert!(txn.stats.txn_commits > 0, "no commits, nothing compared");
    assert!(
        txn.costs.stall_time < sync.costs.stall_time,
        "transactional stall {:?} must beat sync stall {:?}",
        txn.costs.stall_time,
        sync.costs.stall_time
    );
}
