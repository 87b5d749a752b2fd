//! Long-horizon soak: two hours of virtual time on a 64 + 256-page
//! machine under everything that can go wrong at once — transactional
//! migration in batches of eight, a 20 % injected fault rate, a footprint
//! that overcommits the machine so reclaim evicts to storage, a ring far
//! smaller than the event stream, and one window with every tier offline
//! so the allocation retry budget genuinely runs out.
//!
//! Nothing here compares against a pinned number: the test holds the run
//! to the accounting identities that must survive any horizon.

#[path = "common/time.rs"]
mod time;

use mc_mem::{MachineDesc, MigrationMode, Nanos, PageKind, VPage, PAGE_SIZE};
use mc_sim::{FaultConfig, ObsConfig, RetryPolicy, SimConfig, Simulation, SystemKind};
use mc_workloads::Memory;

/// Pages the workload touches: more than the machine's 320 frames.
const PAGES: u64 = 340;
const HORIZON: Nanos = Nanos::from_secs(2 * 3600);

fn soak_config() -> SimConfig {
    let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 256);
    cfg.mem = MachineDesc::dram_pm(64, 256);
    cfg.engine.migration_mode = MigrationMode::Transactional;
    cfg.engine.migrate_batch_size = 8;
    cfg.instrument.fault = FaultConfig::rate(42, 0.2);
    cfg.engine.retry = RetryPolicy::Backoff;
    // Ten virtual minutes in, both tiers refuse every allocation for five
    // seconds: faults inside the window exhaust their 64 attempts.
    for tier in 0..2 {
        cfg.instrument
            .fault
            .plan
            .offline
            .push(mc_fault::OfflineWindow {
                tier,
                from_ns: Nanos::from_secs(600).as_nanos(),
                until_ns: Nanos::from_secs(605).as_nanos(),
            });
    }
    cfg.instrument.obs = ObsConfig {
        ring_capacity: 512,
        ..ObsConfig::on()
    };
    cfg
}

/// Every page the page table maps sits on a distinct allocated frame that
/// points back at it; with the policy's own validation (each tracked page
/// on exactly one list of exactly one tier) that is conservation. Time is
/// conserved too: the clock is the sum of what was charged on it.
fn assert_conserved(s: &Simulation, when: &str) {
    let violations = s.invariant_violations();
    assert!(violations.is_empty(), "{when}: {violations:?}");
    time::assert_time_balanced(s, when);
    let costs = s.metrics().costs();
    assert!(costs.stall_time + costs.access_time <= s.now(), "{when}");
    let mut frames = Vec::new();
    for p in 0..PAGES {
        if let Some(f) = s.mem().translate(VPage::new(p)) {
            assert_eq!(s.mem().frame(f).vpage(), Some(VPage::new(p)), "{when}");
            frames.push(f);
        }
    }
    let mapped = frames.len();
    frames.sort_unstable();
    frames.dedup();
    assert_eq!(frames.len(), mapped, "{when}: two pages share a frame");
}

#[test]
fn two_virtual_hours_of_chaos_keep_every_account_balanced() {
    let mut s = Simulation::new(soak_config());
    let a = s.mmap(PAGE_SIZE * PAGES as usize, PageKind::Anon);
    let page = |p: u64| a.add((p % PAGES) * PAGE_SIZE as u64);
    let mut issued = 0u64;
    let mut step = 0u64;
    let mut next_check = Nanos::from_secs(60);
    while s.now() < HORIZON {
        // A 24-page hot set that drifts through the footprint once an
        // hour, a cold sweep behind it, and stores into the hot set so
        // copy windows get dirtied and transactions abort.
        let hot = step / 3_000;
        s.read(page(hot + step % 24), 64);
        s.write(page(hot + (step * 7) % 24), 64);
        s.read(page(step * 13), 256);
        issued += 3;
        s.compute(Nanos::from_millis(50));
        step += 1;
        if s.now() >= next_check {
            assert_conserved(&s, &format!("at {}", s.now()));
            next_check += Nanos::from_secs(60);
        }
    }
    s.finish();
    assert_conserved(&s, "at the end");

    assert!(s.error().is_none(), "{:?}", s.error());
    let st = s.mem().stats();
    assert_eq!(issued, st.reads + st.writes + s.dropped_accesses());
    assert!(
        s.dropped_accesses() > 0,
        "the offline window dropped nothing"
    );

    // Every transaction ever begun has committed, aborted or is open.
    let open = s.mem().migration_txns().len() as u64;
    assert_eq!(st.txn_begins, st.txn_commits + st.txn_aborts + open);
    assert!(st.txn_commits > 0 && st.txn_aborts > 0 && st.injected_faults > 0);
    assert!(
        st.evictions > 0 && st.swap_ins > 0,
        "the footprint overcommits"
    );

    // No counter saturated (they bump with `saturating_add`).
    let substrate = [
        st.allocs,
        st.frees,
        st.reads,
        st.writes,
        st.promotions,
        st.demotions,
        st.evictions,
        st.swap_ins,
        st.migration_failures,
        st.injected_faults,
        st.txn_begins,
        st.shadow_hits,
        st.shadow_invalidations,
    ];
    let policy = s.counters();
    for v in substrate.iter().chain(policy.iter().map(|(_, v)| v)) {
        assert_ne!(*v, u64::MAX);
    }
    assert_eq!(
        s.counter("mc_ticks"),
        2 * 3600,
        "one tick per virtual second"
    );

    // The ring overflowed by orders of magnitude and lost count of nothing.
    let rec = s.mem().recorder();
    let retained = rec.events().count() as u64;
    assert_eq!(retained, 512);
    assert_eq!(rec.total(), retained + rec.dropped());
    assert!(rec.dropped() > 100 * retained);

    eprintln!(
        "soak: {issued} accesses, {} ticks, {} dropped, {} txns, {} evictions",
        s.counter("mc_ticks"),
        s.dropped_accesses(),
        st.txn_begins,
        st.evictions
    );
}
