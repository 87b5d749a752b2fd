//! Unit-price cross-check of the time ledger.
//!
//! Bit-identity against the parent cannot see a charge that was always
//! dropped or always taken twice. These runs are chosen so every category
//! has one exact price, and each total is recomputed from counters the
//! ledger does not feed (`MemStats`, the policy's own counters, the
//! `compute` calls the test issued): a doubled, dropped or misfiled
//! charge breaks an equality here.

#[path = "common/time.rs"]
mod time;

use mc_mem::{AccessKind, Charge, MachineDesc, Nanos, PageKind, TierId, PAGE_SIZE};
use mc_sim::{FaultConfig, SimConfig, Simulation, SystemKind};
use mc_workloads::Memory;
use time::assert_time_balanced;

/// Fills `pages` pages in address order (the first land in the top tier),
/// then runs `rounds` of a strided sweep plus an eight-page hot set at the
/// far end of the footprint — first touched last, so it starts in the
/// lowest tier — with compute gaps long enough for the daemon to tick.
/// `read_only` keeps every access a read of at most 64 bytes (no store
/// price, no streaming). Returns the compute time issued.
fn drive(s: &mut Simulation, pages: u64, rounds: u64, read_only: bool) -> Nanos {
    let what = format!("{:?}, {pages} pages", s.config().system);
    let a = s.mmap(PAGE_SIZE * pages as usize, PageKind::Anon);
    let page = |p: u64| a.add((p % pages) * PAGE_SIZE as u64);
    for p in 0..pages {
        s.read(page(p), 8);
    }
    let mut computed = Nanos::ZERO;
    for round in 0..rounds {
        if read_only || round % 3 != 0 {
            s.read(page(round * 7).add(round % 60), 1 + (round % 4) as usize);
        } else {
            s.write(page(round * 7), 256);
        }
        s.read(page(pages - 1 - round % 8), 64);
        let gap = Nanos::from_millis(25) + Nanos::from_nanos(round % 97);
        s.compute(gap);
        computed += gap;
        if round % 100 == 0 {
            assert_time_balanced(s, &format!("{what}, round {round}"));
        }
    }
    s.finish();
    assert_time_balanced(s, &format!("{what}, at the end"));
    computed
}

fn spent(s: &Simulation, category: Charge) -> u64 {
    s.time().get(category).as_nanos()
}

#[test]
fn device_time_is_hits_times_read_latency_and_compute_is_what_was_issued() {
    let mut s = Simulation::new(SimConfig::new(SystemKind::Static, 64, 256));
    let computed = drive(&mut s, 200, 2_000, true);
    let minor_fault = s.mem().latency().minor_fault.as_nanos();

    let (st, lat) = (s.mem().stats(), s.mem().latency());
    assert!(st.tier_accesses.iter().all(|n| *n > 0), "both tiers served");
    let device: u64 = (0u8..)
        .zip(&st.tier_accesses)
        .map(|(t, n)| n * lat.access(TierId::new(t), AccessKind::Read).as_nanos())
        .sum();
    assert_eq!(spent(&s, Charge::Device), device);
    assert_eq!(s.time().get(Charge::Compute), computed);
    // Static tiering faults each page in once and does nothing else.
    assert_eq!(spent(&s, Charge::MinorFault), 200 * minor_fault);
    for idle in [
        Charge::HintFault,
        Charge::MigrationStall,
        Charge::SwapIn,
        Charge::DaemonLeak,
        Charge::DaemonCpu,
        Charge::Background,
    ] {
        assert_eq!(spent(&s, idle), 0, "{}", idle.name());
    }
}

#[test]
fn minor_faults_and_swap_ins_cost_their_unit_price_when_nothing_is_dropped() {
    let mut s = Simulation::new(SimConfig::new(SystemKind::MultiClock, 32, 64));
    drive(&mut s, 140, 1_200, false);
    let minor_fault = s.mem().latency().minor_fault.as_nanos();

    assert!(s.error().is_none(), "{:?}", s.error());
    assert_eq!(s.dropped_accesses(), 0);
    let st = s.mem().stats();
    assert!(st.swap_ins > 0, "140 pages over-commit 96 frames");
    let faults = s.metrics().costs().minor_faults;
    assert!(faults > 140, "evicted pages fault again");
    assert_eq!(spent(&s, Charge::MinorFault), faults * minor_fault);
    let swap_page = s.mem().latency().swap_page.as_nanos();
    assert_eq!(spent(&s, Charge::SwapIn), st.swap_ins * swap_page);
}

#[test]
fn hint_faults_cost_their_unit_price_under_at_cpm() {
    let mut s = Simulation::new(SimConfig::new(SystemKind::AtCpm, 32, 128));
    drive(&mut s, 120, 1_200, false);

    let hint_faults = s.mem().stats().hint_faults;
    assert!(hint_faults > 0, "AT-CPM tracks by poisoning PTEs");
    assert_eq!(s.metrics().costs().hint_faults, hint_faults);
    let price = s.mem().latency().hint_fault.as_nanos();
    assert_eq!(spent(&s, Charge::HintFault), hint_faults * price);
}

/// MULTI-CLOCK, `Sync`, one page per call, on a footprint that exceeds
/// DRAM but fits the machine: every move is one `migrate` with one stall
/// and one copy, no allocation ever fails (so no fault-path reclaim, whose
/// scans are not charged — DESIGN.md §4) and nothing is evicted.
#[test]
fn migrations_and_scans_cost_their_unit_price_under_multi_clock() {
    let mut s = Simulation::new(SimConfig::new(SystemKind::MultiClock, 32, 512));
    drive(&mut s, 120, 1_200, false);

    let (st, lat) = (s.mem().stats(), s.mem().latency());
    assert!(st.promotions > 0 && st.demotions > 0, "{st:?}");
    assert_eq!((st.evictions, st.swap_ins, st.shadow_hits), (0, 0, 0));
    let moves = st.promotions + st.demotions;
    let stall = lat.migration_app_stall.as_nanos();
    assert_eq!(spent(&s, Charge::MigrationStall), moves * stall);
    let (dram, pm) = (TierId::TOP, TierId::new(1));
    let copies = st.promotions * lat.migration(pm, dram).background.as_nanos()
        + st.demotions * lat.migration(dram, pm).background.as_nanos();
    assert_eq!(spent(&s, Charge::Background), copies);

    let scanned = s.counter("mc_pages_scanned");
    assert!(scanned > 0);
    let cpu = scanned * lat.scan_per_page.as_nanos();
    assert_eq!(spent(&s, Charge::DaemonCpu), cpu);
    // The leak is the contention share, truncated once per tick.
    let (leak, ticks) = (spent(&s, Charge::DaemonLeak), s.counter("mc_ticks"));
    let share = cpu as f64 * lat.daemon_contention;
    assert!(leak <= share.ceil() as u64 && leak + ticks >= share as u64);
    assert!(leak > 0);
}

#[test]
fn the_clock_balances_for_every_system_on_every_machine_with_and_without_chaos() {
    let systems = [
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
    ];
    let machines = [
        MachineDesc::dram_pm(32, 128),
        MachineDesc::dual_socket(16, 64),
        MachineDesc::three_tier(16, 32, 128),
    ];
    for system in systems {
        for machine in &machines {
            for chaos in [false, true] {
                let mut cfg = SimConfig::new(system, 1, 1);
                cfg.mem = machine.clone();
                if chaos {
                    cfg.instrument.fault = FaultConfig::rate(42, 0.2);
                }
                // A quarter more pages than frames: reclaim evicts and
                // pages swap back in (the fault that gives up — charged, not
                // counted — is the soak's offline window).
                let frames = machine.topology().total_pages() as u64;
                let mut s = Simulation::new(cfg);
                let computed = drive(&mut s, frames + frames / 4, 600, false);
                assert_eq!(s.time().get(Charge::Compute), computed, "{system:?}");
                assert!(spent(&s, Charge::Device) > 0, "{system:?}");
            }
        }
    }
}
