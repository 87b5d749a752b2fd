//! Policy-generic robustness: every system survives arbitrary access
//! patterns with consistent accounting and an intact data plane.

use mc_mem::{Nanos, PageKind, TierId, PAGE_SIZE};
use mc_sim::{SimConfig, Simulation, SystemKind};
use mc_workloads::Memory;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ALL_SYSTEMS: [SystemKind; 9] = [
    SystemKind::Static,
    SystemKind::MultiClock,
    SystemKind::Nimble,
    SystemKind::AtCpm,
    SystemKind::AtOpm,
    SystemKind::AutoNuma,
    SystemKind::Amp,
    SystemKind::MemoryMode,
    SystemKind::OracleLru,
];

/// Drives one system with a seeded random mix of reads, writes,
/// byte-writes and compute, then checks global invariants.
fn drive(system: SystemKind, seed: u64, heavy: bool) {
    let mut cfg = SimConfig::new(system, 64, 512);
    cfg.scan_interval = Nanos::from_millis(2);
    cfg.scan_batch = 2048;
    let mut sim = Simulation::new(cfg);
    let pages = if heavy { 700 } else { 300 }; // heavy overcommits DRAM+PM reserves
    let region = sim.mmap(PAGE_SIZE * pages, PageKind::Anon);
    // A second, small region read 10 % of the time.
    let side = sim.mmap(PAGE_SIZE * 32, PageKind::Anon);
    let mut rng = StdRng::seed_from_u64(seed);
    // A golden record for data-plane verification.
    let golden_addr = region.add((pages as u64 / 2) * PAGE_SIZE as u64);
    let golden = [seed as u8; 64];
    sim.write_bytes(golden_addr, &golden);

    for step in 0..3_000u32 {
        match rng.gen_range(0..100) {
            0..=59 => {
                let p = rng.gen_range(0..pages as u64);
                sim.read(region.add(p * PAGE_SIZE as u64), rng.gen_range(1..256));
            }
            60..=84 => {
                let p = rng.gen_range(0..pages as u64);
                // Never clobber the golden page.
                if region.add(p * PAGE_SIZE as u64).page() != golden_addr.page() {
                    sim.write(region.add(p * PAGE_SIZE as u64), rng.gen_range(1..4096));
                }
            }
            85..=94 => {
                sim.read(side.add(rng.gen_range(0..32) * PAGE_SIZE as u64), 8);
            }
            _ => sim.compute(Nanos::from_micros(rng.gen_range(1..500))),
        }
        // Keep the golden page warm so the lowest-tier eviction path
        // never drops it silently without swap bookkeeping.
        if step % 64 == 0 {
            let mut buf = [0u8; 64];
            sim.read_bytes(golden_addr, &mut buf);
            assert_eq!(buf, golden, "{system:?}: data plane corrupted at {step}");
        }
    }

    // Accounting: live pages == page-table entries == used frames.
    if system != SystemKind::MemoryMode {
        let stats = sim.mem().stats();
        let live = stats.allocs - stats.frees;
        let used: usize = (0..sim.mem().topology().tier_count())
            .map(|t| sim.mem().tier_used(TierId::new(t as u8)))
            .sum();
        assert_eq!(live as usize, used, "{system:?}: frame accounting drifted");
        assert_eq!(sim.mem().page_table().len(), used, "{system:?}: PT drifted");
        // Every migration was balanced by events.
        assert_eq!(
            stats.promotions + stats.demotions,
            sim.metrics().total_promotions() + sim.metrics().total_demotions(),
            "{system:?}: metrics missed migrations"
        );
    }
    // Virtual time moved forward.
    assert!(sim.now() > Nanos::ZERO);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn every_policy_survives_random_driving(seed in 0u64..10_000) {
        for system in ALL_SYSTEMS {
            drive(system, seed, false);
        }
    }
}

#[test]
fn every_policy_survives_overcommit() {
    // Footprint larger than DRAM and deep into PM: the reclaim and
    // eviction paths of every policy get exercised hard.
    for system in ALL_SYSTEMS {
        if system == SystemKind::MemoryMode {
            continue; // memory-mode has no frame accounting to overcommit
        }
        drive(system, 99, true);
    }
}
