//! Integration tests for the DESIGN.md extensions: N-tier generalisation
//! and file-backed page handling end to end.

use mc_mem::{MachineDesc, Nanos, PageKind, TierId, PAGE_SIZE};
use mc_sim::{SimConfig, Simulation, SystemKind};
use mc_workloads::Memory;

#[test]
fn three_tier_machine_promotes_hot_pages_toward_hbm() {
    let mut cfg = SimConfig::new(SystemKind::MultiClock, 1, 1);
    cfg.mem = MachineDesc::three_tier(32, 128, 1024);
    cfg.scan_interval = Nanos::from_millis(5);
    cfg.scan_batch = 4096;
    let mut sim = Simulation::new(cfg);

    // Fill HBM and DRAM with one-touch pages; the last page lands in PM.
    let region = sim.mmap(PAGE_SIZE * 2048, PageKind::Anon);
    let mut i = 0u64;
    loop {
        let addr = region.add(i * PAGE_SIZE as u64);
        sim.read(addr, 8);
        let f = sim.mem().translate(addr.page()).unwrap();
        if sim.mem().frame(f).tier() == TierId::new(2) {
            break;
        }
        i += 1;
        assert!(i < 300, "tiers must fill");
    }
    let hot = region.add(i * PAGE_SIZE as u64);

    // Keep the PM page hot across many intervals.
    for _ in 0..60 {
        sim.read(hot, 8);
        sim.compute(Nanos::from_millis(5));
    }
    let f = sim.mem().translate(hot.page()).unwrap();
    assert!(
        sim.mem().frame(f).tier() < TierId::new(2),
        "hot page must climb out of the lowest tier; got {}",
        sim.mem().frame(f).tier()
    );
    assert!(sim.metrics().total_promotions() >= 1);
}

#[test]
fn three_tier_demotion_cascades_downwards() {
    let mut cfg = SimConfig::new(SystemKind::MultiClock, 1, 1);
    cfg.mem = MachineDesc::three_tier(32, 64, 512);
    cfg.scan_interval = Nanos::from_millis(5);
    let mut sim = Simulation::new(cfg);
    // Allocate more than HBM+DRAM can hold: the engine's fault path and
    // the policy's reclaim must cascade cold pages down without panicking.
    let region = sim.mmap(PAGE_SIZE * 400, PageKind::Anon);
    for i in 0..400u64 {
        sim.read(region.add(i * PAGE_SIZE as u64), 8);
    }
    sim.compute(Nanos::from_millis(50));
    // All three tiers hold pages.
    let mut per_tier = [0usize; 3];
    for i in 0..400u64 {
        let f = sim
            .mem()
            .translate(region.add(i * PAGE_SIZE as u64).page())
            .unwrap();
        per_tier[sim.mem().frame(f).tier().index()] += 1;
    }
    assert!(per_tier[0] > 0, "HBM used: {per_tier:?}");
    assert!(per_tier[2] > 0, "PM used: {per_tier:?}");
    assert_eq!(per_tier.iter().sum::<usize>(), 400);
}

#[test]
fn file_backed_pages_live_on_file_lists_and_tier_normally() {
    let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
    cfg.scan_interval = Nanos::from_millis(5);
    cfg.scan_batch = 4096;
    let mut sim = Simulation::new(cfg);

    // An anonymous heap and a file mapping (e.g. a mapped index file).
    let heap = sim.mmap(PAGE_SIZE * 64, PageKind::Anon);
    let file = sim.mmap(PAGE_SIZE * 256, PageKind::File);
    for i in 0..64u64 {
        sim.write(heap.add(i * PAGE_SIZE as u64), 8);
    }
    for i in 0..256u64 {
        sim.read(file.add(i * PAGE_SIZE as u64), 8);
    }
    // A hot file page in PM gets promoted like any anon page ("MULTI-CLOCK
    // is capable of managing all types of pages", §VI).
    let mut hot_file = None;
    for i in 0..256u64 {
        let addr = file.add(i * PAGE_SIZE as u64);
        let f = sim.mem().translate(addr.page()).unwrap();
        if sim.mem().frame(f).tier() != TierId::TOP {
            assert_eq!(sim.mem().frame(f).kind(), PageKind::File);
            hot_file = Some(addr);
            break;
        }
    }
    let hot_file = hot_file.expect("file region spills out of DRAM");
    for _ in 0..60 {
        sim.read(hot_file, 8);
        sim.compute(Nanos::from_millis(5));
    }
    let f = sim.mem().translate(hot_file.page()).unwrap();
    assert_eq!(
        sim.mem().frame(f).tier(),
        TierId::TOP,
        "hot file page promoted"
    );
    assert_eq!(sim.mem().frame(f).kind(), PageKind::File);
}

#[test]
fn clean_file_pages_evict_cheaply_under_terminal_pressure() {
    // Overcommit a tiny machine with file pages: the lowest tier's
    // eviction path drops clean file pages without swap cost.
    let mut cfg = SimConfig::new(SystemKind::MultiClock, 16, 64);
    cfg.scan_interval = Nanos::from_millis(5);
    let mut sim = Simulation::new(cfg);
    let file = sim.mmap(PAGE_SIZE * 200, PageKind::File);
    for i in 0..200u64 {
        sim.read(file.add(i * PAGE_SIZE as u64), 8);
    }
    assert!(
        sim.mem().stats().evictions > 0,
        "overcommit forces eviction"
    );
    // Evicted clean pages fault back in on next touch.
    for i in 0..200u64 {
        sim.read(file.add(i * PAGE_SIZE as u64), 8);
    }
    assert!(sim.mem().stats().swap_ins > 0);
}
