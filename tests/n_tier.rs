//! Integration tests for the DESIGN.md N-tier generalisation: MULTI-CLOCK
//! on a three-tier machine, end to end.

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
