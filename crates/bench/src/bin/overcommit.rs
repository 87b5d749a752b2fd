//! Overcommit experiment (extension): the workload footprint exceeds
//! DRAM + PM, so the lowest tier must evict to storage.
//!
//! The paper's demotion design (§III-C) turns evictions into a cascade:
//! DRAM demotes to PM, PM writes back to storage "before triggering the
//! out-of-memory (OOM) killer as the last option". This experiment pits
//! that cascade against static tiering's evict-in-place under increasing
//! overcommit ratios.
//!
//! Run with `cargo run --release -p mc-bench --bin overcommit`.

use mc_bench::{banner, scale_from_args};
use mc_mem::{Nanos, PageKind, PAGE_SIZE};
use mc_sim::report::format_table;
use mc_sim::{SimConfig, Simulation, SystemKind};
use mc_workloads::dist::ScrambledZipfian;
use mc_workloads::Memory;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(system: SystemKind, total_pages: usize, footprint: usize, seed: u64) -> (f64, u64, u64) {
    let dram = total_pages / 5;
    let pm = total_pages - dram;
    let mut cfg = SimConfig::new(system, dram, pm);
    cfg.scan_interval = Nanos::from_millis(5);
    cfg.scan_batch = 4096;
    let mut sim = Simulation::new(cfg);
    let region = sim.mmap(PAGE_SIZE * footprint, PageKind::Anon);
    let zipf = ScrambledZipfian::new(footprint as u64);
    let mut rng = StdRng::seed_from_u64(seed);
    // Fault every page in address order first — like an application that
    // initialises its heap before serving. First-touch order is then
    // unrelated to hotness (the scrambled zipfian spreads hot pages
    // uniformly), and overcommitted footprints actually overcommit.
    for p in 0..footprint as u64 {
        sim.write(region.add(p * PAGE_SIZE as u64), 64);
    }
    // Warm up the policy, then measure a fixed op count.
    for _ in 0..footprint * 2 {
        let p = zipf.next(&mut rng);
        sim.read(region.add(p * PAGE_SIZE as u64), 64);
    }
    let ops = 400_000u64;
    let t0 = sim.now();
    for _ in 0..ops {
        let p = zipf.next(&mut rng);
        sim.read(region.add(p * PAGE_SIZE as u64), 64);
    }
    // Eviction to storage is what keeps an overcommitted run alive; a
    // policy that cannot free a frame ends it with a typed error.
    if let Some(e) = sim.error() {
        eprintln!(
            "overcommit: {} with a {footprint}-page footprint: {e} ({} accesses dropped)",
            system.label(),
            sim.dropped_accesses()
        );
        std::process::exit(1);
    }
    let secs = (sim.now() - t0).as_secs_f64();
    (
        ops as f64 / secs,
        sim.mem().stats().evictions,
        sim.mem().stats().swap_ins,
    )
}

fn main() {
    let scale = scale_from_args();
    banner(
        "Overcommit (extension)",
        "footprint beyond DRAM+PM: demotion cascade vs in-place eviction",
        &scale,
    );
    let total = scale.dram_pages + scale.pm_pages;
    let mut rows = Vec::new();
    for ratio in [0.8, 1.0, 1.2, 1.5] {
        let footprint = (total as f64 * ratio) as usize;
        eprintln!("overcommit ratio {ratio} ...");
        let (s_tput, s_evict, s_swapin) = run(SystemKind::Static, total, footprint, scale.seed);
        let (m_tput, m_evict, m_swapin) = run(SystemKind::MultiClock, total, footprint, scale.seed);
        rows.push(vec![
            format!("{ratio:.1}x"),
            format!("{:.2}", m_tput / s_tput),
            format!("{s_evict}/{s_swapin}"),
            format!("{m_evict}/{m_swapin}"),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "footprint / total memory",
                "MULTI-CLOCK tput vs static",
                "static evictions/swap-ins",
                "MULTI-CLOCK evictions/swap-ins",
            ],
            &rows,
        )
    );
    println!("expected: below 1.0x no evictions anywhere; beyond it, MULTI-CLOCK's");
    println!("cascade keeps the hot set in DRAM while cold pages absorb the churn.");
}
