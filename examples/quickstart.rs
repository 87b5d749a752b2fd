//! Quickstart: build a two-tier machine, run MULTI-CLOCK against a toy
//! access pattern, and watch a hot page migrate from persistent memory to
//! DRAM.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Pass `--obs <dir>` to additionally run the full simulation engine with
//! observability on and write the run's tracepoint events (`events.jsonl`),
//! per-tick counter series (`ticks.csv`) and human-readable run report
//! (`report.txt`) into `<dir>`:
//!
//! ```sh
//! cargo run --release --example quickstart -- --obs /tmp/mc-obs
//! cargo run --release -p mc-obs --bin mc-obs-report -- /tmp/mc-obs
//! ```

use mc_mem::{
    AccessKind, MachineDesc, MemorySystem, Nanos, PageKind, TierId, TieringPolicy, VPage,
};
use mc_sim::{ObsConfig, SimConfig, Simulation, SystemKind};
use mc_workloads::Memory;
use multi_clock::{MultiClock, MultiClockConfig};
use std::path::Path;

/// Runs a short MULTI-CLOCK simulation with observability enabled and
/// writes the artifact directory `mc-obs-report` consumes.
fn run_observed(dir: &Path) -> std::io::Result<()> {
    let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
    cfg.instrument.obs = ObsConfig::on();
    let mut sim = Simulation::new(cfg);

    // Fill DRAM with one-touch pages, then hammer the first PM-resident
    // page so it climbs the Fig. 4 ladder and gets promoted.
    let page_size = mc_mem::PAGE_SIZE as u64;
    let region = sim.mmap(mc_mem::PAGE_SIZE * 4096, PageKind::Anon);
    let mut i = 0u64;
    loop {
        let addr = region.add(i * page_size);
        sim.read(addr, 8);
        let f = sim.mem().translate(addr.page()).expect("mapped");
        if sim.mem().frame(f).tier() != TierId::TOP {
            break;
        }
        i += 1;
    }
    let hot = region.add(i * page_size);
    for _ in 0..80 {
        sim.read(hot, 8);
        sim.compute(Nanos::from_millis(100));
    }
    sim.finish();

    sim.write_obs(dir)?;
    println!(
        "observability run: {} promotions",
        sim.metrics().total_promotions()
    );
    println!("artifacts written to {}:", dir.display());
    println!("  events.jsonl  - structured tracepoint events");
    println!("  ticks.csv     - per-tick counter time series");
    println!("  report.txt    - human-readable run report");
    println!(
        "validate/summarise with: cargo run -p mc-obs --bin mc-obs-report -- {}",
        dir.display()
    );
    Ok(())
}

fn main() -> Result<(), mc_mem::MemError> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--obs") {
        let dir = args
            .get(i + 1)
            .map(Path::new)
            .unwrap_or(Path::new("mc-obs-out"));
        run_observed(dir).expect("obs artifacts are writable");
        return Ok(());
    }
    // A small machine: 256 pages of DRAM, 2048 pages of PM.
    let mut mem = MemorySystem::new(MachineDesc::dram_pm(256, 2048));
    let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());

    println!("machine: {} tiers", mem.topology().tier_count());
    for tier in mem.topology().tiers() {
        println!("  {} = {} ({} pages)", tier.id(), tier.kind(), tier.pages());
    }

    // Fault one page directly into the PM tier and track it.
    let frame = mem.alloc_page_in_tier(TierId::new(1))?;
    let page = VPage::new(42);
    mem.map(page, frame)?;
    mc.on_page_mapped(&mut mem, frame);
    println!(
        "\npage {page} starts in {} (state: {:?})",
        mem.frame(frame).tier(),
        mc.state_of(frame).unwrap()
    );

    // Touch the page every scan interval: the reference bit is harvested
    // by kpromoted and the page climbs the Fig. 4 ladder —
    // inactive -> active -> promote -> migrated to DRAM.
    for second in 1..=4u64 {
        mem.access(page, AccessKind::Read)?;
        let out = mc.tick(&mut mem, Nanos::from_secs(second));
        let f = mem.translate(page).expect("still mapped");
        println!(
            "after scan {second}: tier={}, state={}, promoted so far={}",
            mem.frame(f).tier(),
            mc.state_of(f).unwrap(),
            out.promoted,
        );
    }

    let f = mem.translate(page).unwrap();
    assert_eq!(mem.frame(f).tier(), TierId::TOP);
    println!("\nthe hot page now lives in DRAM — that is MULTI-CLOCK's job.");
    println!(
        "stats: {} promotions, {} pages scanned, {} kpromoted runs",
        mem.stats().promotions,
        mc.stats().pages_scanned,
        mc.stats().ticks,
    );
    Ok(())
}
