//! Record a YCSB run as a page-access trace, then replay the *same* trace
//! against static tiering and MULTI-CLOCK — an apples-to-apples comparison
//! with identical access sequences.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use mc_mem::Nanos;
use mc_sim::{SimConfig, Simulation, SystemKind};
use mc_trace::{replay, Recorder};
use mc_workloads::ycsb::{YcsbClient, YcsbConfig, YcsbWorkload};
use mc_workloads::SimpleMemory;

fn main() {
    // 1. Record workload A on a plain (untimed-tiering) memory.
    let mut rec = Recorder::new(SimpleMemory::new());
    let mut client = YcsbClient::load(
        YcsbConfig {
            records: 2_000,
            value_size: 1024,
            op_compute: Nanos::from_nanos(500),
            ..Default::default()
        },
        &mut rec,
    );
    client.run(YcsbWorkload::A, &mut rec, 200_000);
    let trace = rec.finish();
    println!("recorded {} page touches", trace.len());

    // 2. Replay the identical trace against both systems.
    for system in [SystemKind::Static, SystemKind::MultiClock] {
        let mut cfg = SimConfig::new(system, 512, 4096);
        cfg.scan_interval = Nanos::from_millis(5);
        cfg.scan_batch = 4096;
        let mut sim = Simulation::new(cfg);
        let stats = replay(&trace, &mut sim);
        println!(
            "{:<12} replayed {} events in {:.3}s virtual ({} promotions)",
            system.label(),
            stats.events_replayed,
            stats.elapsed.as_secs_f64(),
            sim.metrics().total_promotions(),
        );
    }
    println!("\nsame accesses, different placement: the MULTI-CLOCK replay should");
    println!("finish sooner once its promotions pull the hot pages into DRAM.");
}
