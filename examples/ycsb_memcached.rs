//! The paper's headline experiment in miniature: YCSB workload A over a
//! memcached-like store on a DRAM+PM machine, comparing static tiering
//! with MULTI-CLOCK.
//!
//! ```sh
//! cargo run --release --example ycsb_memcached
//! ```

use mc_sim::experiments::{Experiment, Scale};
use mc_sim::SystemKind;
use mc_workloads::ycsb::YcsbWorkload;

fn main() {
    let scale = Scale::tiny();
    println!(
        "machine: {} MiB DRAM + {} MiB PM; {} records of {} B",
        scale.dram_pages * 4 / 1024,
        scale.pm_pages * 4 / 1024,
        scale.records,
        Scale::VALUE_SIZE
    );
    println!("running YCSB-A (50% reads / 50% updates, zipfian)...\n");

    let mut base = None;
    for system in [
        SystemKind::Static,
        SystemKind::MultiClock,
        SystemKind::Nimble,
    ] {
        let r = Experiment::ycsb(YcsbWorkload::A, system, &scale)
            .run()
            .expect("the scale's footprint fits its machine");
        let norm = match base {
            None => {
                base = Some(r.ops_per_sec);
                1.0
            }
            Some(b) => r.ops_per_sec / b,
        };
        println!(
            "{:<12} {:>9.0} ops/s  ({:.2}x static)   promotions={:<6} DRAM share={}",
            system.label(),
            r.ops_per_sec,
            norm,
            r.promotions,
            r.top_tier_share
                .map_or("-".into(), |p| format!("{:.0}%", p * 100.0)),
        );
    }
    println!("\nMULTI-CLOCK should beat static tiering by promoting the zipfian");
    println!("hot set into DRAM, and beat Nimble through better page selection.");
}
