//! GAPBS graph analytics over tiered memory: build an R-MAT graph whose
//! footprint exceeds DRAM, then run PageRank under static tiering and
//! MULTI-CLOCK.
//!
//! ```sh
//! cargo run --release --example graph_analytics
//! ```

use mc_sim::experiments::{Experiment, Scale};
use mc_sim::SystemKind;
use mc_workloads::graph::{Csr, GraphConfig, Kernel};
use mc_workloads::SimpleMemory;

fn main() {
    let scale = Scale::tiny();
    // First show what the graph looks like (on a plain memory, no tiers).
    let gcfg = GraphConfig {
        scale: scale.graph_scale,
        degree: scale.graph_degree,
        symmetric: true,
        max_weight: 255,
        seed: Scale::SEED,
        arena_slots: 8,
    };
    let mut plain = SimpleMemory::new();
    let csr = Csr::build(&gcfg, &mut plain);
    println!(
        "R-MAT graph: 2^{} = {} vertices, {} directed edges, {:.1} MiB footprint",
        gcfg.scale,
        csr.num_vertices(),
        csr.num_edges(),
        csr.footprint_bytes() as f64 / (1024.0 * 1024.0),
    );
    let (dram, _) = scale.graph_machine();
    println!(
        "tiered machine DRAM: {:.1} MiB — the graph does not fit\n",
        dram as f64 * 4.0 / 1024.0
    );

    for kernel in [Kernel::Pr, Kernel::Bfs, Kernel::Cc] {
        let stat = Experiment::gapbs(kernel, SystemKind::Static, &scale)
            .run()
            .expect("the scale's footprint fits its machine");
        let mc = Experiment::gapbs(kernel, SystemKind::MultiClock, &scale)
            .run()
            .expect("the scale's footprint fits its machine");
        println!(
            "{:<4} static {:>8.2} ms/trial | MULTI-CLOCK {:>8.2} ms/trial ({:.2}x, {} promotions)",
            kernel.label(),
            stat.trial_time.as_nanos() as f64 / 1e6,
            mc.trial_time.as_nanos() as f64 / 1e6,
            mc.trial_time.as_nanos() as f64 / stat.trial_time.as_nanos() as f64,
            mc.promotions,
        );
    }
    println!("\nGains are modest by design: graph workloads allocate their hottest");
    println!("(vertex-indexed) data first, so static placement is already good —");
    println!("exactly the paper's §V-C.1 observation.");
}
