//! Fig. 7 — Memory-mode vs MULTI-CLOCK vs static tiering, with the
//! workload footprint set to 4x the DRAM capacity: (a) YCSB throughput,
//! (b) GAPBS PageRank execution time, both normalised to static.
//!
//! Expected shape (paper): on YCSB, MULTI-CLOCK within -2%..+9% of
//! Memory-mode; on PageRank, MULTI-CLOCK beats Memory-mode by ~21%.
//!
//! Regenerate with `cargo run -p mc-bench --release --bin fig7_memory_mode`.

use mc_bench::{banner, scale_from_args};
use mc_sim::experiments::Experiment;
use mc_sim::report::{format_table, normalize_to_static};
use mc_sim::SystemKind;
use mc_workloads::graph::Kernel;
use mc_workloads::ycsb::YcsbWorkload;

fn main() {
    let scale = scale_from_args().memory_mode();
    banner(
        "Figure 7",
        "Memory-mode vs MULTI-CLOCK vs static (footprint = 4x DRAM)",
        &scale,
    );
    let systems = [
        SystemKind::Static,
        SystemKind::MultiClock,
        SystemKind::MemoryMode,
    ];
    let headers = ["workload", "Static", "MULTI-CLOCK", "Memory-mode"];

    // (a) YCSB.
    let mut rows = Vec::new();
    for w in YcsbWorkload::prescribed_order() {
        eprintln!("running YCSB {w} ...");
        let results: Vec<_> = systems
            .iter()
            .map(|s| {
                Experiment::ycsb(w)
                    .system(*s)
                    .scale(&scale)
                    .run()
                    .expect("the scale's footprint fits its machine")
            })
            .collect();
        let norm = normalize_to_static(&results, |r| r.ops_per_sec)
            .expect("`systems` leads with a static run");
        let mut r = vec![w.to_string()];
        r.extend(norm.iter().map(|(_, v)| format!("{v:.2}")));
        rows.push(r);
    }
    println!("\n(a) YCSB throughput normalised to static (higher is better):");
    println!("{}", format_table(&headers, &rows));

    // (b) PageRank.
    eprintln!("running PageRank ...");
    let results: Vec<_> = systems
        .iter()
        .map(|s| {
            Experiment::gapbs(Kernel::Pr)
                .system(*s)
                .scale(&scale)
                .run()
                .expect("the scale's footprint fits its machine")
        })
        .collect();
    let norm = normalize_to_static(&results, |r| r.trial_time.as_nanos() as f64)
        .expect("`systems` leads with a static run");
    let row = {
        let mut r = vec!["PR".to_string()];
        r.extend(norm.iter().map(|(_, v)| format!("{v:.2}")));
        vec![r]
    };
    println!("(b) PageRank execution time normalised to static (lower is better):");
    println!("{}", format_table(&headers, &row));
}
