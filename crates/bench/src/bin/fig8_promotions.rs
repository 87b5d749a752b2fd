//! Fig. 8 — pages promoted per 20-second window, MULTI-CLOCK vs Nimble,
//! running YCSB workload A.
//!
//! Expected shape (paper): Nimble promotes more pages than MULTI-CLOCK in
//! every window (it selects on a single recency observation).
//!
//! Regenerate with `cargo run -p mc-bench --release --bin fig8_promotions`.
//! Pass `--obs <dir>` to also dump the MULTI-CLOCK run's tracepoint
//! events, per-tick counter CSV and run report into `<dir>` (readable
//! with `cargo run -p mc-obs --bin mc-obs-report -- <dir>`).

use mc_bench::{banner, scale_from_args};
use mc_sim::experiments::Experiment;
use mc_sim::report::format_table;
use mc_sim::SystemKind;
use mc_workloads::ycsb::YcsbWorkload;
use std::path::PathBuf;

fn obs_dir_from_args() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--obs")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

fn main() {
    let scale = scale_from_args();
    banner(
        "Figure 8",
        "pages promoted per 20 s window, MULTI-CLOCK vs Nimble (YCSB-A)",
        &scale,
    );
    let obs_dir = obs_dir_from_args();
    let mut mc_exp = Experiment::ycsb(YcsbWorkload::A).scale(&scale);
    if let Some(dir) = &obs_dir {
        mc_exp = mc_exp.obs(dir.clone());
    }
    let mc = mc_exp.run().expect("obs artifacts are writable");
    let nim = Experiment::ycsb(YcsbWorkload::A)
        .system(SystemKind::Nimble)
        .scale(&scale)
        .run()
        .expect("the scale's footprint fits its machine");
    let windows = mc.windows.len().max(nim.windows.len());
    let mut rows = Vec::new();
    for wi in 0..windows {
        rows.push(vec![
            format!("{wi}"),
            mc.windows
                .get(wi)
                .map_or("-".into(), |w| w.promotions.to_string()),
            nim.windows
                .get(wi)
                .map_or("-".into(), |w| w.promotions.to_string()),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["window", "MULTI-CLOCK promotions", "Nimble promotions"],
            &rows
        )
    );
    println!(
        "totals: MULTI-CLOCK {} vs Nimble {} (expected: Nimble promotes more)",
        mc.promotions, nim.promotions
    );
    if let Some(dir) = obs_dir {
        println!(
            "obs artifacts (events.jsonl, ticks.csv, report.txt) written to {}",
            dir.display()
        );
    }
}
