//! Fig. 9 — re-access percentage of recently promoted pages per
//! 20-second window, MULTI-CLOCK vs Nimble, on YCSB workload A.
//!
//! Expected shape (paper): MULTI-CLOCK's promoted pages have ~15
//! percentage points higher re-access rate — it promotes fewer pages but
//! better ones.
//!
//! Regenerate with `cargo run -p mc-bench --release --bin fig9_reaccess`.

use mc_bench::{banner, scale_from_args};
use mc_sim::experiments::Experiment;
use mc_sim::report::format_table;
use mc_sim::SystemKind;
use mc_workloads::ycsb::YcsbWorkload;

fn main() {
    let scale = scale_from_args();
    banner(
        "Figure 9",
        "re-access % of recently promoted pages per 20 s window (YCSB-A)",
        &scale,
    );
    let run = |system| {
        Experiment::ycsb(YcsbWorkload::A)
            .system(system)
            .scale(&scale)
            .run()
            .expect("the scale's footprint fits its machine")
    };
    let mc = run(SystemKind::MultiClock);
    let nim = run(SystemKind::Nimble);
    let fmt = |p: Option<f64>| p.map_or("-".to_string(), |v| format!("{v:.1}%"));
    let windows = mc.windows.len().max(nim.windows.len());
    let mut rows = Vec::new();
    for wi in 0..windows {
        rows.push(vec![
            format!("{wi}"),
            fmt(mc.windows.get(wi).and_then(|w| w.reaccess_pct())),
            fmt(nim.windows.get(wi).and_then(|w| w.reaccess_pct())),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["window", "MULTI-CLOCK re-access %", "Nimble re-access %"],
            &rows
        )
    );
    println!(
        "overall: MULTI-CLOCK {} vs Nimble {} (expected: MULTI-CLOCK higher)",
        fmt(mc.reaccess_pct),
        fmt(nim.reaccess_pct)
    );
}
