//! Fig. 10 — scan-interval sensitivity: YCSB workload A throughput for
//! MULTI-CLOCK and Nimble at 100 ms, 250 ms, 500 ms, 1 s, 5 s and 60 s
//! intervals, normalised to static tiering.
//!
//! Expected shape (paper): MULTI-CLOCK above Nimble at every interval;
//! 1 s is the sweet spot; beyond 5 s the curves flatten (reaction lag).
//!
//! Regenerate with `cargo run -p mc-bench --release --bin fig10_interval`.

use mc_bench::{banner, scale_from_args};
use mc_mem::Nanos;
use mc_sim::experiments::Experiment;
use mc_sim::report::format_table;
use mc_sim::SystemKind;
use mc_workloads::ycsb::YcsbWorkload;

fn main() {
    let scale = scale_from_args();
    banner(
        "Figure 10",
        "scan-interval sensitivity on YCSB-A (normalised to static)",
        &scale,
    );
    // The paper sweeps 100 ms .. 60 s; intervals here are in scaled
    // "paper seconds" (see Scale::interval_unit).
    let sweep: [(f64, &str); 6] = [
        (0.1, "100ms"),
        (0.25, "250ms"),
        (0.5, "500ms"),
        (1.0, "1s"),
        (5.0, "5s"),
        (60.0, "60s"),
    ];
    let run = |system, iv: Nanos| {
        Experiment::ycsb(YcsbWorkload::A)
            .system(system)
            .scale(&scale)
            .interval(iv)
            .run()
            .expect("the scale's footprint fits its machine")
    };
    eprintln!("running static baseline ...");
    let base = run(SystemKind::Static, scale.scan_interval()).ops_per_sec;
    let mut rows = Vec::new();
    for (factor, label) in sweep {
        let iv: Nanos = scale.paper_interval(factor);
        eprintln!("running interval {label} (simulated {iv}) ...");
        let mc = run(SystemKind::MultiClock, iv);
        let nim = run(SystemKind::Nimble, iv);
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", mc.ops_per_sec / base),
            format!("{:.2}", nim.ops_per_sec / base),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["interval", "MULTI-CLOCK (norm.)", "Nimble (norm.)"],
            &rows
        )
    );
}
