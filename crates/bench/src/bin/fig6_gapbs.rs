//! Fig. 6 — GAPBS execution time normalised to static tiering (lower is
//! better) for the six kernels, across the Fig. 5 comparison grid
//! (including the Nomad transactional-migration baseline).
//!
//! Expected shape (paper): MULTI-CLOCK beats static by 4-68% (most on
//! SSSP), Nimble by 1-16%; AT-CPM may narrowly win on BFS/BC; AT-OPM
//! loses to MULTI-CLOCK by 4-62%. Gains are smaller than YCSB because
//! GAPBS allocates its hottest memory first, so static placement is
//! already good.
//!
//! Regenerate with `cargo run -p mc-bench --release --bin fig6_gapbs`
//! (`--threads N` fans the per-kernel comparisons across workers,
//! `--machine NAME` selects the machine preset: `dram-pm` default,
//! `dram-cxl-pm`, `cxl-multihead`).

use mc_bench::{banner, machine_from_args, scale_from_args, threads_from_args, SweepRunner};
use mc_sim::experiments::gapbs_comparison;
use mc_sim::report::{format_table, normalize_to_static};
use mc_sim::SystemKind;
use mc_workloads::graph::Kernel;

fn main() {
    let scale = scale_from_args();
    let (machine_name, machine) = machine_from_args();
    banner(
        "Figure 6",
        "GAPBS execution time normalised to static tiering (lower is better)",
        &scale,
    );
    println!("machine preset: {machine_name}");
    let all = SweepRunner::new(threads_from_args()).run(Kernel::ALL.to_vec(), |k| {
        eprintln!("running kernel {} ...", k.label());
        gapbs_comparison(k, &scale, machine).expect("the scale's footprint fits its machine")
    });
    let mut rows = Vec::new();
    let mut raw_rows = Vec::new();
    for (k, results) in Kernel::ALL.iter().zip(all) {
        let norm = normalize_to_static(&results, |r| r.trial_time.as_nanos() as f64)
            .expect("the comparison set leads with a static run");
        rows.push({
            let mut r = vec![k.label().to_string()];
            r.extend(norm.iter().map(|(_, v)| format!("{v:.2}")));
            r
        });
        raw_rows.push({
            let mut r = vec![k.label().to_string()];
            r.extend(
                results
                    .iter()
                    .map(|x| format!("{:.1}ms", x.trial_time.as_nanos() as f64 / 1e6)),
            );
            r
        });
    }
    let mut headers = vec!["kernel"];
    headers.extend(SystemKind::TIERED_COMPARISON.iter().map(|s| s.label()));
    println!("\nNormalised execution time (static = 1.00, lower is better):");
    println!("{}", format_table(&headers, &rows));
    println!("Raw time per trial:");
    println!("{}", format_table(&headers, &raw_rows));
}
