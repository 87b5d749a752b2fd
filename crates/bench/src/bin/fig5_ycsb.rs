//! Fig. 5 — YCSB throughput normalised to static tiering for
//! MULTI-CLOCK, Nomad (MULTI-CLOCK under transactional migration),
//! Nimble, AT-CPM and AT-OPM across workloads A, B, C, D, F and W.
//!
//! Expected shape (paper): MULTI-CLOCK beats static by 20-132% (max on
//! D), Nimble by 9-36%, AT-CPM by 260-677% and AT-OPM by 10-352%.
//!
//! Regenerate with `cargo run -p mc-bench --release --bin fig5_ycsb`
//! (add `--full` for the larger configuration, `--threads N` to fan the
//! per-workload comparisons across workers).
//!
//! `--policy NAME` restricts the grid to static tiering plus the named
//! system (e.g. `--policy nomad` for the transactional-migration
//! baseline alone), and `--obs DIR` additionally exports that system's
//! obs artifacts under `DIR/<workload>/` — the layout `mc-obs-report`
//! consumes. `--obs` requires `--policy` (a full-grid run would need
//! one artifact set per system per workload).
//!
//! `--machine NAME` selects the machine preset (`dram-pm` default,
//! `dram-cxl-pm`, `cxl-multihead`) — e.g.
//! `fig5_ycsb --machine dram-cxl-pm --policy hybridtier` runs the
//! HybridTier sketch policy on the three-tier CXL machine.

use mc_bench::{
    banner, machine_from_args, parse_system, scale_from_args, threads_from_args, SweepRunner,
};
use mc_sim::experiments::{ycsb_comparison, Experiment};
use mc_sim::report::{format_table, normalize_to_static};
use mc_sim::SystemKind;
use mc_workloads::ycsb::YcsbWorkload;

/// Parses `--flag value` style arguments (panics on malformed input —
/// this is a dev tool, loud failure beats silent defaults).
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        })
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = scale_from_args();
    let (machine_name, machine) = machine_from_args();
    let policy = arg_value(&args, "--policy")
        .map(|s| parse_system(&s).unwrap_or_else(|| panic!("--policy {s}: unknown system name")));
    let obs_root = arg_value(&args, "--obs").map(std::path::PathBuf::from);
    assert!(
        obs_root.is_none() || policy.is_some(),
        "--obs requires --policy: a full-grid run would need one artifact set per system"
    );
    let systems: Vec<SystemKind> = match policy {
        // Static stays in as the normalisation baseline.
        Some(p) => vec![SystemKind::Static, p],
        None => SystemKind::TIERED_COMPARISON.to_vec(),
    };
    banner(
        "Figure 5",
        "YCSB throughput normalised to static tiering (higher is better)",
        &scale,
    );
    println!("machine preset: {machine_name}");
    let workloads = YcsbWorkload::prescribed_order();
    let all = SweepRunner::new(threads_from_args()).run(workloads.to_vec(), |w| {
        eprintln!("running workload {w} ...");
        match policy {
            None => {
                ycsb_comparison(w, &scale, machine).expect("the scale's footprint fits its machine")
            }
            Some(p) => systems
                .iter()
                .map(|s| {
                    let mut exp = Experiment::ycsb(w)
                        .system(*s)
                        .scale(&scale)
                        .machine(machine);
                    if let (Some(root), true) = (&obs_root, *s == p) {
                        exp = exp.obs(root.join(w.to_string()));
                    }
                    exp.run().expect("obs directory must be writable")
                })
                .collect(),
        }
    });
    let mut rows = Vec::new();
    let mut raw_rows = Vec::new();
    for (w, results) in workloads.iter().zip(all) {
        let norm = normalize_to_static(&results, |r| r.ops_per_sec)
            .expect("`systems` leads with a static run");
        rows.push({
            let mut r = vec![w.to_string()];
            r.extend(norm.iter().map(|(_, v)| format!("{v:.2}")));
            r
        });
        raw_rows.push({
            let mut r = vec![w.to_string()];
            r.extend(results.iter().map(|x| format!("{:.0}", x.ops_per_sec)));
            r
        });
    }
    let mut headers = vec!["workload"];
    headers.extend(systems.iter().map(|s| s.label()));
    println!("\nNormalised throughput (static = 1.00):");
    println!("{}", format_table(&headers, &rows));
    println!("Raw throughput (ops per virtual second):");
    println!("{}", format_table(&headers, &raw_rows));
    if policy.is_none() {
        println!("expected shape (paper): MULTI-CLOCK highest everywhere; max gain on D;");
        println!("AT-CPM far below 1.0; AT-OPM between AT-CPM and Nimble.");
    }
}
