//! `compare` — ad-hoc experiment CLI.
//!
//! ```sh
//! cargo run --release -p mc-bench --bin compare -- \
//!     --workload D --systems static,multi-clock,nimble --records 16000
//! cargo run --release -p mc-bench --bin compare -- --kernel sssp
//! ```
//!
//! Flags (all optional): `--workload A|B|C|D|F|W`, `--kernel
//! bfs|sssp|pr|cc|bc|tc`, `--systems <comma list>`, `--records N`,
//! `--dram PAGES`, `--pm PAGES`, `--interval PAPER_SECONDS`, `--seed N`,
//! plus the usual `--tiny/--quick/--full` base scale.

use mc_bench::{banner, parse_kernel, parse_system, parse_workload, scale_from_args};
use mc_sim::experiments::Experiment;
use mc_sim::report::format_table;
use mc_sim::SystemKind;
use mc_workloads::ycsb::YcsbWorkload;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = scale_from_args();
    if let Some(v) = arg_value(&args, "--records") {
        scale.records = v.parse().expect("--records takes a number");
    }
    if let Some(v) = arg_value(&args, "--dram") {
        scale.dram_pages = v.parse().expect("--dram takes pages");
    }
    if let Some(v) = arg_value(&args, "--pm") {
        scale.pm_pages = v.parse().expect("--pm takes pages");
    }
    if let Some(v) = arg_value(&args, "--seed") {
        scale.seed = v.parse().expect("--seed takes a number");
    }
    let interval = arg_value(&args, "--interval")
        .map(|v| scale.paper_interval(v.parse().expect("--interval takes paper seconds")))
        .unwrap_or_else(|| scale.scan_interval());
    let systems: Vec<SystemKind> = arg_value(&args, "--systems")
        .map(|list| {
            list.split(',')
                .map(|s| parse_system(s.trim()).unwrap_or_else(|| panic!("unknown system {s}")))
                .collect()
        })
        .unwrap_or_else(|| SystemKind::TIERED_COMPARISON.to_vec());

    let kernel = arg_value(&args, "--kernel").map(|k| parse_kernel(&k).expect("unknown kernel"));
    let workload = arg_value(&args, "--workload")
        .map(|w| parse_workload(&w).expect("unknown workload"))
        .unwrap_or(YcsbWorkload::A);

    match kernel {
        Some(k) => {
            banner(
                "compare",
                &format!("GAPBS {} head-to-head", k.label()),
                &scale,
            );
            let rows: Vec<Vec<String>> = systems
                .iter()
                .map(|s| {
                    eprintln!("running {} ...", s.label());
                    let r = Experiment::gapbs(k)
                        .system(*s)
                        .scale(&scale)
                        .interval(interval)
                        .run()
                        .expect("the scale's footprint fits its machine");
                    vec![
                        s.label().to_string(),
                        format!("{:.2}ms", r.trial_time.as_nanos() as f64 / 1e6),
                        r.promotions.to_string(),
                        r.demotions.to_string(),
                    ]
                })
                .collect();
            println!(
                "{}",
                format_table(&["system", "time/trial", "promotions", "demotions"], &rows)
            );
        }
        None => {
            banner(
                "compare",
                &format!("YCSB workload {workload} head-to-head"),
                &scale,
            );
            let rows: Vec<Vec<String>> = systems
                .iter()
                .map(|s| {
                    eprintln!("running {} ...", s.label());
                    let r = Experiment::ycsb(workload)
                        .system(*s)
                        .scale(&scale)
                        .interval(interval)
                        .run()
                        .expect("the scale's footprint fits its machine");
                    vec![
                        s.label().to_string(),
                        format!("{:.0}", r.ops_per_sec),
                        r.p50.map_or("-".into(), |v| v.to_string()),
                        r.p99.map_or("-".into(), |v| v.to_string()),
                        r.top_tier_share
                            .map_or("-".into(), |p| format!("{:.0}%", p * 100.0)),
                        r.promotions.to_string(),
                    ]
                })
                .collect();
            println!(
                "{}",
                format_table(
                    &["system", "ops/s", "p50", "p99", "DRAM share", "promotions"],
                    &rows
                )
            );
        }
    }
}
