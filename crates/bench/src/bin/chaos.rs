//! `mc-chaos` — fault-injection robustness sweep.
//!
//! Runs YCSB-A on MULTI-CLOCK (or the one system named with `--systems`,
//! notably `nomad` — MULTI-CLOCK under transactional migration, where
//! injected faults land inside copy windows and abort transactions)
//! under increasing injected fault rates (migrations and allocations
//! failing by seeded chance) and reports how throughput and promotion
//! traffic degrade. The tiering daemon must degrade gracefully: no
//! crash, no lost page, throughput falling roughly with the fault rate
//! rather than collapsing.
//!
//! Usage:
//!
//! ```text
//! cargo run -p mc-bench --release --bin chaos            # default sweep
//! mc-chaos --fault-rate 0.1            # single rate instead of the sweep
//! mc-chaos --seed 7 --obs /tmp/chaos   # export obs artifacts per rate
//! mc-chaos --threads 4                 # fan the rate sweep across workers
//! mc-chaos --systems nomad             # sweep the transactional baseline
//! mc-chaos --machine dram-cxl-pm       # sweep on the three-tier CXL machine
//! ```
//!
//! `--obs DIR` writes `events.jsonl`, `ticks.csv` and `report.txt` under
//! `DIR/rate-<rate>/`, the layout `mc-obs-report` consumes.

use mc_bench::report::markdown_table;
use mc_bench::{banner, Args, SweepRunner};
use mc_sim::experiments::{Experiment, RunOutcome};
use mc_sim::{FaultConfig, RetryPolicy, SystemKind};
use mc_workloads::ycsb::YcsbWorkload;

const FLAGS: &str = "--tiny --quick --full --threads --machine --systems --obs --fault-rate --seed";

fn main() {
    let args = Args::from_env(FLAGS);
    let (scale, seed, obs_root) = (&args.scale, args.seed, &args.obs);
    let system = match args.systems.as_deref() {
        None => SystemKind::MultiClock,
        Some([one]) => *one,
        Some(_) => {
            eprintln!("chaos: --systems takes exactly one system here");
            std::process::exit(2)
        }
    };
    let (machine_name, machine) = args.machine;
    let rates: Vec<f64> = match args.fault_rate {
        Some(r) => vec![r],
        None => vec![0.0, 0.05, 0.1, 0.2, 0.4],
    };

    banner(
        "Chaos",
        "YCSB-A throughput under injected migration/allocation faults",
        scale,
    );
    println!(
        "system {}; machine preset {machine_name}; fault seed {seed}; retry policy: bounded exponential backoff",
        system.label()
    );

    eprintln!("running fault-free baseline ...");
    let base = Experiment::ycsb(YcsbWorkload::A)
        .system(system)
        .scale(scale)
        .machine(machine)
        .run()
        .expect("the scale's footprint fits its machine");
    let base_ops = base.ops_per_sec;

    let outcomes = SweepRunner::new(args.threads).run(rates.clone(), |rate| {
        eprintln!("running fault rate {rate} ...");
        let obs_dir = obs_root.as_ref().map(|d| d.join(format!("rate-{rate}")));
        let mut exp = Experiment::ycsb(YcsbWorkload::A)
            .system(system)
            .scale(scale)
            .machine(machine)
            .fault(FaultConfig::rate(seed, rate), RetryPolicy::backoff());
        if let Some(dir) = &obs_dir {
            exp = exp.obs(dir.clone());
        }
        exp.run().expect("obs artifacts written")
    });
    let mut rows = Vec::new();
    for (rate, outcome) in rates.iter().zip(outcomes) {
        let RunOutcome {
            ops_per_sec,
            promotions,
            injected_faults,
            migration_failures,
            promote_retries,
            promote_gave_ups,
            dropped_accesses,
            ..
        } = outcome;
        rows.push(vec![
            format!("{rate:.2}"),
            format!("{:.2}", ops_per_sec / base_ops),
            format!("{promotions}"),
            format!("{injected_faults}"),
            format!("{migration_failures}"),
            format!("{promote_retries}"),
            format!("{promote_gave_ups}"),
            format!("{dropped_accesses}"),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "fault rate",
                "throughput (norm.)",
                "promotions",
                "injected",
                "migr. failures",
                "retries",
                "gave up",
                "dropped acc.",
            ],
            &rows
        )
    );
    println!(
        "baseline: {base_ops:.0} ops/s, {} promotions at rate 0 (uninjected engine)",
        base.promotions
    );
    if let Some(root) = obs_root {
        println!("obs artifacts under {} (one dir per rate)", root.display());
    }
}
