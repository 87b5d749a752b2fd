//! `mc-batch` — batched-migration sweep.
//!
//! Runs YCSB-A on MULTI-CLOCK over a range of promotion-migration batch
//! sizes and reports throughput and the share of accounted time spent on
//! tiering overhead (stalls + daemon CPU + background copies). Batching
//! amortizes the per-migration-call setup cost (one TLB shootdown window
//! per batch instead of per page, as in Nomad's transactional
//! `migrate_pages`), so the overhead share should fall — or at worst stay
//! flat — as the batch grows.
//!
//! Usage:
//!
//! ```text
//! cargo run -p mc-bench --release --bin mc-batch          # default sweep
//! mc-batch --tiny --obs /tmp/mc-batch    # obs artifacts per config
//! mc-batch --batches 1,8                # custom sweep
//! ```
//!
//! `--obs DIR` writes `events.jsonl`, `ticks.csv` and `report.txt` under
//! `DIR/batch-<b>/`, the layout `mc-obs-report` consumes.
//!
//! `--threads N` fans the sweep's independent runs across N workers via
//! [`mc_bench::SweepRunner`]. With N > 1 the sweep is first run
//! sequentially, then in parallel, and the wall-clock speedup is
//! reported — the results themselves are identical either way.
//!
//! `--json PATH` persists the sweep to a flat JSON artifact: the batch
//! axis, per-config throughput/promotions/overhead-share, and (with
//! `--threads N > 1`) the measured sequential/parallel wall times and
//! speedup that were previously print-only. With `--obs DIR` and no
//! explicit `--json`, the artifact lands at `DIR/sweep.json`.

use mc_bench::report::markdown_table;
use mc_bench::{banner, Args, SweepRunner};
use mc_sim::experiments::{Experiment, RunOutcome};
use mc_workloads::ycsb::YcsbWorkload;

const FLAGS: &str = "--tiny --quick --full --threads --obs --batches --json";

/// Runs the sweep (in input order) through a [`SweepRunner`].
fn run_sweep(
    batches: &[usize],
    scale: &mc_sim::experiments::Scale,
    obs_root: Option<&std::path::Path>,
    runner: SweepRunner,
) -> Vec<RunOutcome> {
    runner.run(batches.to_vec(), |batch| {
        eprintln!("running batch {batch} ...");
        let mut exp = Experiment::ycsb(YcsbWorkload::A).scale(scale).batch(batch);
        if let Some(root) = obs_root {
            exp = exp.obs(root.join(format!("batch-{batch}")));
        }
        exp.run().expect("obs artifacts written")
    })
}

/// The sweep's wall-clock timing (only measured with `--threads N > 1`).
struct SweepTiming {
    sequential_secs: f64,
    parallel_secs: f64,
    threads: usize,
}

impl SweepTiming {
    fn speedup(&self) -> f64 {
        self.sequential_secs / self.parallel_secs.max(1e-9)
    }
}

/// Serialises the sweep — axis, per-config outcomes and (when measured)
/// the parallel speedup — as one flat JSON object.
fn sweep_json(batches: &[usize], outcomes: &[RunOutcome], timing: Option<&SweepTiming>) -> String {
    let mut w = mc_obs::json::ObjectWriter::new();
    w.str_field("bench", "mc-batch");
    w.str_field("workload", "ycsb_a");
    w.num_arr_field(
        "batches",
        &batches.iter().map(|&b| b as f64).collect::<Vec<_>>(),
    );
    for (batch, o) in batches.iter().zip(outcomes) {
        let key = format!("run.batch_{batch}");
        w.float_field(&format!("{key}.ops_per_sec"), o.ops_per_sec);
        w.num_field(&format!("{key}.promotions"), o.promotions);
        w.float_field(&format!("{key}.overhead_share"), o.overhead_share());
    }
    w.num_field(
        "host.cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
    );
    if let Some(t) = timing {
        w.num_field("sweep.threads", t.threads as u64);
        w.float_field("sweep.sequential_secs", t.sequential_secs);
        w.float_field("sweep.parallel_secs", t.parallel_secs);
        w.float_field("sweep.speedup", t.speedup());
    }
    w.finish()
}

#[expect(
    clippy::disallowed_types,
    reason = "harness binary: times the sequential and the parallel sweep with the host clock"
)]
fn main() {
    let args = Args::from_env(FLAGS);
    let (scale, threads, obs_root) = (args.scale, args.threads, args.obs);
    let json_path = args
        .json
        .or_else(|| obs_root.as_ref().map(|root| root.join("sweep.json")));
    let batches = if args.batches.is_empty() {
        vec![1, 2, 4, 8, 16]
    } else {
        args.batches
    };

    banner(
        "Batch sweep",
        "YCSB-A migration batch size (MULTI-CLOCK)",
        &scale,
    );

    // With --threads N > 1, time the sequential sweep first, then the
    // parallel one, and report the wall-clock speedup. Each run is
    // deterministic and the runner returns results in input order, so
    // both passes produce identical tables and (when --obs is given)
    // byte-identical artifacts — the parallel pass simply overwrites the
    // sequential pass's files with the same contents, keeping the two
    // timed passes doing exactly the same work.
    let (outcomes, timing) = if threads > 1 {
        eprintln!("timing sequential sweep ({} runs) ...", batches.len());
        let t0 = std::time::Instant::now();
        let _ = run_sweep(&batches, &scale, obs_root.as_deref(), SweepRunner::new(1));
        let sequential = t0.elapsed();
        eprintln!("timing parallel sweep ({threads} threads) ...");
        let t1 = std::time::Instant::now();
        let outcomes = run_sweep(
            &batches,
            &scale,
            obs_root.as_deref(),
            SweepRunner::new(threads),
        );
        let parallel = t1.elapsed();
        let timing = SweepTiming {
            sequential_secs: sequential.as_secs_f64(),
            parallel_secs: parallel.as_secs_f64(),
            threads,
        };
        println!(
            "sweep wall-clock: sequential {:.2}s, {} threads {:.2}s -> speedup {:.2}x \
             (host cores: {})",
            timing.sequential_secs,
            threads,
            timing.parallel_secs,
            timing.speedup(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
        (outcomes, Some(timing))
    } else {
        let outcomes = run_sweep(&batches, &scale, obs_root.as_deref(), SweepRunner::new(1));
        (outcomes, None)
    };

    let mut rows = Vec::new();
    let mut prev_share: Option<f64> = None;
    let mut monotone = true;
    for (batch, o) in batches.iter().zip(&outcomes) {
        let share = o.overhead_share();
        // Allow sub-percent jitter: amortization must not be *worse*.
        if prev_share.is_some_and(|prev| share > prev + 0.01) {
            monotone = false;
        }
        prev_share = Some(share);
        rows.push(vec![
            format!("{batch}"),
            format!("{:.0}", o.ops_per_sec),
            format!("{}", o.promotions),
            format!("{:.2}%", share * 100.0),
        ]);
    }
    println!(
        "overhead share {} as batch size grows",
        if monotone {
            "decreases monotonically (or stays flat)"
        } else {
            "is NOT monotone - investigate"
        }
    );
    println!(
        "{}",
        markdown_table(&["batch", "ops/s", "promotions", "overhead share"], &rows)
    );
    if let Some(root) = &obs_root {
        println!(
            "obs artifacts under {} (one dir per config)",
            root.display()
        );
    }
    if let Some(path) = &json_path {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create sweep artifact directory");
        }
        let text = sweep_json(&batches, &outcomes, timing.as_ref());
        std::fs::write(path, text + "\n").expect("write sweep artifact");
        println!("sweep artifact: {}", path.display());
    }
}
