//! `mc-tera` — terabyte-scale topology sweep.
//!
//! Runs the same fixed YCSB-A working set on MULTI-CLOCK machines of
//! growing total frame count and reports the daemon's per-tick wall
//! cost at each size. That cost tracks the *lists*, not the machine:
//! quadrupling the frame count must leave the per-tick cost roughly
//! flat (the sublinearity verdict printed at the end), because only
//! the machine *construction* is O(frames) — each tick walks at most
//! `scan_batch` pages per list and touches no per-frame table.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p mc-bench --bin mc-tera            # 256 GB vs 1 TB
//! mc-tera --tiny --obs /tmp/mc-tera     # CI shape: 1 GB vs 4 GB + obs
//! mc-tera --machine dram-cxl-pm         # sweep the three-tier CXL machine
//! ```
//!
//! The full sweep's largest machine is 1 TiB of 4 KiB frames (256 Mi
//! frames — the paper's terabyte-class operating point); `--tiny`
//! shrinks the pair to 1 GiB vs 4 GiB so CI hosts survive the
//! O(frames) construction. `--obs DIR` writes `events.jsonl`,
//! `ticks.csv` and `report.txt` for the largest topology's run under
//! `DIR`, the layout `mc-obs-report` consumes.

use mc_bench::machine_from_args;
use mc_obs::{PerfHooks, Phase};
use mc_sim::experiments::{Experiment, MachinePreset, Scale};
use mc_sim::report::format_table;
use mc_workloads::ycsb::YcsbWorkload;
use std::time::Instant;

/// Parses `--flag value` style arguments.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| {
            args.get(i + 1).unwrap_or_else(|| {
                // lint: allow(panic) - CLI argument validation in a binary
                panic!("{flag} requires a value")
            })
        })
        .cloned()
}

/// One sweep point: total frames, per-tick daemon cost and run context.
struct Point {
    total_frames: usize,
    ticks: u64,
    tick_mean_ns: f64,
    scan_pages: u64,
    promotions: u64,
    ops_per_sec: f64,
    wall_secs: f64,
}

/// Runs the fixed working set on a machine of `total_frames` frames
/// (512 DRAM pages + the rest PM, so the working set still overflows
/// DRAM and tiering stays active) and measures the daemon's tick spans.
fn run_point(
    scale: &Scale,
    machine: MachinePreset,
    total_frames: usize,
    obs: Option<&std::path::Path>,
) -> Point {
    let mut s = scale.clone();
    s.dram_pages = 512;
    s.pm_pages = total_frames - s.dram_pages;
    let hooks = PerfHooks::new();
    let mut exp = Experiment::ycsb(YcsbWorkload::A)
        .scale(&s)
        .machine(machine)
        .perf(hooks.clone());
    if let Some(dir) = obs {
        exp = exp.obs(dir);
    }
    let t0 = Instant::now();
    let outcome = exp.run().expect("obs artifacts written");
    let wall_secs = t0.elapsed().as_secs_f64();
    let tick = hooks.profiler().summary(Phase::Tick);
    let scan = hooks.profiler().summary(Phase::Scan);
    Point {
        total_frames,
        ticks: tick.count,
        tick_mean_ns: if tick.count == 0 {
            0.0
        } else {
            tick.total_nanos as f64 / tick.count as f64
        },
        scan_pages: scan.items,
        promotions: outcome.promotions,
        ops_per_sec: outcome.ops_per_sec,
        wall_secs,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let machine = machine_from_args();
    let obs_root = arg_value(&args, "--obs").map(std::path::PathBuf::from);
    // Fixed working set (Scale::tiny's records/intervals); only the
    // machine grows across the sweep.
    let scale = Scale::tiny();
    // 4 KiB frames: 2^28 frames = 1 TiB; the quarter machine pins the
    // scaling ratio at exactly 4x.
    let full_frames: usize = if tiny { 1 << 20 } else { 1 << 28 };
    let sweep = [full_frames / 4, full_frames];

    println!("==============================================================");
    println!("mc-tera: terabyte-scale topology sweep (MULTI-CLOCK, YCSB-A)");
    println!(
        "fixed working set: {} records x {} B; machines: {} GiB vs {} GiB; preset {machine}",
        scale.records,
        scale.value_size,
        sweep[0] * 4 / (1 << 20),
        sweep[1] * 4 / (1 << 20),
    );
    println!("==============================================================");

    let points: Vec<Point> = sweep
        .iter()
        .map(|&frames| {
            eprintln!(
                "running {} GiB ({} frames) ...",
                frames * 4 / (1 << 20),
                frames
            );
            // Obs artifacts come from the largest machine: the terabyte
            // run is the one whose tracepoints CI validates end to end.
            let obs = (frames == full_frames)
                .then_some(obs_root.as_deref())
                .flatten();
            run_point(&scale, machine, frames, obs)
        })
        .collect();

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.total_frames),
                format!("{}", p.total_frames * 4 / (1 << 20)),
                format!("{}", p.ticks),
                format!("{:.0}", p.tick_mean_ns),
                format!("{}", p.scan_pages),
                format!("{}", p.promotions),
                format!("{:.0}", p.ops_per_sec),
                format!("{:.2}", p.wall_secs),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "frames",
                "GiB",
                "ticks",
                "ns/tick",
                "scanned",
                "promotions",
                "ops/s",
                "wall s",
            ],
            &rows
        )
    );

    // Sublinearity verdict: the machine grew 4x; the per-tick cost must
    // grow far less (flat up to noise). 2x is a generous noise bound —
    // an O(frames) regression in the tick path would show up as ~4x.
    let (small, large) = (&points[0], &points[1]);
    let ratio = if small.tick_mean_ns == 0.0 {
        0.0
    } else {
        large.tick_mean_ns / small.tick_mean_ns
    };
    println!(
        "per-tick cost ratio at 4x the frames: {ratio:.2}x -> {}",
        if ratio < 2.0 {
            "sublinear in total frames (scan cost follows the working set)"
        } else {
            "NOT sublinear - investigate the tick path for O(frames) work"
        }
    );
    if let Some(root) = &obs_root {
        println!("obs artifacts (largest machine) under {}", root.display());
    }
}
