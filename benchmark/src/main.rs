//! The repo benchmark: whole-run host throughput and simulated quality on
//! four workloads, plus a traced run that splits the wall-clock by layer.
//! See README.md for the workloads, the metrics and how to read the output.
//!
//! Two ways to call it:
//!
//! * one run — `--workload NAME --seed N --seconds S --trace 0|1`: runs one
//!   workload once in this process and prints the result as one JSON object
//!   on the last line of standard output (`--trace 0`: end-to-end metrics,
//!   `--trace 1`: per-layer metrics);
//! * the suite — no `--trace`: runs every workload (or `--workload NAME`)
//!   `--reps` times, each run in a child process of its own so peak RSS is
//!   per run, and prints medians; `--traced` adds the traced run,
//!   `--selfcheck` runs the set twice and compares, `--smoke` is the quick
//!   form for CI.

mod cputime;
mod json;
mod layers;
mod metrics;
mod probe;
mod run;
mod spans;
mod stats;
mod workloads;

use json::Json;
use metrics::{Measured, TracedRun, END_TO_END};
use run::{run_cells, run_flat, CellOut, Pass};
use stats::median;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Kind, Spec, WORKLOADS};

/// Length of one measured phase; `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 4.0;
const DEFAULT_SEED: u64 = 42;
const DEFAULT_REPS: usize = 3;
/// Times an untraced run measures each cell (see `run::run_cells`).
const UNTRACED_REPEATS: usize = 3;

const USAGE: &str = "usage: mc-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--reps N] [--traced] [--selfcheck] [--smoke] [--out DIR]";

#[derive(Debug)]
struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    /// `Some` selects the one-run form.
    trace: Option<bool>,
    reps: usize,
    traced: bool,
    selfcheck: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        reps: DEFAULT_REPS,
        traced: false,
        selfcheck: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Spec::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--reps" => {
                args.reps = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if args.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--traced" => args.traced = true,
            "--selfcheck" => args.selfcheck = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if smoke {
        args.seconds = DEFAULT_SECONDS / 10.0;
        args.reps = 1;
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

/// Where and on what a run was taken; printed at the top of every run.
fn provenance() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "nproc={nproc} cpu={cpu:?} profile=release commit={}",
        git_commit()
    )
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark also runs from plain source trees, where it is "unknown".
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn print_metrics(metrics: &[Measured]) {
    for (name, value, unit) in metrics {
        println!("  {name:<40} {value:>18.6} {unit}");
    }
}

/// Collects what went wrong in a run; each entry is one failed check.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn cells(&mut self, pass: &str, cells: &[CellOut]) {
        for c in cells {
            self.attempted += c.checked;
            self.failed += c.failed;
            if c.failed > 0 {
                println!(
                    "FAILED {pass} {}: {} of {} ops and output checks failed",
                    c.system.label(),
                    c.failed,
                    c.checked
                );
            }
        }
    }

    fn rule(&mut self, violations: Vec<String>) {
        self.attempted += 1;
        self.failed += violations.len() as u64;
        for v in violations {
            println!("FAILED {v}");
        }
    }
}

/// The one-run form with `--trace 0`.
fn untraced_run(spec: &Spec, seed: u64, seconds: f64) -> (Checks, Vec<Measured>) {
    // Only PageRank has an output that needs a reference run.
    let reference = match spec.kind {
        Kind::PageRank { .. } => run_flat(spec, seed, 0, 1).reference,
        Kind::Ycsb { .. } => None,
    };
    let cells = run_cells(
        spec,
        seed,
        seconds,
        Pass::Plain,
        UNTRACED_REPEATS,
        reference.as_deref(),
    );
    let mut checks = Checks::default();
    checks.cells("untraced", &cells);
    checks.rule(metrics::fig5_shape_violations(
        &metrics::speedups_vs_static(&cells),
    ));
    (checks, metrics::end_to_end(&cells))
}

/// The one-run form with `--trace 1`: the same cells untraced, traced and
/// with engine observability on, then each layer on its own.
fn traced_run(spec: &Spec, seed: u64, seconds: f64, out: &Path) -> (Checks, Vec<Measured>) {
    let (warm, ops) = (spec.warmup_ops(seconds), spec.measured_ops(seconds));
    let flat = run_flat(spec, seed, warm, ops);
    let reference = flat.reference.as_deref();
    let plain = run_cells(spec, seed, seconds, Pass::Plain, 1, reference);
    let traced = run_cells(spec, seed, seconds, Pass::Traced, 1, reference);
    let observed = run_cells(spec, seed, seconds, Pass::Observed, 1, reference);

    let mut checks = Checks::default();
    checks.cells("untraced", &plain);
    checks.cells("traced", &traced);
    checks.cells("observed", &observed);
    // Tracing and observing must not change what is simulated.
    let mut drift = Vec::new();
    for ((p, t), o) in plain.iter().zip(&traced).zip(&observed) {
        for (pass, other) in [("traced", t), ("observed", o)] {
            if other.signature() != p.signature() {
                drift.push(format!(
                    "{} {pass} run simulated {:?}, untraced {:?}",
                    p.system.label(),
                    other.signature(),
                    p.signature()
                ));
            }
        }
    }
    checks.rule(drift);
    checks.rule(metrics::fig5_shape_violations(
        &metrics::speedups_vs_static(&plain),
    ));

    for cell in &traced {
        let file = if traced.len() == 1 {
            format!("{}.spans.jsonl", spec.name)
        } else {
            let policy = metrics::policy_label(cell.system);
            format!("{}.{policy}.spans.jsonl", spec.name)
        };
        if let Err(e) = cell.span_log().write_jsonl(&out.join(&file), &cell.phases) {
            checks.rule(vec![format!("writing {file}: {e}")]);
        }
    }

    let mc = spec.config(mc_sim::SystemKind::MultiClock);
    let trace = layers::record_touches(spec, seed, warm + ops);
    let run = TracedRun {
        replay_ns_per_touch: layers::replay_ns_per_touch(&trace, mc.clone()),
        bare_access_ns: layers::bare_access_ns(&trace, &mc),
        list_cycle_ns: layers::list_cycle_ns(),
        flat,
        plain,
        traced,
        observed,
    };
    // p99.9 is a fixed metric name, so the run must be long enough for it.
    let virt_calls = metrics::multi_clock_cell(&run.plain).virt_calls.count();
    let timed_calls = metrics::multi_clock_cell(&run.traced)
        .span_log()
        .calls
        .count;
    println!(
        "  call percentiles: virtual over {virt_calls} calls, host over {timed_calls} timed calls \
         (MULTI-CLOCK cell)"
    );
    let enough = |n: u64| stats::highest_supported_percentile(n, &[50.0, 99.9]) == Some(99.9);
    checks.rule(if enough(virt_calls) && enough(timed_calls) {
        Vec::new()
    } else {
        vec!["fewer than 10 call samples beyond p99.9".to_string()]
    });
    let measured = metrics::per_layer(&run);
    print_budget(spec, run.traced.iter().map(|c| c.wall_s).sum(), &measured);
    (checks, measured)
}

/// Where the measured phase's host wall-clock went, layer by layer.
fn print_budget(spec: &Spec, wall: f64, measured: &[Measured]) {
    let get = |name: &str| {
        measured
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| *v)
    };
    println!(
        "budget {} (traced measured phase, {wall:.3} s host wall; self time = span minus child spans)",
        spec.name
    );
    println!("  {:<34} {:>10} {:>8}", "layer", "self_s", "share");
    let row = |label: &str, s: f64| {
        println!("  {label:<34} {s:>10.4} {:>7.1}%", 100.0 * s / wall);
    };
    row("workloads + probe (op - calls)", get("workloads.self_s"));
    row("sim+mem (Memory calls - ticks)", get("sim.access_self_s"));
    row("core (daemon ticks)", get("core.tick_s"));
    row("  scan", get("core.scan_s"));
    row("  merge", get("core.merge_s"));
    row("  promote_drain", get("core.promote_drain_s"));
    row("  pressure", get("core.pressure_s"));
    row("  tick self", get("core.tick_self_s"));
    row("residual", get("bench.budget_residual_share") * wall);
    println!(
        "  tracing overhead: traced wall / untraced wall = {:.3}",
        get("bench.trace_overhead_ratio")
    );
}

fn one_run(spec: &Spec, args: &Args, trace: bool) -> ExitCode {
    println!(
        "# mc-benchmark workload={} seed={} seconds={} trace={} {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(trace),
        provenance()
    );
    println!("# why: {}", spec.why);
    println!(
        "# host-time metrics are this machine's; sim_*/virt_* metrics are virtual time of a model \
         validated for shape only (EXPERIMENTS.md), not against hardware: no error figure is given"
    );
    let (checks, measured) = if trace {
        traced_run(spec, args.seed, args.seconds, &args.out)
    } else {
        untraced_run(spec, args.seed, args.seconds)
    };
    print_metrics(&measured);
    println!(
        "  failed_op_share = {} ({} failed of {} attempted)",
        checks.failed as f64 / checks.attempted as f64,
        checks.failed,
        checks.attempted
    );
    println!(
        "{}",
        metrics::result_line(
            checks.failed == 0,
            checks.attempted,
            checks.failed,
            &measured
        )
    );
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child run reported.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    /// Standard output before the result line.
    text: String,
}

impl RunResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

fn parse_result(stdout: &str) -> Result<RunResult, String> {
    let stdout = stdout.trim_end();
    let (text, line) = stdout.rsplit_once('\n').unwrap_or(("", stdout));
    let v = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("result line lacks {k:?}"));
    let count = |k: &str| {
        field(k)?
            .as_f64()
            .map(|n| n as u64)
            .ok_or_else(|| format!("{k} is not a number"))
    };
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, body)| {
            let value = body.get("value").and_then(Json::as_f64);
            let unit = body.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("metric {name} lacks value or unit")),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(RunResult {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
        text: text.to_string(),
    })
}

/// Runs one workload once in a child process of this executable.
fn spawn_run(spec: &Spec, args: &Args, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse_result(&stdout).map_err(|e| format!("{} ({}): {e}\n{stdout}", spec.name, out.status))
}

/// One set of untraced runs: `reps` per workload.
type RunSet = Vec<(&'static Spec, Vec<RunResult>)>;

fn run_set(specs: &[&'static Spec], args: &Args) -> Result<RunSet, String> {
    specs
        .iter()
        .map(|spec| {
            let runs = (0..args.reps)
                .map(|_| spawn_run(spec, args, false))
                .collect::<Result<Vec<RunResult>, _>>()?;
            // A run's own report is only worth the space when it failed.
            for failed in runs.iter().filter(|r| !r.correct) {
                println!("{}", failed.text);
            }
            Ok((*spec, runs))
        })
        .collect()
}

fn values(runs: &[RunResult], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.metric(metric)).collect()
}

/// Prints every end-to-end metric of every workload and returns the number
/// of failed checks (wrong outputs, or simulated results that differ
/// between reps of one seed).
fn print_set(set: &RunSet) -> u64 {
    let mut failures = 0;
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>16} {:>3}  unit (better)",
        "workload", "metric", "median", "min", "max", "n"
    );
    for (spec, runs) in set {
        for m in &END_TO_END {
            let v = values(runs, m.name);
            let (min, max) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
            println!(
                "{:<16} {:<22} {:>16.6} {:>16.6} {:>16.6} {:>3}  {} ({})",
                spec.name,
                m.name,
                median(&v),
                min,
                max,
                v.len(),
                m.unit,
                m.better.as_str()
            );
            if m.is_simulated() && min != max {
                println!(
                    "FAILED {} {}: differs between reps of one seed",
                    spec.name, m.name
                );
                failures += 1;
            }
        }
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        println!(
            "{:<16} {:<22} {:>16} ({failed} failed of {attempted} attempted)",
            spec.name,
            "failed_op_share",
            failed as f64 / attempted as f64
        );
        failures += failed + runs.iter().filter(|r| !r.correct).count() as u64;
    }
    failures
}

/// Compares two sets of runs of the same code: host metrics must agree
/// within their bound in both directions, simulated ones and the counts
/// exactly. Returns the number of disagreements.
fn compare_sets(first: &RunSet, second: &RunSet) -> u64 {
    let mut failures = 0;
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>16}  verdict",
        "workload", "metric", "first median", "second median", "bound"
    );
    for ((spec, a), (_, b)) in first.iter().zip(second) {
        for m in &END_TO_END {
            let (ma, mb) = (median(&values(a, m.name)), median(&values(b, m.name)));
            let bound = m.selfcheck_bound();
            let ok = bound.holds(m.better, ma, mb) && bound.holds(m.better, mb, ma);
            println!(
                "{:<16} {:<22} {ma:>16.6} {mb:>16.6} {:>16}  {}",
                spec.name,
                m.name,
                bound.to_string(),
                if ok { "ok" } else { "FAILED" }
            );
            failures += u64::from(!ok);
        }
        let counts = |runs: &[RunResult]| -> Vec<(u64, u64)> {
            runs.iter().map(|r| (r.attempted, r.failed)).collect()
        };
        if counts(a) != counts(b) {
            println!("{:<16} attempted/failed counts differ: FAILED", spec.name);
            failures += 1;
        }
    }
    failures
}

fn suite(args: &Args) -> Result<u64, String> {
    let specs: Vec<&'static Spec> = match args.workload {
        Some(spec) => vec![spec],
        None => WORKLOADS.iter().collect(),
    };
    println!(
        "# mc-benchmark suite seed={} seconds={} reps={} {}",
        args.seed,
        args.seconds,
        args.reps,
        provenance()
    );
    println!(
        "# closed loop, one client, one thread; op-bound runs; host_*/setup_s/peak_rss are host \
         measurements, sim_* are virtual time of a model validated for shape only"
    );
    let first = run_set(&specs, args)?;
    let mut failures = print_set(&first);
    if args.selfcheck {
        println!("# selfcheck: second set of runs of the same code");
        let second = run_set(&specs, args)?;
        failures += print_set(&second);
        failures += compare_sets(&first, &second);
    }
    if args.traced {
        for spec in &specs {
            let run = spawn_run(spec, args, true)?;
            println!("{}", run.text);
            failures += run.failed + u64::from(!run.correct);
        }
    }
    Ok(failures)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("mc-benchmark: refusing to measure a debug build; use --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let (Some(trace), Some(spec)) = (args.trace, args.workload) {
        return one_run(spec, &args, trace);
    }
    match suite(&args) {
        Ok(0) => {
            println!("all checks passed");
            ExitCode::SUCCESS
        }
        Ok(n) => {
            println!("{n} checks FAILED");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("mc-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
