//! Ablation study (beyond the paper's figures, motivated by DESIGN.md):
//!
//! 1. **Selection-quality ablation** — the oracles (strict LRU, LFU with
//!    full access visibility) against MULTI-CLOCK: how much of the win is
//!    selection quality vs tracking cost.
//! 2. **Write-weight extension** (§VII) — dirty-page-biased promotion.
//! 3. **Adaptive scan interval** (§VII) — workload-adaptive kpromoted
//!    period.
//!
//! Run with `cargo run -p mc-bench --release --bin ablation`.

use mc_bench::{banner, scale_from_args};
use mc_mem::{MachineBuilder, MachineDesc, TierKind, TierLatency};
use mc_sim::experiments::{Experiment, Scale};
use mc_sim::report::format_table;
use mc_sim::{SimConfig, Simulation, SystemKind};
use mc_workloads::ycsb::{YcsbClient, YcsbConfig, YcsbWorkload};
use mc_workloads::Memory;

/// DRAM + a write-hostile PM device (QLC-class): stores are 8x slower than
/// the default Optane model and write bandwidth halves.
fn slow_write_pm(dram_pages: usize, pm_pages: usize) -> MachineDesc {
    let optane = TierLatency::optane_pm();
    MachineBuilder::new()
        .node(TierKind::Dram, dram_pages)
        .node(TierKind::Pm, pm_pages)
        .device(TierLatency {
            write_ns: optane.write_ns * 8,
            write_bw_gbps: optane.write_bw_gbps / 2.0,
            ..optane
        })
        .build()
}

/// Runs MULTI-CLOCK with explicit engine knobs (write weight / adaptive),
/// optionally against a PM device with much slower writes (the §VII
/// discussion: weighting dirtiness matters "when the underlying memory
/// hardware exhibits non-uniform latency for the different types of
/// accesses").
fn run_mc_variant(
    scale: &Scale,
    write_weight: f64,
    adaptive: bool,
    slow_pm_writes: bool,
    workload: YcsbWorkload,
) -> f64 {
    let mut cfg = SimConfig::new(SystemKind::MultiClock, scale.dram_pages, scale.pm_pages);
    cfg.write_weight = write_weight;
    cfg.adaptive_interval = adaptive;
    cfg.scan_interval = scale.scan_interval();
    cfg.scan_batch = scale.scan_batch;
    if slow_pm_writes {
        cfg.mem = slow_write_pm(scale.dram_pages, scale.pm_pages);
    }
    let mut sim = Simulation::new(cfg);
    let mut client = YcsbClient::load(
        YcsbConfig {
            records: scale.records,
            value_size: scale.value_size,
            seed: scale.seed,
            ..Default::default()
        },
        &mut sim,
    );
    let warm_end = sim.now() + scale.warmup;
    while sim.now() < warm_end {
        client.run_op(workload, &mut sim);
    }
    let t0 = sim.now();
    let end = t0 + scale.measure;
    let mut ops = 0u64;
    while sim.now() < end {
        client.run_op(workload, &mut sim);
        ops += 1;
    }
    ops as f64 / (sim.now() - t0).as_secs_f64()
}

/// A read/write-split microbenchmark: one page set is read-hot, a
/// disjoint set is write-hot, and DRAM fits only one of them — the
/// configuration where §VII's dirtiness weighting has something to
/// decide. Returns throughput.
fn run_split_micro(scale: &Scale, write_weight: f64, slow_pm_writes: bool) -> f64 {
    use mc_mem::{PageKind, PAGE_SIZE};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let dram = 256usize;
    let mut cfg = SimConfig::new(SystemKind::MultiClock, dram, 4096);
    cfg.write_weight = write_weight;
    cfg.scan_interval = scale.scan_interval();
    cfg.scan_batch = scale.scan_batch;
    if slow_pm_writes {
        cfg.mem = slow_write_pm(dram, 4096);
    }
    let mut sim = Simulation::new(cfg);
    // Two hot sets, each as large as usable DRAM: they cannot both fit.
    let set_pages = 220u64;
    let filler = sim.mmap(PAGE_SIZE * dram, PageKind::Anon); // consumes DRAM
    for i in 0..dram as u64 {
        sim.read(filler.add(i * PAGE_SIZE as u64), 8);
    }
    let read_hot = sim.mmap(PAGE_SIZE * set_pages as usize, PageKind::Anon);
    let write_hot = sim.mmap(PAGE_SIZE * set_pages as usize, PageKind::Anon);
    let mut rng = StdRng::seed_from_u64(scale.seed);
    let mut run_ops = |sim: &mut Simulation, n: u64| {
        for _ in 0..n {
            let p = rng.gen_range(0..set_pages);
            sim.read(read_hot.add(p * PAGE_SIZE as u64), 64);
            let q = rng.gen_range(0..set_pages);
            sim.write(write_hot.add(q * PAGE_SIZE as u64), 256);
        }
    };
    run_ops(&mut sim, 300_000); // warm up
    let t0 = sim.now();
    let ops = 300_000u64;
    run_ops(&mut sim, ops);
    ops as f64 / (sim.now() - t0).as_secs_f64()
}

fn main() {
    let scale = scale_from_args();
    banner(
        "Ablation",
        "selection oracles and the §VII extensions (YCSB)",
        &scale,
    );

    // 1. Selection-quality oracles on A (mixed) and C (read-only).
    for w in [YcsbWorkload::A, YcsbWorkload::C] {
        eprintln!("oracle ablation on workload {w} ...");
        let systems = [
            SystemKind::Static,
            SystemKind::MultiClock,
            SystemKind::AutoNuma,
            SystemKind::Amp,
            SystemKind::OracleLru,
            SystemKind::OracleLfu,
        ];
        let run = |s: SystemKind| {
            Experiment::ycsb(w)
                .system(s)
                .scale(&scale)
                .run()
                .expect("the scale's footprint fits its machine")
        };
        let base = run(SystemKind::Static).ops_per_sec;
        let rows: Vec<Vec<String>> = systems
            .iter()
            .map(|s| {
                let r = run(*s);
                vec![
                    s.label().to_string(),
                    format!("{:.2}", r.ops_per_sec / base),
                    r.promotions.to_string(),
                    r.reaccess_pct.map_or("-".into(), |p| format!("{p:.1}%")),
                ]
            })
            .collect();
        println!("\nSelection ablation, workload {w} (normalised to static):");
        println!(
            "{}",
            format_table(
                &["system", "norm. throughput", "promotions", "re-access %"],
                &rows
            )
        );
    }

    // 2. Read/write-split microbenchmark: the configuration §VII's
    // dirtiness weighting is designed for.
    for slow in [false, true] {
        let device = if slow {
            "write-hostile PM (8x stores)"
        } else {
            "default Optane model"
        };
        eprintln!("read/write-split micro, {device} ...");
        let base = run_split_micro(&scale, 1.0, slow);
        let weighted = run_split_micro(&scale, 2.0, slow);
        println!(
            "\nread/write-split micro, {device}: write-weight 2.0 vs baseline = {:.3}",
            weighted / base
        );
    }

    // 3. Paper §VII extensions on the mixed workload A (dirtiness can
    // only matter where read-hot and write-hot pages compete), on the
    // default Optane model and on a write-hostile PM device where the
    // signal has something to buy.
    for slow in [false, true] {
        let device = if slow {
            "write-hostile PM (8x stores)"
        } else {
            "default Optane model"
        };
        eprintln!("extension ablation on workload A, {device} ...");
        let variants = [
            ("baseline (paper)", 1.0, false),
            ("write-weight 2.0", 2.0, false),
            ("write-weight 3.0", 3.0, false),
            ("adaptive interval", 1.0, true),
        ];
        let base = run_mc_variant(&scale, 1.0, false, slow, YcsbWorkload::A);
        let rows: Vec<Vec<String>> = variants
            .iter()
            .map(|(name, ww, ad)| {
                let t = run_mc_variant(&scale, *ww, *ad, slow, YcsbWorkload::A);
                vec![name.to_string(), format!("{:.3}", t / base)]
            })
            .collect();
        println!("\n§VII extensions on workload A, {device} (normalised to default MC):");
        println!("{}", format_table(&["variant", "norm. throughput"], &rows));
    }
}
