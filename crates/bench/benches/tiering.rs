//! End-to-end tiering benchmarks at tiny scale: small criterion-tracked
//! versions of the Fig. 5/6 comparisons, so `cargo bench` exercises the
//! full simulation path and regressions in the policies show up as timing
//! and throughput changes. The full-size figures are sections of the
//! `repro` binary (see DESIGN.md's experiment index).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mc_mem::Nanos;
use mc_sim::experiments::{Experiment, Scale};
use mc_sim::SystemKind;
use mc_workloads::graph::Kernel;
use mc_workloads::ycsb::YcsbWorkload;

fn micro_scale() -> Scale {
    let mut s = Scale::tiny();
    s.records = 1_000;
    s.warmup = Nanos::from_millis(300);
    s.measure = Nanos::from_millis(300);
    s.graph_scale = 8;
    s.graph_degree = 8;
    s.graph_dram_pages = 32;
    s
}

fn bench_ycsb_a(c: &mut Criterion) {
    let scale = micro_scale();
    let mut g = c.benchmark_group("ycsb_a_tiny");
    g.sample_size(10);
    for system in [
        SystemKind::Static,
        SystemKind::MultiClock,
        SystemKind::Nimble,
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(system.label()),
            &system,
            |b, sys| {
                b.iter(|| {
                    black_box(
                        Experiment::ycsb(YcsbWorkload::A)
                            .system(*sys)
                            .scale(&scale)
                            .interval(Nanos::from_secs(1))
                            .run()
                            .expect("the scale's footprint fits its machine"),
                    )
                })
            },
        );
    }
    g.finish();
}

fn bench_gapbs_bfs(c: &mut Criterion) {
    let scale = micro_scale();
    let mut g = c.benchmark_group("gapbs_bfs_tiny");
    g.sample_size(10);
    for system in [SystemKind::Static, SystemKind::MultiClock] {
        g.bench_with_input(
            BenchmarkId::from_parameter(system.label()),
            &system,
            |b, sys| {
                b.iter(|| {
                    black_box(
                        Experiment::gapbs(Kernel::Bfs)
                            .system(*sys)
                            .scale(&scale)
                            .interval(Nanos::from_secs(1))
                            .run()
                            .expect("the scale's footprint fits its machine"),
                    )
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_ycsb_a, bench_gapbs_bfs);
criterion_main!(benches);
