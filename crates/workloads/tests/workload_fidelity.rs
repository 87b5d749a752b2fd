//! Workload-fidelity tests: the statistical properties the experiments
//! rely on, checked directly against the workload implementations.

use mc_workloads::dist::ScrambledZipfian;
use mc_workloads::graph::{bfs, cc, pagerank, rmat_edges, sssp, tc, Csr, GraphConfig, Kernel};
use mc_workloads::kv::KvStore;
use mc_workloads::motivation::MotivationWorkload;
use mc_workloads::ycsb::{YcsbClient, YcsbConfig, YcsbWorkload};
use mc_workloads::SimpleMemory;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn zipfian_hot_set_concentration_supports_tiering() {
    // The premise of the whole evaluation: the top quarter of keys must
    // carry well over half the accesses.
    let mut rng = StdRng::seed_from_u64(3);
    let n = 6_000u64;
    let s = ScrambledZipfian::new(n);
    let mut counts = vec![0u64; n as usize];
    let draws = 400_000;
    for _ in 0..draws {
        counts[s.next(&mut rng) as usize] += 1;
    }
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let top_quarter: u64 = counts[..(n as usize / 4)].iter().sum();
    let frac = top_quarter as f64 / draws as f64;
    assert!(frac > 0.60, "top 25% of keys carry {frac:.2} of traffic");
}

#[test]
fn ycsb_d_insert_scale_changes_only_insert_rate() {
    let mut mem = SimpleMemory::new();
    let cfg = YcsbConfig {
        records: 1_000,
        value_size: 128,
        insert_scale: 0.1,
        ..Default::default()
    };
    let mut c = YcsbClient::load(cfg, &mut mem);
    c.run(YcsbWorkload::D, &mut mem, 20_000);
    let o = c.ops();
    let insert_frac = o.inserts as f64 / o.total() as f64;
    assert!(
        (0.002..0.012).contains(&insert_frac),
        "5% x 0.1 = 0.5% inserts, got {insert_frac:.4}"
    );
    assert_eq!(o.updates, 0, "D has no updates");
    assert_eq!(o.total(), 20_000);
}

#[test]
fn ycsb_values_survive_every_workload() {
    // After a full prescribed sequence, every record read back verifies.
    let mut mem = SimpleMemory::new();
    let mut c = YcsbClient::load(
        YcsbConfig {
            records: 400,
            value_size: 256,
            ..Default::default()
        },
        &mut mem,
    );
    for w in YcsbWorkload::prescribed_order() {
        c.run(w, &mut mem, 2_000);
    }
    // Spot-verify: run_op's debug assertions already check reads; here we
    // assert the store still holds all original records plus inserts.
    assert!(c.store().len() >= 400);
    assert_eq!(c.record_count() as usize, c.store().len());
}

#[test]
fn kv_store_copes_with_varied_value_sizes() {
    let mut mem = SimpleMemory::new();
    let mut kv = KvStore::new(&mut mem, 64);
    let sizes = [
        (1u64, 1usize),
        (2, 63),
        (3, 64),
        (4, 65),
        (5, 4096),
        (6, 60_000),
    ];
    for (k, size) in sizes {
        let v = vec![k as u8; size];
        kv.set(&mut mem, k, &v);
        assert_eq!(kv.get(&mut mem, k).unwrap(), v, "size {size}");
    }
    // Read back after every set, so a small value follows a large one
    // through the store's reused item buffer.
    for (k, size) in sizes.into_iter().rev().chain(sizes) {
        assert_eq!(
            kv.get(&mut mem, k),
            Some(&vec![k as u8; size][..]),
            "size {size}"
        );
    }
}

#[test]
fn all_six_kernels_run_on_the_same_graph() {
    let mut mem = SimpleMemory::new();
    let cfg = GraphConfig {
        scale: 8,
        degree: 8,
        symmetric: true,
        max_weight: 64,
        ..Default::default()
    };
    let mut csr = Csr::build(&cfg, &mut mem);
    for k in Kernel::ALL {
        csr.reset_arena();
        match k {
            Kernel::Bfs => {
                let src = csr.source_vertex(0);
                let p = bfs::bfs(&mut csr, &mut mem, src);
                let reached = p.as_slice_unaccounted().iter().filter(|x| **x >= 0).count();
                assert!(
                    reached > csr.num_vertices() / 2,
                    "BFS reaches the giant component"
                );
            }
            Kernel::Sssp => {
                let src = csr.source_vertex(0);
                let d = sssp::sssp(&mut csr, &mut mem, src);
                assert!(d
                    .as_slice_unaccounted()
                    .iter()
                    .any(|x| *x > 0 && *x < u64::MAX));
            }
            Kernel::Pr => {
                let r = pagerank::pagerank(&mut csr, &mut mem, 10);
                let sum: f64 = r.as_slice_unaccounted().iter().sum();
                assert!((sum - 1.0).abs() < 1e-6);
            }
            Kernel::Cc => {
                let l = cc::cc(&mut csr, &mut mem);
                assert!(cc::component_count(&l) >= 1);
            }
            Kernel::Bc => {
                let b = mc_workloads::graph::bc::bc(&mut csr, &mut mem, 2);
                assert!(b.as_slice_unaccounted().iter().any(|x| *x > 0.0));
            }
            Kernel::Tc => {
                let t = tc::tc(&mut csr, &mut mem);
                assert!(t > 0, "R-MAT graphs have triangles");
            }
        }
    }
}

#[test]
fn rmat_hubs_make_some_edge_pages_far_hotter_than_others() {
    // The source of MULTI-CLOCK's (modest) GAPBS wins: hub rows
    // concentrate edge-page traffic.
    let edges = rmat_edges(11, 8, 5);
    let mut deg = vec![0u32; 1 << 11];
    for (u, _) in &edges {
        deg[*u as usize] += 1;
    }
    deg.sort_unstable_by(|a, b| b.cmp(a));
    let total: u32 = deg.iter().sum();
    let top: u32 = deg[..(deg.len() / 20)].iter().sum();
    assert!(
        top as f64 / total as f64 > 0.25,
        "top 5% of vertices own >25% of edges"
    );
}

#[test]
fn motivation_workloads_have_all_three_populations() {
    // Fig. 1's taxonomy: DRAM-friendly, tier-friendly (bimodal), cold.
    for mut w in MotivationWorkload::all_paper_workloads(50, 9) {
        let mut mem = SimpleMemory::new();
        let m = w.heatmap(&mut mem, 64);
        let totals: Vec<u32> = (0..50).map(|p| (0..64).map(|t| m[t][p]).sum()).collect();
        let hot = totals.iter().filter(|t| **t > 64 * 12).count();
        let cold = totals.iter().filter(|t| **t <= 16).count();
        let mid = 50 - hot - cold;
        assert!(hot > 0, "{} needs DRAM-friendly pages", w.name());
        assert!(cold > 0, "{} needs cold pages", w.name());
        assert!(mid > 0, "{} needs tier-friendly pages", w.name());
    }
}

#[test]
#[expect(
    clippy::needless_range_loop,
    reason = "parallel-matrix indexing reads clearer"
)]
fn observation_window_frequency_predicts_future_accesses() {
    // Fig. 2's claim, asserted quantitatively on the generator.
    let mut mem = SimpleMemory::new();
    let mut w = MotivationWorkload::rubis(50, 11);
    let m = w.heatmap(&mut mem, 64);
    let window = 4;
    let (mut once, mut multi) = (Vec::new(), Vec::new());
    let mut start = 0;
    while start + 2 * window <= 64 {
        for p in 0..50 {
            let obs: u32 = (start..start + window).map(|t| m[t][p]).sum();
            let perf: u32 = (start + window..start + 2 * window).map(|t| m[t][p]).sum();
            match obs {
                1 => once.push(perf as f64),
                x if x > 1 => multi.push(perf as f64),
                _ => {}
            }
        }
        start += 2 * window;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&multi) > 3.0 * mean(&once).max(0.1),
        "multi {:.2} vs once {:.2}",
        mean(&multi),
        mean(&once)
    );
}
