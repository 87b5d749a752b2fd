//! Cross-crate tests: dual-socket NUMA topologies (the paper's testbed
//! shape) and the trace pipeline against the tiering engine.

use mc_mem::{MachineDesc, Nanos, PageKind, TierId, PAGE_SIZE};
use mc_sim::{SimConfig, Simulation, SystemKind};
use mc_trace::{replay, Recorder};
use mc_workloads::ycsb::{YcsbClient, YcsbConfig, YcsbWorkload};
use mc_workloads::{Memory, SimpleMemory};

fn dual_socket_cfg(system: SystemKind) -> SimConfig {
    let mut cfg = SimConfig::new(system, 1, 1);
    cfg.mem = MachineDesc::dual_socket(256, 2048);
    cfg.scan_interval = Nanos::from_millis(5);
    cfg.scan_batch = 4096;
    cfg
}

#[test]
fn multi_clock_spans_numa_nodes_within_a_tier() {
    // Two DRAM nodes + two PM nodes: the DRAM tier is the union of both
    // DRAM nodes ("we define all the DRAM nodes as the DRAM tier").
    let mut sim = Simulation::new(dual_socket_cfg(SystemKind::MultiClock));
    assert_eq!(sim.mem().topology().tier_count(), 2);
    assert_eq!(sim.mem().topology().tier(TierId::TOP).nodes().len(), 2);

    // Fill past both DRAM nodes; keep one PM page hot; it must promote
    // into *some* DRAM node.
    let region = sim.mmap(PAGE_SIZE * 4096, PageKind::Anon);
    let mut i = 0u64;
    loop {
        let addr = region.add(i * PAGE_SIZE as u64);
        sim.read(addr, 8);
        let f = sim.mem().translate(addr.page()).unwrap();
        if sim.mem().frame(f).tier() != TierId::TOP {
            break;
        }
        i += 1;
        assert!(i < 600);
    }
    let hot = region.add(i * PAGE_SIZE as u64);
    for _ in 0..60 {
        sim.read(hot, 8);
        sim.compute(Nanos::from_millis(5));
    }
    let f = sim.mem().translate(hot.page()).unwrap();
    assert_eq!(sim.mem().frame(f).tier(), TierId::TOP);
    // Both DRAM nodes hold pages (allocation balanced across the socket).
    let topo = sim.mem().topology();
    for node in topo.tier(TierId::TOP).nodes() {
        let free = sim.mem().node_free(*node);
        let total = topo.node(*node).pages();
        assert!(free < total, "node {node} must hold pages");
    }
}

#[test]
fn dual_socket_comparison_keeps_paper_ordering() {
    let run = |system| {
        let mut sim = Simulation::new(dual_socket_cfg(system));
        let mut client = YcsbClient::load(
            YcsbConfig {
                records: 4_000,
                value_size: 1024,
                op_compute: Nanos::from_nanos(500),
                ..Default::default()
            },
            &mut sim,
        );
        let end = sim.now() + Nanos::from_millis(1_600);
        let t0 = sim.now();
        let mut ops = 0u64;
        while sim.now() < end {
            client.run_op(YcsbWorkload::A, &mut sim);
            ops += 1;
        }
        ops as f64 / (sim.now() - t0).as_secs_f64()
    };
    let stat = run(SystemKind::Static);
    let mc = run(SystemKind::MultiClock);
    assert!(
        mc > stat,
        "MULTI-CLOCK must beat static on the dual-socket machine: {mc:.0} vs {stat:.0}"
    );
}

#[test]
fn recorded_kv_trace_replays_faithfully_into_the_engine() {
    // Record on a flat memory, replay into the tiering engine; the
    // replayed access count matches and the engine tiers pages normally.
    let mut rec = Recorder::new(SimpleMemory::new());
    let mut kv = mc_workloads::kv::KvStore::new(&mut rec, 500);
    for k in 0..500u64 {
        kv.set(&mut rec, k, &[k as u8; 512]);
    }
    for _ in 0..5 {
        for k in 0..50u64 {
            kv.get(&mut rec, k);
        }
    }
    let trace = rec.finish();
    assert!(trace.len() > 1_000);

    let mut cfg = SimConfig::new(SystemKind::MultiClock, 128, 1024);
    cfg.scan_interval = Nanos::from_millis(2);
    cfg.scan_batch = 4096;
    let mut sim = Simulation::new(cfg);
    let stats = replay(&trace, &mut sim);
    assert_eq!(stats.events_replayed as usize, trace.len());
    assert!(sim.mem().stats().reads > 0 && sim.mem().stats().writes > 0);
}
