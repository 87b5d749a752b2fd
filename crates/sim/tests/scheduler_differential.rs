//! Golden fingerprints for the daemon's tick schedule.
//!
//! The tick-equivalence contract (DESIGN.md §17): however the engine
//! decides when the tiering daemon runs, a run must stay *bit-identical*
//! to the engine that produced these constants — same virtual time, same
//! `MemStats`, same per-tick CSV, same tracepoint JSONL, same final page
//! placement, same cost ledger.
//!
//! All eight constants were captured at the PR 18 head (`fce0550`), the
//! last commit that had the scan-shards-per-node knob, by setting it to 1
//! in `base_cfg()` there and running `cargo test -p mc-sim --test
//! scheduler_differential -- --ignored --nocapture`. The six they replace
//! (PR 8 head `6c0390e` for `BASE` / `CHAOS`, PR 13 head `30c1061` for the
//! rest) ran the same workload with four shards per node and passed at
//! `fce0550` too, so the chain back to the PR 8 fixed-period engine is
//! unbroken; they could not outlive the knob. Six pin the default machine
//! (one node, hence one list shard, per tier): the base run, transactional
//! promotion and eight-page sync batches, each plain and under 20 % fault
//! injection (the retry/backoff chaos path). `BASE_DUAL` / `CHAOS_DUAL`
//! pin the same 64 + 512 pages as `MachineDesc::dual_socket(32, 256)`, two
//! nodes and so two shards per tier — the one-shard-per-node path.
//!
//! If a *deliberate* behavior change ever invalidates these constants,
//! re-run the command above at the last-good commit and re-pin.

use mc_mem::{MachineDesc, Memory, MigrationMode, Nanos, PageKind, PAGE_SIZE};
use mc_sim::{FaultConfig, RetryPolicy, SimConfig, Simulation, SystemKind};

/// 64-bit FNV-1a: a stable, dependency-free digest for pinning large
/// artifacts (CSV/JSONL streams, placement maps) as u64 constants.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of everything a run can observably produce, digested to
/// pin-able integers.
#[derive(Debug, PartialEq)]
struct Golden {
    now_ns: u64,
    stats_hash: u64,
    ticks_csv_hash: u64,
    ticks_csv_len: usize,
    events_jsonl_hash: u64,
    events_jsonl_len: usize,
    placement_hash: u64,
    promotions: u64,
    demotions: u64,
    costs_hash: u64,
}

const PAGES: u64 = 192;

/// The house differential workload (same shape as the batching
/// differential): first-touch fill spills into PM, a hot set deep in
/// the PM tail is hammered every round, a stride keeps the lists
/// churning, compute gaps let the daemon tick.
fn run(cfg: SimConfig) -> Golden {
    let mut s = Simulation::new(cfg);
    let a = s.mmap(PAGE_SIZE * PAGES as usize, PageKind::Anon);
    for p in 0..PAGES {
        s.write(a.add(p * PAGE_SIZE as u64), 64);
    }
    for round in 0..400u64 {
        for h in 0..8u64 {
            s.read(a.add((160 + h) * PAGE_SIZE as u64), 64);
        }
        let page = (round * 7) % PAGES;
        let addr = a.add(page * PAGE_SIZE as u64);
        if round % 3 == 0 {
            s.write(addr, 256);
        } else {
            s.read(addr, 64);
        }
        s.compute(Nanos::from_millis(25));
        s.record_op();
    }
    s.finish();
    let placement: Vec<Option<(u32, u8)>> = (0..PAGES)
        .map(|p| {
            s.mem().translate(mc_mem::VPage::new(p)).map(|f| {
                let fr = s.mem().frame(f);
                (f.raw(), fr.tier().index() as u8)
            })
        })
        .collect();
    let ticks_csv = s.obs_ticks_csv().unwrap_or_default();
    let events_jsonl = s.obs_events_jsonl().unwrap_or_default();
    Golden {
        now_ns: s.now().as_nanos(),
        stats_hash: fnv1a(format!("{:?}", s.mem().stats()).as_bytes()),
        ticks_csv_hash: fnv1a(ticks_csv.as_bytes()),
        ticks_csv_len: ticks_csv.len(),
        events_jsonl_hash: fnv1a(events_jsonl.as_bytes()),
        events_jsonl_len: events_jsonl.len(),
        placement_hash: fnv1a(format!("{placement:?}").as_bytes()),
        promotions: s.metrics().total_promotions(),
        demotions: s.metrics().total_demotions(),
        costs_hash: fnv1a(format!("{:?}", s.metrics().costs()).as_bytes()),
    }
}

fn base_cfg() -> SimConfig {
    let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
    cfg.instrument.obs = mc_sim::ObsConfig::on();
    cfg
}

/// 20 % deterministic fault injection with exponential-backoff retry.
fn chaos(mut cfg: SimConfig) -> SimConfig {
    cfg.instrument.fault = FaultConfig::rate(7, 0.2);
    cfg.retry = RetryPolicy::backoff();
    cfg
}

fn txn_cfg() -> SimConfig {
    let mut cfg = base_cfg();
    cfg.engine.migration_mode = MigrationMode::Transactional;
    cfg
}

fn batch8_cfg() -> SimConfig {
    let mut cfg = base_cfg();
    cfg.engine.migrate_batch_size = 8;
    cfg
}

/// Two sockets: two nodes, and so two list shards, per tier.
fn dual_cfg() -> SimConfig {
    let mut cfg = base_cfg();
    cfg.mem = MachineDesc::dual_socket(32, 256);
    cfg
}

/// Every pinned configuration, by the name of its constant.
fn pinned() -> [(&'static str, SimConfig, Golden); 8] {
    [
        ("BASE", base_cfg(), BASE),
        ("CHAOS", chaos(base_cfg()), CHAOS),
        ("TXN", txn_cfg(), TXN),
        ("TXN_CHAOS", chaos(txn_cfg()), TXN_CHAOS),
        ("BATCH8", batch8_cfg(), BATCH8),
        ("BATCH8_CHAOS", chaos(batch8_cfg()), BATCH8_CHAOS),
        ("BASE_DUAL", dual_cfg(), BASE_DUAL),
        ("CHAOS_DUAL", chaos(dual_cfg()), CHAOS_DUAL),
    ]
}

/// The base run: obs artifacts on, default machine.
const BASE: Golden = Golden {
    now_ns: 10000793718,
    stats_hash: 0xf91e420ed496e3d3,
    ticks_csv_hash: 0x24cb10b1240459ac,
    ticks_csv_len: 1371,
    events_jsonl_hash: 0xa77521510dd101ad,
    events_jsonl_len: 120537,
    placement_hash: 0x8d98ee3e75062f5d,
    promotions: 8,
    demotions: 12,
    costs_hash: 0x3787f0366db46379,
};

/// Same workload under 20 % deterministic fault injection with
/// exponential-backoff retry (the chaos/retry-state path).
const CHAOS: Golden = Golden {
    now_ns: 10000730121,
    stats_hash: 0x453a2f69f6dc7f45,
    ticks_csv_hash: 0x8bceeba883acbc8d,
    ticks_csv_len: 1397,
    events_jsonl_hash: 0xe544ae145910d865,
    events_jsonl_len: 145622,
    placement_hash: 0x7546c0e5be007899,
    promotions: 4,
    demotions: 74,
    costs_hash: 0x0fe329f8eab33035,
};

/// Transactional promotion.
const TXN: Golden = Golden {
    now_ns: 10000853378,
    stats_hash: 0x64ff28d55178ede0,
    ticks_csv_hash: 0x8e9d60627a6bafe9,
    ticks_csv_len: 1368,
    events_jsonl_hash: 0xf9df940625b595ba,
    events_jsonl_len: 122490,
    placement_hash: 0xa5013e768b697b6f,
    promotions: 8,
    demotions: 12,
    costs_hash: 0x397fed393ec36bf4,
};

/// Transactional promotion under the chaos injector.
const TXN_CHAOS: Golden = Golden {
    now_ns: 10000804235,
    stats_hash: 0x45512bbc0a848436,
    ticks_csv_hash: 0x972916ead238f280,
    ticks_csv_len: 1401,
    events_jsonl_hash: 0x29b866eb2336fe15,
    events_jsonl_len: 147456,
    placement_hash: 0x733424c7384d7edb,
    promotions: 4,
    demotions: 74,
    costs_hash: 0xe263e84c6c5d1c0b,
};

/// Eight-page sync batches.
const BATCH8: Golden = Golden {
    now_ns: 10000787718,
    stats_hash: 0x9874a137aed94002,
    ticks_csv_hash: 0xf46888080f7d0f1d,
    ticks_csv_len: 1371,
    events_jsonl_hash: 0x84c246cbebb24404,
    events_jsonl_len: 120347,
    placement_hash: 0x8d98ee3e75062f5d,
    promotions: 8,
    demotions: 12,
    costs_hash: 0x05fdbd6c9086e9e6,
};

/// Eight-page sync batches under the chaos injector.
const BATCH8_CHAOS: Golden = Golden {
    now_ns: 10000725621,
    stats_hash: 0x453a2f69f6dc7f45,
    ticks_csv_hash: 0x8bceeba883acbc8d,
    ticks_csv_len: 1397,
    events_jsonl_hash: 0xe8a43788ba3c6010,
    events_jsonl_len: 145414,
    placement_hash: 0x7546c0e5be007899,
    promotions: 4,
    demotions: 74,
    costs_hash: 0x5709bce78a5fab7d,
};

/// The base run on the dual-socket machine.
const BASE_DUAL: Golden = Golden {
    now_ns: 10000822630,
    stats_hash: 0x9d271da452a0ef96,
    ticks_csv_hash: 0xf5e499d45af81cfd,
    ticks_csv_len: 1379,
    events_jsonl_hash: 0x1f5a9cbaed325cc9,
    events_jsonl_len: 126145,
    placement_hash: 0x8c4dbdf2d29a3916,
    promotions: 8,
    demotions: 32,
    costs_hash: 0x3a07c4b89e1f09f4,
};

/// The dual-socket machine under the chaos injector.
const CHAOS_DUAL: Golden = Golden {
    now_ns: 10000963230,
    stats_hash: 0x948f1bbf87a470d6,
    ticks_csv_hash: 0x4225719efc631472,
    ticks_csv_len: 1431,
    events_jsonl_hash: 0xc10632d1cea4e272,
    events_jsonl_len: 166966,
    placement_hash: 0xd42a646bde29f8e2,
    promotions: 8,
    demotions: 123,
    costs_hash: 0x0f15e759500351cb,
};

#[test]
fn tick_equivalent_engine_matches_pr8_golden() {
    assert_eq!(run(base_cfg()), BASE);
}

#[test]
fn tick_equivalent_engine_matches_pr8_golden_under_fault_injection() {
    let g = run(chaos(base_cfg()));
    assert!(
        g.demotions > BASE.demotions,
        "injector must actually fire for this test to mean anything"
    );
    assert_eq!(g, CHAOS);
}

#[test]
fn every_migration_mode_and_batch_matches_its_golden() {
    for (name, cfg, golden) in pinned() {
        assert!(golden.promotions > 0, "{name} must exercise promotion");
        assert_eq!(run(cfg), golden, "{name}");
    }
}

/// Run once at a known-good commit to (re-)produce the golden
/// constants above. Ignored in normal runs.
#[test]
#[ignore = "golden-capture harness; run manually at a known-good commit"]
fn capture_golden() {
    for (name, cfg, _) in pinned() {
        let g = run(cfg);
        println!("const {name}: Golden = Golden {{");
        println!("    now_ns: {},", g.now_ns);
        println!("    stats_hash: 0x{:016x},", g.stats_hash);
        println!("    ticks_csv_hash: 0x{:016x},", g.ticks_csv_hash);
        println!("    ticks_csv_len: {},", g.ticks_csv_len);
        println!("    events_jsonl_hash: 0x{:016x},", g.events_jsonl_hash);
        println!("    events_jsonl_len: {},", g.events_jsonl_len);
        println!("    placement_hash: 0x{:016x},", g.placement_hash);
        println!("    promotions: {},", g.promotions);
        println!("    demotions: {},", g.demotions);
        println!("    costs_hash: 0x{:016x},", g.costs_hash);
        println!("}};");
    }
}
