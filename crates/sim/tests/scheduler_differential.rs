//! Golden fingerprints for the daemon's tick schedule.
//!
//! The tick-equivalence contract (DESIGN.md §17): however the engine
//! decides when the tiering daemon runs, a run must stay *bit-identical*
//! to the PR 8 fixed-period engine — same virtual time, same `MemStats`,
//! same per-tick CSV, same tracepoint JSONL, same final page placement,
//! same cost ledger. The first two constants below were captured by
//! running this exact workload against that engine (commit `6c0390e`, the
//! PR 8 head) via the `capture_golden` harness, plain and under 20 %
//! fault injection (the retry/backoff chaos path); every engine since is
//! held to them.
//!
//! Four more constants pin the migration paths that workload does not
//! take by default — transactional promotion and eight-page sync batches,
//! each plain and under the same fault injection — captured the same way
//! at the PR 13 head (`30c1061`), before the substrate's five migration
//! entry points became `migrate_pages`.
//!
//! If a *deliberate* behavior change ever invalidates these constants,
//! re-run `cargo test -p mc-sim --test scheduler_differential -- \
//! --ignored --nocapture` at the last-good commit and re-pin.

use mc_mem::{Memory, MigrationMode, Nanos, PageKind, PAGE_SIZE};
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
    let a = s.mmap(PAGE_SIZE as usize * PAGES as usize, PageKind::Anon);
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
    cfg.engine.scan_shards = 4;
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

/// Every pinned configuration, by the name of its constant.
fn pinned() -> [(&'static str, SimConfig, Golden); 6] {
    [
        ("BASE", base_cfg(), BASE),
        ("CHAOS", chaos(base_cfg()), CHAOS),
        ("TXN", txn_cfg(), TXN),
        ("TXN_CHAOS", chaos(txn_cfg()), TXN_CHAOS),
        ("BATCH8", batch8_cfg(), BATCH8),
        ("BATCH8_CHAOS", chaos(batch8_cfg()), BATCH8_CHAOS),
    ]
}

/// Golden fingerprints captured at the PR 8 head (`6c0390e`) with the
/// fixed-period `maybe_tick` engine, obs artifacts on, 4 scan shards.
const BASE: Golden = Golden {
    now_ns: 10000793632,
    stats_hash: 0xba491d237158830d,
    ticks_csv_hash: 0x208ec5b414964a52,
    ticks_csv_len: 1372,
    events_jsonl_hash: 0xf8a930886b3cf2b2,
    events_jsonl_len: 129563,
    placement_hash: 0x1f8b5c5bcc0ff3e0,
    promotions: 8,
    demotions: 12,
    costs_hash: 0x32858a986086df3f,
};

/// Same workload under 20 % deterministic fault injection with
/// exponential-backoff retry (the chaos/retry-state path).
const CHAOS: Golden = Golden {
    now_ns: 10000889129,
    stats_hash: 0xe1f6a09f5a7842e8,
    ticks_csv_hash: 0x2ed06efadf819165,
    ticks_csv_len: 1404,
    events_jsonl_hash: 0x33ca3fc08cb5837a,
    events_jsonl_len: 156298,
    placement_hash: 0x6d6889de030551bb,
    promotions: 8,
    demotions: 77,
    costs_hash: 0xb413a664942debeb,
};

/// Transactional promotion (PR 13 head, `30c1061`).
const TXN: Golden = Golden {
    now_ns: 10000853292,
    stats_hash: 0xa777c0bc8c92c6a9,
    ticks_csv_hash: 0x6cefea38a23dc8ca,
    ticks_csv_len: 1369,
    events_jsonl_hash: 0x1504d95384c9d377,
    events_jsonl_len: 131528,
    placement_hash: 0xc6c52d7c949c5c71,
    promotions: 8,
    demotions: 12,
    costs_hash: 0x37dd092fa122a9d0,
};

/// Transactional promotion under the chaos injector (`30c1061`).
const TXN_CHAOS: Golden = Golden {
    now_ns: 10000966445,
    stats_hash: 0xc693e2b22a380efc,
    ticks_csv_hash: 0x2888e84910f2bfaa,
    ticks_csv_len: 1401,
    events_jsonl_hash: 0x4d5cad70d14ae199,
    events_jsonl_len: 159001,
    placement_hash: 0x9e6dd04424ee468d,
    promotions: 8,
    demotions: 77,
    costs_hash: 0x23f640afd7ecf11a,
};

/// Eight-page sync batches (`30c1061`).
const BATCH8: Golden = Golden {
    now_ns: 10000790632,
    stats_hash: 0xba491d237158830d,
    ticks_csv_hash: 0x208ec5b414964a52,
    ticks_csv_len: 1372,
    events_jsonl_hash: 0xcd3e354560284760,
    events_jsonl_len: 129481,
    placement_hash: 0x1f8b5c5bcc0ff3e0,
    promotions: 8,
    demotions: 12,
    costs_hash: 0xcb3e004aa9600238,
};

/// Eight-page sync batches under the chaos injector (`30c1061`).
const BATCH8_CHAOS: Golden = Golden {
    now_ns: 10000884629,
    stats_hash: 0xe1f6a09f5a7842e8,
    ticks_csv_hash: 0x2ed06efadf819165,
    ticks_csv_len: 1404,
    events_jsonl_hash: 0xb947c8d06db8dd6a,
    events_jsonl_len: 156107,
    placement_hash: 0x6d6889de030551bb,
    promotions: 8,
    demotions: 77,
    costs_hash: 0xf2116c8ad302a894,
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
