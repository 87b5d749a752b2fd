//! Golden fingerprints for the daemon's tick schedule.
//!
//! The tick-equivalence contract (DESIGN.md §17): however the engine
//! decides when the tiering daemon runs, a run must stay *bit-identical*
//! to the engine that produced these constants — same virtual time, same
//! `MemStats`, same per-tick CSV, same tracepoint JSONL, same final page
//! placement, same cost ledger.
//!
//! The eight MULTI-CLOCK constants were captured at `fce0550`, the last
//! commit that had the scan-shards-per-node knob, by setting it to 1
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
//! The other eighteen pin every other system with a `TieringPolicy` on the
//! same workload, on the default machine and, as `*_SMALL`, on
//! `dram_pm(32, 128)`, whose 160 frames make the lowest tier evict. Every
//! one but Static must promote, and every `*_SMALL` run must evict. They are
//! the tier-1 check on the mechanics the baselines share (`mc-policies`'
//! private `ring` module): exchange promotion, demotion, the reclaim loop
//! and the pressure sweep.
//!
//! If a *deliberate* behavior change ever invalidates these constants,
//! re-run the command above at the last-good commit and re-pin.

mod common;
#[path = "common/house.rs"]
mod house;

use common::Fingerprint;
use mc_mem::{MachineDesc, MigrationMode};
use mc_sim::{FaultConfig, RetryPolicy, SimConfig, SystemKind};

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

/// A [`Fingerprint`] digested to pin-able integers.
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

impl Golden {
    fn of(f: &Fingerprint) -> Golden {
        Golden {
            now_ns: f.now.as_nanos(),
            stats_hash: fnv1a(format!("{:?}", f.stats).as_bytes()),
            ticks_csv_hash: fnv1a(f.ticks_csv.as_bytes()),
            ticks_csv_len: f.ticks_csv.len(),
            events_jsonl_hash: fnv1a(f.events_jsonl.as_bytes()),
            events_jsonl_len: f.events_jsonl.len(),
            placement_hash: fnv1a(format!("{:?}", f.placement).as_bytes()),
            promotions: f.promotions,
            demotions: f.demotions,
            costs_hash: fnv1a(format!("{:?}", f.costs).as_bytes()),
        }
    }
}

fn run(cfg: SimConfig) -> Golden {
    Golden::of(&Fingerprint::of(&house::run(cfg), house::PAGES))
}

fn base_cfg() -> SimConfig {
    let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
    cfg.instrument.obs = mc_sim::ObsConfig::on();
    cfg
}

/// 20 % deterministic fault injection with exponential-backoff retry.
fn chaos(mut cfg: SimConfig) -> SimConfig {
    cfg.instrument.fault = FaultConfig::rate(7, 0.2);
    cfg.engine.retry = RetryPolicy::Backoff;
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

/// A comparison system on the default machine.
fn baseline(system: SystemKind) -> SimConfig {
    let mut cfg = base_cfg();
    cfg.system = system;
    cfg
}

/// 160 frames under the 192 pages: the lowest tier has to evict.
fn small(mut cfg: SimConfig) -> SimConfig {
    cfg.mem = MachineDesc::dram_pm(32, 128);
    cfg
}

/// Every pinned configuration, by the name of its constant.
fn pinned() -> Vec<(&'static str, SimConfig, Golden)> {
    use SystemKind::*;
    vec![
        ("BASE", base_cfg(), BASE),
        ("CHAOS", chaos(base_cfg()), CHAOS),
        ("TXN", txn_cfg(), TXN),
        ("TXN_CHAOS", chaos(txn_cfg()), TXN_CHAOS),
        ("BATCH8", batch8_cfg(), BATCH8),
        ("BATCH8_CHAOS", chaos(batch8_cfg()), BATCH8_CHAOS),
        ("BASE_DUAL", dual_cfg(), BASE_DUAL),
        ("CHAOS_DUAL", chaos(dual_cfg()), CHAOS_DUAL),
        ("STATIC", baseline(Static), STATIC),
        ("STATIC_SMALL", small(baseline(Static)), STATIC_SMALL),
        ("NIMBLE", baseline(Nimble), NIMBLE),
        ("NIMBLE_SMALL", small(baseline(Nimble)), NIMBLE_SMALL),
        ("HYBRIDTIER", baseline(HybridTier), HYBRIDTIER),
        (
            "HYBRIDTIER_SMALL",
            small(baseline(HybridTier)),
            HYBRIDTIER_SMALL,
        ),
        ("AT_CPM", baseline(AtCpm), AT_CPM),
        ("AT_CPM_SMALL", small(baseline(AtCpm)), AT_CPM_SMALL),
        ("AT_OPM", baseline(AtOpm), AT_OPM),
        ("AT_OPM_SMALL", small(baseline(AtOpm)), AT_OPM_SMALL),
        ("AUTONUMA", baseline(AutoNuma), AUTONUMA),
        ("AUTONUMA_SMALL", small(baseline(AutoNuma)), AUTONUMA_SMALL),
        ("AMP", baseline(Amp), AMP),
        ("AMP_SMALL", small(baseline(Amp)), AMP_SMALL),
        ("ORACLE_LRU", baseline(OracleLru), ORACLE_LRU),
        (
            "ORACLE_LRU_SMALL",
            small(baseline(OracleLru)),
            ORACLE_LRU_SMALL,
        ),
        ("ORACLE_LFU", baseline(OracleLfu), ORACLE_LFU),
        (
            "ORACLE_LFU_SMALL",
            small(baseline(OracleLfu)),
            ORACLE_LFU_SMALL,
        ),
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

// The comparison systems, captured at the parent of the commit that moved
// their shared mechanics into `mc-policies`' private `ring` module. Each
// runs on the default machine and, as `*_SMALL`, on `dram_pm(32, 128)`.
// `ORACLE_LRU_SMALL`, `ORACLE_LFU` and `ORACLE_LFU_SMALL` were re-pinned
// when the oracles took AMP's selection rules: no zero-score candidate,
// victims ranked once per tick, and a reclaim that stops at the first
// demotion the lower tier refuses instead of evicting from the top tier.
const STATIC: Golden = Golden {
    now_ns: 10001164012,
    stats_hash: 0xf48d91e9431a2a4a,
    ticks_csv_hash: 0x3c4655779ca8a494,
    ticks_csv_len: 6,
    events_jsonl_hash: 0x88c7c4a46f2a4fc2,
    events_jsonl_len: 11313,
    placement_hash: 0x42491a26bdb67395,
    promotions: 0,
    demotions: 0,
    costs_hash: 0xca14dbdce5b562c0,
};
const STATIC_SMALL: Golden = Golden {
    now_ns: 10004651667,
    stats_hash: 0x353025d08af5f766,
    ticks_csv_hash: 0x3c4655779ca8a494,
    ticks_csv_len: 6,
    events_jsonl_hash: 0x2747f9760e03dc3f,
    events_jsonl_len: 75645,
    placement_hash: 0xdd64e0b6044690d2,
    promotions: 0,
    demotions: 0,
    costs_hash: 0xbb160c660770a0c7,
};
const NIMBLE: Golden = Golden {
    now_ns: 10001295856,
    stats_hash: 0xea995774ed039592,
    ticks_csv_hash: 0x22d0b4f5d3a39b5a,
    ticks_csv_len: 789,
    events_jsonl_hash: 0x23393c6cde5e945c,
    events_jsonl_len: 69948,
    placement_hash: 0xf0fb39bdee98f889,
    promotions: 143,
    demotions: 148,
    costs_hash: 0xc969b77bfa1042be,
};
const NIMBLE_SMALL: Golden = Golden {
    now_ns: 10004560232,
    stats_hash: 0x2f073a12520fdca5,
    ticks_csv_hash: 0x0a914e992a393d29,
    ticks_csv_len: 835,
    events_jsonl_hash: 0xc3d371946248355d,
    events_jsonl_len: 197871,
    placement_hash: 0x1b9155c5ade18717,
    promotions: 14,
    demotions: 139,
    costs_hash: 0xa8f9300c0be1b749,
};
const HYBRIDTIER: Golden = Golden {
    now_ns: 10000822208,
    stats_hash: 0xcc5d8b23c0051498,
    ticks_csv_hash: 0xe650ef340dac54f7,
    ticks_csv_len: 892,
    events_jsonl_hash: 0xd43f2b6ccdac1958,
    events_jsonl_len: 26235,
    placement_hash: 0x0dab25279864882c,
    promotions: 42,
    demotions: 47,
    costs_hash: 0xba7e2ebd6f1d01a9,
};
const HYBRIDTIER_SMALL: Golden = Golden {
    now_ns: 10004381980,
    stats_hash: 0xb9c8da198218b573,
    ticks_csv_hash: 0xe690c52731f2d2f5,
    ticks_csv_len: 962,
    events_jsonl_hash: 0x5ffef365480873fa,
    events_jsonl_len: 144479,
    placement_hash: 0xf2847f24dd1fac16,
    promotions: 17,
    demotions: 127,
    costs_hash: 0x4f5816b46820cae8,
};
const AT_CPM: Golden = Golden {
    now_ns: 10005119770,
    stats_hash: 0x6eb0d88192034540,
    ticks_csv_hash: 0xcae1e433e8eef15e,
    ticks_csv_len: 800,
    events_jsonl_hash: 0x6fff26982eb79be9,
    events_jsonl_len: 174830,
    placement_hash: 0xddf0041faa40df05,
    promotions: 371,
    demotions: 376,
    costs_hash: 0xffd11073eb68f0af,
};
const AT_CPM_SMALL: Golden = Golden {
    now_ns: 10004738750,
    stats_hash: 0x7b4b65832c2e1a75,
    ticks_csv_hash: 0x9f3ed99614e166e7,
    ticks_csv_len: 834,
    events_jsonl_hash: 0xa7ee0cf56a2471e3,
    events_jsonl_len: 1241580,
    placement_hash: 0x9c87a6b49e39979f,
    promotions: 51,
    demotions: 167,
    costs_hash: 0x9e94272049cf8d80,
};
const AT_OPM: Golden = Golden {
    now_ns: 10001498048,
    stats_hash: 0x3703cdb9c274dc5b,
    ticks_csv_hash: 0x720be4dd7defecb1,
    ticks_csv_len: 772,
    events_jsonl_hash: 0x02569335fa2d8ab2,
    events_jsonl_len: 84519,
    placement_hash: 0xfaa6c6c75b3cd411,
    promotions: 93,
    demotions: 98,
    costs_hash: 0x6b244637297239a1,
};
const AT_OPM_SMALL: Golden = Golden {
    now_ns: 10004235136,
    stats_hash: 0xaa7578b680f3891c,
    ticks_csv_hash: 0xed7437829abd4066,
    ticks_csv_len: 804,
    events_jsonl_hash: 0x2bbd566640c21bf2,
    events_jsonl_len: 106406,
    placement_hash: 0x854997a172209295,
    promotions: 12,
    demotions: 145,
    costs_hash: 0xa980b362dee45ae9,
};
const AUTONUMA: Golden = Golden {
    now_ns: 10001327836,
    stats_hash: 0x587f4f82d934dfa2,
    ticks_csv_hash: 0x9bb8ed9efa98e577,
    ticks_csv_len: 750,
    events_jsonl_hash: 0x7b82c889efa4ea84,
    events_jsonl_len: 74082,
    placement_hash: 0x787f2c8bef07e32f,
    promotions: 45,
    demotions: 50,
    costs_hash: 0xeeb445c587ea31b6,
};
const AUTONUMA_SMALL: Golden = Golden {
    now_ns: 10004453380,
    stats_hash: 0x465e7a3326ef7e1c,
    ticks_csv_hash: 0xd185afbd47f5aa98,
    ticks_csv_len: 795,
    events_jsonl_hash: 0x99e643f3f6fe0209,
    events_jsonl_len: 106512,
    placement_hash: 0x4bc9bea91ec24a18,
    promotions: 17,
    demotions: 130,
    costs_hash: 0x36f8e6ec30f56e54,
};
const AMP: Golden = Golden {
    now_ns: 10001739576,
    stats_hash: 0x6cba3c7e45c71f14,
    ticks_csv_hash: 0x33232bd555ce7611,
    ticks_csv_len: 671,
    events_jsonl_hash: 0xd986dbd8ea12df7b,
    events_jsonl_len: 148434,
    placement_hash: 0xadfa72ca0ca85274,
    promotions: 377,
    demotions: 382,
    costs_hash: 0x891832d9b2c13777,
};
const AMP_SMALL: Golden = Golden {
    now_ns: 10003533270,
    stats_hash: 0xbe5fdf1582812f62,
    ticks_csv_hash: 0x0405b6b6678b93fb,
    ticks_csv_len: 700,
    events_jsonl_hash: 0x4af12cee8ff9148f,
    events_jsonl_len: 125422,
    placement_hash: 0x352dd11b3994a99e,
    promotions: 152,
    demotions: 254,
    costs_hash: 0x6ff0d26d73fc1716,
};
const ORACLE_LRU: Golden = Golden {
    now_ns: 10001709984,
    stats_hash: 0x68e8a7f2e6d40217,
    ticks_csv_hash: 0x56bea6528e927102,
    ticks_csv_len: 671,
    events_jsonl_hash: 0xf59ff794c1dcd948,
    events_jsonl_len: 151448,
    placement_hash: 0x2f27843ca5614f05,
    promotions: 385,
    demotions: 390,
    costs_hash: 0x28aceb47352bb1ce,
};
const ORACLE_LRU_SMALL: Golden = Golden {
    now_ns: 10004705896,
    stats_hash: 0xb7c8f34b7143d0e0,
    ticks_csv_hash: 0xe4c005020d1ddbeb,
    ticks_csv_len: 695,
    events_jsonl_hash: 0x69c9cc297146e7c8,
    events_jsonl_len: 137070,
    placement_hash: 0x1cb51094bbfb1253,
    promotions: 106,
    demotions: 247,
    costs_hash: 0xafb4bf77d5658e7c,
};
const ORACLE_LFU: Golden = Golden {
    now_ns: 10001551000,
    stats_hash: 0xeb99e1f9149cd02c,
    ticks_csv_hash: 0xbdae497f663bf40e,
    ticks_csv_len: 667,
    events_jsonl_hash: 0x48b239664b9826f1,
    events_jsonl_len: 131375,
    placement_hash: 0xf173282cb598e1e9,
    promotions: 333,
    demotions: 338,
    costs_hash: 0x17c7e6ada5ecc8dc,
};
const ORACLE_LFU_SMALL: Golden = Golden {
    now_ns: 10003262452,
    stats_hash: 0xac0b0428ca4fb9d8,
    ticks_csv_hash: 0x2750e13583c4e888,
    ticks_csv_len: 692,
    events_jsonl_hash: 0x980371971b599efd,
    events_jsonl_len: 105594,
    placement_hash: 0xfe7a60542335ed56,
    promotions: 101,
    demotions: 197,
    costs_hash: 0x477eb1029d55331b,
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

/// Every pinned run, all compared before failing, so a change names each
/// configuration it moves.
#[test]
fn every_migration_mode_and_batch_matches_its_golden() {
    let mut moved = Vec::new();
    for (name, cfg, golden) in pinned() {
        let s = house::run(cfg);
        assert!(s.error().is_none(), "{name} latched {:?}", s.error());
        let evictions = s.mem().stats().evictions;
        if name.ends_with("_SMALL") {
            assert!(evictions > 0, "{name} must evict from the lowest tier");
        }
        if name.starts_with("STATIC") {
            assert_eq!(golden.promotions, 0, "{name} never migrates");
        } else {
            assert!(golden.promotions > 0, "{name} must exercise promotion");
        }
        let got = Golden::of(&Fingerprint::of(&s, house::PAGES));
        if got != golden {
            eprintln!("{name}: got {got:?}\n{name}: pinned {golden:?}");
            moved.push(name);
        }
    }
    assert!(
        moved.is_empty(),
        "runs that differ from their goldens: {moved:?}"
    );
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
