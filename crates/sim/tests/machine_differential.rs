//! Differential harness over machine shapes.
//!
//! `MachineDesc` is the only way to build a machine, so there is no second
//! construction to compare the `dram-pm` shape against any more; its
//! numbers are pinned literally in `mc_mem::machine`'s unit tests and its
//! behaviour by the `house` rows of EXPERIMENTS.md. What stays
//! here: an explicit default shape is result-neutral, and the HybridTier
//! determinism contract on a three-tier machine — enabling observability never
//! changes virtual-time results, and the same seed reproduces the same
//! run bit-for-bit.
//!
//! And two tracking-cost claims, as noise-free work counts: HybridTier's
//! sampled sketch reads fewer pages than MULTI-CLOCK's full scan, and the
//! scan is sized by the lists, not by the machine.

mod common;

use common::Fingerprint;
use mc_mem::{MachineDesc, Nanos};
use mc_sim::experiments::house;
use mc_sim::experiments::{Experiment, RunOutcome, Scale};
use mc_sim::{SimConfig, SystemKind};
use mc_workloads::ycsb::YcsbWorkload;

fn run(cfg: SimConfig) -> Fingerprint {
    Fingerprint::of(&house::run(cfg), house::PAGES)
}

#[test]
fn experiment_default_machine_matches_legacy_outcome() {
    let mut scale = Scale::tiny();
    scale.warmup = Nanos::from_millis(400);
    scale.measure = Nanos::from_millis(400);
    let a = || Experiment::ycsb(YcsbWorkload::A, SystemKind::MultiClock, &scale);
    let outcome = a()
        .machine(MachineDesc::dram_pm)
        .run()
        .expect("the scale's footprint fits its machine");
    // The explicit shape is the default one: same machine, same run.
    let default = a().run().expect("the scale's footprint fits its machine");
    assert_eq!(outcome.promotions, default.promotions);
    assert_eq!(outcome.demotions, default.demotions);
    assert_eq!(outcome.costs, default.costs);
    assert!(outcome.promotions > 0, "YCSB-A must promote");
}

/// HybridTier on the three-tier machine: observability is purely a
/// tap — enabling it never changes virtual-time results (the house
/// determinism contract every system honours).
#[test]
fn hybridtier_obs_run_is_bit_identical_on_three_tier_machine() {
    let three_tier_cfg = |obs: bool| {
        let mut cfg = SimConfig::new(SystemKind::HybridTier, 1, 1);
        cfg.mem = MachineDesc::three_tier(48, 64, 512);
        if obs {
            cfg.instrument.obs = mc_sim::ObsConfig::on();
        }
        cfg
    };
    let plain = run(three_tier_cfg(false));
    let observed = run(three_tier_cfg(true));
    assert!(
        plain.promotions > 0,
        "HybridTier must promote on the hot set"
    );
    assert!(plain.ticks_csv.is_empty() && !observed.ticks_csv.is_empty());
    // Everything except the obs artifacts themselves must match.
    assert_eq!(plain.now, observed.now);
    assert_eq!(plain.stats, observed.stats);
    assert_eq!(plain.placement, observed.placement);
    assert_eq!(plain.promotions, observed.promotions);
    assert_eq!(plain.demotions, observed.demotions);
    assert_eq!(plain.costs, observed.costs);
}

/// Same seed, same machine, same workload — the CM-sketch's SplitMix64
/// hashing is seed-deterministic, so back-to-back HybridTier runs are
/// bit-identical.
#[test]
fn hybridtier_runs_are_reproducible() {
    let cfg = || {
        let mut cfg = SimConfig::new(SystemKind::HybridTier, 1, 1);
        cfg.mem = MachineDesc::three_tier(48, 64, 512);
        cfg.instrument.obs = mc_sim::ObsConfig::on();
        cfg
    };
    assert_eq!(run(cfg()), run(cfg()));
}

/// YCSB-A on `Scale::tiny()`'s working set (400 ms warm-up + 400 ms
/// measured) with `pm_pages` of PM, on the machine `shape` arranges.
fn ycsb_a(
    system: SystemKind,
    pm_pages: usize,
    shape: fn(usize, usize) -> MachineDesc,
) -> RunOutcome {
    let mut scale = Scale::tiny();
    scale.pm_pages = pm_pages;
    scale.warmup = Nanos::from_millis(400);
    scale.measure = Nanos::from_millis(400);
    let e = Experiment::ycsb(YcsbWorkload::A, system, &scale).machine(shape);
    e.run().expect("the scale's footprint fits its machine")
}

/// HybridTier's claim (arXiv 2312.04789): sampling a bounded batch per
/// tier into the sketch tracks at a fraction of what the full
/// reference-bit scan reads, on the same machine and workload.
#[test]
fn hybridtier_samples_fewer_pages_than_multi_clock_scans() {
    let three_tier: fn(usize, usize) -> MachineDesc =
        |dram, pm| MachineDesc::three_tier(dram, dram, pm);
    let run = |system| ycsb_a(system, Scale::tiny().pm_pages, three_tier);
    let sampled = run(SystemKind::HybridTier).counter("ht_samples");
    let scanned = run(SystemKind::MultiClock).counter("mc_pages_scanned");
    assert!(sampled > 0 && scanned > 0, "both trackers must have run");
    assert!(
        sampled < scanned,
        "sketch sampling read {sampled} pages, the full scan {scanned}"
    );
}

/// The scan is sized by the lists, not the machine: the same working set
/// on 16x the frames takes the same ticks and scans the same pages (up
/// to where first-touch placement lands them).
#[test]
fn scan_work_follows_the_working_set_not_the_frame_count() {
    // `Scale::tiny()` has 512 DRAM pages.
    let run = |pm_pages| ycsb_a(SystemKind::MultiClock, pm_pages, MachineDesc::dram_pm);
    let (small, large) = (run((1 << 14) - 512), run((1 << 18) - 512));
    assert_eq!(small.counter("mc_ticks"), large.counter("mc_ticks"));
    let (a, b) = (
        small.counter("mc_pages_scanned"),
        large.counter("mc_pages_scanned"),
    );
    assert!(a > 0 && b > 0);
    assert!(
        a.abs_diff(b) * 20 <= a.max(b),
        "pages scanned differ by more than 5 %: {a} vs {b}"
    );
}
