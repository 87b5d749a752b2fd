//! Cross-crate integration tests: full workloads over the full engine,
//! asserting the paper's qualitative results hold end to end.

use mc_mem::Nanos;
use mc_sim::experiments::{Experiment, RunOutcome, Scale};
use mc_sim::{Simulation, SystemKind};
use mc_workloads::graph::Kernel;
use mc_workloads::ycsb::{YcsbClient, YcsbConfig, YcsbWorkload};
use mc_workloads::Memory;

fn scale() -> Scale {
    Scale::tiny()
}

fn run_ycsb(system: SystemKind, workload: YcsbWorkload, s: &Scale, interval: Nanos) -> RunOutcome {
    Experiment::ycsb(workload, system, s)
        .interval(interval)
        .run()
        .expect("the scale's footprint fits its machine")
}

/// YCSB-A throughput of `system` at `s` with the op stream drawn from
/// `seed` rather than [`Scale::SEED`]: `Experiment::ycsb`'s machine and
/// driver over a client built by hand.
fn ycsb_a_seeded(system: SystemKind, s: &Scale, seed: u64) -> f64 {
    let mut sim = Simulation::new(Experiment::ycsb(YcsbWorkload::A, system, s).cfg);
    let cfg = YcsbConfig {
        records: s.records,
        value_size: Scale::VALUE_SIZE,
        op_compute: Scale::OP_COMPUTE,
        insert_scale: Scale::INSERT_SCALE,
        seed,
    };
    let mut client = YcsbClient::load(cfg, &mut sim);
    let warm_end = sim.now() + s.warmup;
    while sim.now() < warm_end {
        client.run_op(YcsbWorkload::A, &mut sim);
    }
    let t0 = sim.now();
    let mut ops = 0u64;
    while sim.now() < t0 + s.measure {
        client.run_op(YcsbWorkload::A, &mut sim);
        ops += 1;
    }
    ops as f64 / (sim.now() - t0).as_secs_f64()
}

fn run_gapbs(system: SystemKind, kernel: Kernel, s: &Scale, interval: Nanos) -> RunOutcome {
    Experiment::gapbs(kernel, system, s)
        .interval(interval)
        .run()
        .expect("the scale's footprint fits its machine")
}

#[test]
fn multi_clock_beats_static_on_ycsb_a() {
    let s = scale();
    let stat = run_ycsb(SystemKind::Static, YcsbWorkload::A, &s, s.scan_interval());
    let mc = run_ycsb(
        SystemKind::MultiClock,
        YcsbWorkload::A,
        &s,
        s.scan_interval(),
    );
    assert!(
        mc.ops_per_sec > stat.ops_per_sec * 1.10,
        "paper: MULTI-CLOCK beats static by 20-132%; got {:.0} vs {:.0}",
        mc.ops_per_sec,
        stat.ops_per_sec
    );
}

#[test]
fn multi_clock_beats_nimble_on_ycsb_a() {
    let s = scale();
    let nim = run_ycsb(SystemKind::Nimble, YcsbWorkload::A, &s, s.scan_interval());
    let mc = run_ycsb(
        SystemKind::MultiClock,
        YcsbWorkload::A,
        &s,
        s.scan_interval(),
    );
    assert!(
        mc.ops_per_sec > nim.ops_per_sec,
        "paper: MULTI-CLOCK beats Nimble by 9-36%; got {:.0} vs {:.0}",
        mc.ops_per_sec,
        nim.ops_per_sec
    );
}

#[test]
fn at_cpm_is_far_below_static() {
    let s = scale();
    let stat = run_ycsb(SystemKind::Static, YcsbWorkload::A, &s, s.scan_interval());
    let cpm = run_ycsb(SystemKind::AtCpm, YcsbWorkload::A, &s, s.scan_interval());
    assert!(
        cpm.ops_per_sec < stat.ops_per_sec * 0.6,
        "paper: AT-CPM loses 260-677% to MULTI-CLOCK (far below static); got {:.0} vs {:.0}",
        cpm.ops_per_sec,
        stat.ops_per_sec
    );
    assert!(
        cpm.costs.hint_faults > 0,
        "CPM must be paying for hint faults"
    );
}

#[test]
fn at_opm_sits_between_cpm_and_multi_clock() {
    let s = scale();
    let cpm = run_ycsb(SystemKind::AtCpm, YcsbWorkload::A, &s, s.scan_interval());
    let opm = run_ycsb(SystemKind::AtOpm, YcsbWorkload::A, &s, s.scan_interval());
    let mc = run_ycsb(
        SystemKind::MultiClock,
        YcsbWorkload::A,
        &s,
        s.scan_interval(),
    );
    assert!(opm.ops_per_sec > cpm.ops_per_sec, "OPM beats CPM");
    assert!(mc.ops_per_sec > opm.ops_per_sec, "MULTI-CLOCK beats OPM");
}

#[test]
fn multi_clock_dram_share_exceeds_static() {
    let s = scale();
    let stat = run_ycsb(SystemKind::Static, YcsbWorkload::A, &s, s.scan_interval());
    let mc = run_ycsb(
        SystemKind::MultiClock,
        YcsbWorkload::A,
        &s,
        s.scan_interval(),
    );
    let (a, b) = (
        stat.top_tier_share.expect("accesses happened"),
        mc.top_tier_share.expect("accesses happened"),
    );
    assert!(
        b > a + 0.10,
        "hot set must concentrate in DRAM: {b:.2} vs {a:.2}"
    );
}

#[test]
fn reaccess_rate_of_multi_clock_promotions_is_higher_than_nimbles() {
    // The Fig. 9 claim: MULTI-CLOCK promotes fewer but better pages.
    let s = scale();
    let mc = run_ycsb(
        SystemKind::MultiClock,
        YcsbWorkload::A,
        &s,
        s.scan_interval(),
    );
    let nim = run_ycsb(SystemKind::Nimble, YcsbWorkload::A, &s, s.scan_interval());
    let (m, n) = (
        mc.reaccess_pct.expect("MC promoted pages"),
        nim.reaccess_pct.expect("Nimble promoted pages"),
    );
    assert!(m > n, "MC re-access {m:.1}% must exceed Nimble {n:.1}%");
}

#[test]
fn memory_mode_and_multi_clock_are_competitive() {
    // Fig. 7: MULTI-CLOCK within a small margin of Memory-mode on YCSB.
    let s = scale().memory_mode();
    let mm = run_ycsb(
        SystemKind::MemoryMode,
        YcsbWorkload::C,
        &s,
        s.scan_interval(),
    );
    let mc = run_ycsb(
        SystemKind::MultiClock,
        YcsbWorkload::C,
        &s,
        s.scan_interval(),
    );
    let ratio = mc.ops_per_sec / mm.ops_per_sec;
    assert!(
        (0.8..=1.3).contains(&ratio),
        "paper: within -2%..+9%; got ratio {ratio:.2}"
    );
}

#[test]
fn gapbs_static_is_competitive_and_multi_clock_never_collapses() {
    // Fig. 6: GAPBS gains are small; MULTI-CLOCK must never be much worse
    // than static on any kernel.
    let s = scale();
    for kernel in [Kernel::Bfs, Kernel::Pr, Kernel::Cc] {
        let stat = run_gapbs(SystemKind::Static, kernel, &s, s.scan_interval());
        let mc = run_gapbs(SystemKind::MultiClock, kernel, &s, s.scan_interval());
        let norm = mc.trial_time.as_nanos() as f64 / stat.trial_time.as_nanos() as f64;
        assert!(
            norm < 1.15,
            "{}: MULTI-CLOCK must stay within 15% of static, got {norm:.2}",
            kernel.label()
        );
    }
}

#[test]
fn one_second_interval_beats_sixty_seconds() {
    // Fig. 10's right edge: a 60 s interval reacts too slowly to help.
    let s = scale();
    let at_1s = run_ycsb(
        SystemKind::MultiClock,
        YcsbWorkload::A,
        &s,
        s.paper_interval(1.0),
    );
    let at_60s = run_ycsb(
        SystemKind::MultiClock,
        YcsbWorkload::A,
        &s,
        s.paper_interval(60.0),
    );
    assert!(at_1s.ops_per_sec > at_60s.ops_per_sec);
    assert!(at_60s.promotions < at_1s.promotions);
}

#[test]
fn headline_result_is_seed_stable() {
    // The MC > static ordering must not be an artifact of one RNG stream.
    for seed in [7u64, 1234, 987654] {
        let s = scale();
        let stat = ycsb_a_seeded(SystemKind::Static, &s, seed);
        let mc = ycsb_a_seeded(SystemKind::MultiClock, &s, seed);
        assert!(
            mc > stat * 1.05,
            "seed {seed}: MC {mc:.0} vs static {stat:.0}"
        );
    }
}

#[test]
fn determinism_same_seed_same_result() {
    let s = scale();
    let a = run_ycsb(
        SystemKind::MultiClock,
        YcsbWorkload::B,
        &s,
        s.scan_interval(),
    );
    let b = run_ycsb(
        SystemKind::MultiClock,
        YcsbWorkload::B,
        &s,
        s.scan_interval(),
    );
    assert_eq!(a.ops_per_sec, b.ops_per_sec);
    assert_eq!(a.promotions, b.promotions);
    assert_eq!(a.demotions, b.demotions);
}

#[test]
fn workload_w_writes_suffer_most_in_pm_so_tiering_pays_off() {
    // W is 100% writes; PM write bandwidth is the worst case, so the gap
    // between static and MULTI-CLOCK should be at least as large as on
    // the read-only workload C.
    let s = scale();
    let gain = |w: YcsbWorkload| {
        let stat = run_ycsb(SystemKind::Static, w, &s, s.scan_interval());
        let mc = run_ycsb(SystemKind::MultiClock, w, &s, s.scan_interval());
        mc.ops_per_sec / stat.ops_per_sec
    };
    let w = gain(YcsbWorkload::W);
    assert!(w > 1.05, "W gain {w:.2} must be material");
}
