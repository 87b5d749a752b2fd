//! Differential harness for the host-time perf hooks.
//!
//! The contract of `mc_obs::perf`: hooks *observe* the host's monotonic
//! clock at phase boundaries and nothing they read ever flows back into
//! the engine, so a hooks-on run must be bit-identical to a hooks-off run
//! — same virtual time, same `MemStats`, same per-tick CSV, same
//! tracepoint JSONL, same final page placement. That holds under fault
//! injection (the retry path crosses the instrumented migrate-batch
//! boundary), and the hooks must also actually *collect* spans, or the
//! whole layer is a silent no-op. The same holds for the whole instrument
//! bundle on every system: obs, perf hooks and a zero-rate injector
//! together change nothing but the obs artifacts themselves.

mod common;
#[path = "common/house.rs"]
mod house;

use common::Fingerprint;
use mc_mem::Nanos;
use mc_obs::{PerfHooks, Phase};
use mc_sim::experiments::{Experiment, Scale};
use mc_sim::{FaultConfig, InstrumentKnobs, ObsConfig, RetryPolicy, SimConfig, SystemKind};
use mc_workloads::ycsb::YcsbWorkload;

fn run(cfg: SimConfig) -> Fingerprint {
    Fingerprint::of(&house::run(cfg), house::PAGES)
}

fn base_cfg() -> SimConfig {
    let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
    cfg.instrument.obs = mc_sim::ObsConfig::on();
    cfg
}

#[test]
fn perf_hooks_are_bit_identical_to_hooks_off() {
    let off = run(base_cfg());
    let hooks = PerfHooks::new();
    let mut cfg = base_cfg();
    cfg.instrument.perf = Some(hooks.clone());
    let on = run(cfg);
    assert!(off.promotions > 0, "workload must exercise the scanner");
    assert!(
        !off.events_jsonl.is_empty(),
        "obs must be on so the event stream is part of the fingerprint"
    );
    assert_eq!(off, on);
    // And the hooks must have measured something, or the layer is a
    // silent no-op: every tick opened one tick and one scan span,
    // promotions crossed the migrate-batch boundary.
    let profiler = hooks.profiler();
    let ticks = profiler.summary(Phase::Tick);
    assert!(ticks.count > 0, "no tick spans recorded");
    assert_eq!(ticks.count, ticks.items, "one item per tick span");
    assert!(ticks.total_nanos > 0);
    let scan = profiler.summary(Phase::Scan);
    assert!(scan.items > 0, "no pages scanned");
    assert_eq!(scan.count, ticks.count, "one scan span per tick");
    assert_eq!(
        profiler.summary(Phase::Merge).count,
        0,
        "the scan is in place: nothing opens a merge span"
    );
    assert_eq!(
        profiler.summary(Phase::PromoteDrain).items,
        on.promotions,
        "promote-drain items are the promoted pages"
    );
    assert!(
        profiler.summary(Phase::MigrateBatch).items >= on.promotions,
        "every promotion passed through a migrate batch"
    );
}

#[test]
fn perf_hooks_are_bit_identical_under_fault_injection() {
    let chaos_cfg = || {
        let mut cfg = base_cfg();
        cfg.instrument.fault = FaultConfig::rate(7, 0.2);
        cfg.retry = RetryPolicy::backoff();
        cfg
    };
    let off = run(chaos_cfg());
    let hooks = PerfHooks::new();
    let mut cfg = chaos_cfg();
    cfg.instrument.perf = Some(hooks.clone());
    let on = run(cfg);
    assert!(
        off.stats.migration_failures > 0,
        "injector must actually fire for this test to mean anything"
    );
    assert_eq!(off, on);
    assert!(hooks.profiler().summary(Phase::MigrateBatch).count > 0);
}

#[test]
fn instruments_never_perturb_any_system() {
    use SystemKind::*;
    let systems = [
        Static, MultiClock, Nomad, Nimble, HybridTier, AtCpm, AtOpm, AutoNuma, Amp, MemoryMode,
        OracleLru, OracleLfu,
    ];
    for system in systems {
        let off = SimConfig::new(system, 64, 512);
        let mut on = off.clone();
        let hooks = PerfHooks::new();
        on.instrument = InstrumentKnobs {
            obs: ObsConfig::on(),
            fault: FaultConfig::rate(11, 0.0),
            perf: Some(hooks.clone()),
        };
        let on = run(on);
        // The instruments were live: the recorder saw the substrate (which
        // the Memory-mode cache bypasses) and each tick was both sampled
        // and timed.
        let recorded = !on.events_jsonl.is_empty();
        assert!(recorded || system == MemoryMode, "{system:?}: no events");
        assert_eq!(
            on.ticks_csv.lines().count().saturating_sub(1) as u64,
            hooks.profiler().summary(Phase::Tick).count,
            "{system:?}: one sampled row and one span per tick"
        );
        let on = Fingerprint {
            ticks_csv: String::new(),
            events_jsonl: String::new(),
            ..on
        };
        assert_eq!(run(off), on, "{system:?}");
    }
}

#[test]
fn experiment_perf_knob_is_bit_identical_on_ycsb() {
    let mut scale = Scale::tiny();
    scale.warmup = Nanos::from_millis(400);
    scale.measure = Nanos::from_millis(400);
    let mut e = Experiment::ycsb(YcsbWorkload::A, SystemKind::MultiClock, &scale);
    e.cfg.engine.migrate_batch_size = 8;
    let plain = e.clone().run().expect("the footprint fits the machine");
    let hooks = PerfHooks::new();
    e.cfg.instrument.perf = Some(hooks.clone());
    let hooked = e.run().expect("the footprint fits the machine");
    assert!(plain.promotions > 0, "YCSB-A must promote");
    assert_eq!(plain.ops_per_sec, hooked.ops_per_sec);
    assert_eq!(plain.promotions, hooked.promotions);
    assert_eq!(plain.demotions, hooked.demotions);
    assert_eq!(plain.p50, hooked.p50);
    assert_eq!(plain.p99, hooked.p99);
    assert_eq!(plain.costs, hooked.costs);
    let ticks = hooks.profiler().summary(Phase::Tick);
    assert!(ticks.count > 0 && ticks.per_sec() > 0.0);
}
