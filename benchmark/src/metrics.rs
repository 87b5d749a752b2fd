//! The metrics the benchmark declares (mirrored in `BENCHMARK.json`; a
//! unit test keeps the two in step), how they are computed from the cells
//! of a run, and the result line a run prints.

use crate::run::{CellOut, FlatRun};
use crate::stats::{highest_supported_percentile, median, Better, Bound};
use mc_obs::Phase;
use mc_sim::SystemKind;

/// One end-to-end metric, measured with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    /// Absolute slack `--selfcheck` adds for values too small for a
    /// share to mean anything (0 = none).
    pub floor: f64,
}

impl EndToEnd {
    /// Simulated results: a function of the seed alone.
    pub fn is_simulated(&self) -> bool {
        self.name.starts_with("sim_")
    }

    /// The bound two sets of runs of the same code and seed must meet.
    pub fn selfcheck_bound(&self) -> Bound {
        if self.is_simulated() {
            Bound::Exact
        } else if self.floor > 0.0 {
            Bound::RelativeOrFloor {
                rel: self.bound,
                floor: self.floor,
            }
        } else {
            Bound::Relative(self.bound)
        }
    }
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "host_accesses_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        floor: 8.0,
    },
    EndToEnd {
        name: "sim_ns_per_access",
        unit: "ns",
        better: Better::Lower,
        bound: 0.03,
        floor: 0.0,
    },
    EndToEnd {
        name: "sim_fast_tier_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.06,
        floor: 0.0,
    },
];

/// Labels of the `policies.<label>.*` metrics, in
/// `SystemKind::TIERED_COMPARISON` order.
const POLICY_LABELS: [&str; 7] = [
    "static",
    "multi-clock",
    "nomad",
    "nimble",
    "hybridtier",
    "at-cpm",
    "at-opm",
];

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// Per-layer metrics (traced run and isolation passes), layer = crate.
pub const PER_LAYER: [(&str, &str, Better); 81] = [
    ("workloads.ops", "count", L),
    ("workloads.mem_calls", "count", L),
    ("workloads.touches", "count", L),
    ("workloads.self_s", "s", L),
    ("workloads.self_share", "share", L),
    ("workloads.gen_only_s", "s", L),
    ("sim.call_s", "s", L),
    ("sim.access_self_s", "s", L),
    ("sim.access_self_share", "share", L),
    ("sim.access_self_ns_per_touch", "ns", L),
    ("sim.call_p50_ns", "ns", L),
    ("sim.call_p999_ns", "ns", L),
    ("sim.virt_call_p50_ns", "ns", L),
    ("sim.virt_call_p999_ns", "ns", L),
    ("sim.replay_ns_per_touch", "ns", L),
    ("sim.ticks", "count", L),
    ("sim.minor_faults", "count", L),
    ("sim.hint_faults", "count", L),
    ("sim.virt_stall_share", "share", L),
    ("sim.virt_daemon_share", "share", L),
    ("sim.virt_background_share", "share", L),
    ("mem.bare_access_ns", "ns", L),
    ("mem.migrate_batch_s", "s", L),
    ("mem.reads", "count", L),
    ("mem.writes", "count", L),
    ("mem.allocs", "count", L),
    ("mem.promotions", "count", L),
    ("mem.demotions", "count", L),
    ("mem.evictions", "count", L),
    ("mem.migration_failures", "count", L),
    ("mem.txn_begins", "count", L),
    ("mem.txn_commits", "count", H),
    ("mem.txn_aborts", "count", L),
    ("mem.shadow_hits", "count", H),
    ("mem.shadow_invalidations", "count", L),
    ("mem.txn_abort_ratio", "ratio", L),
    ("mem.shadow_hit_ratio", "ratio", H),
    ("core.tick_s", "s", L),
    ("core.tick_share", "share", L),
    ("core.scan_s", "s", L),
    ("core.merge_s", "s", L),
    ("core.promote_drain_s", "s", L),
    ("core.pressure_s", "s", L),
    ("core.tick_self_s", "s", L),
    ("core.tick_p50_us", "us", L),
    ("core.tick_tail_us", "us", L),
    ("core.pages_scanned", "count", L),
    ("core.scan_ns_per_page", "ns", L),
    ("core.promote_enqueues", "count", L),
    ("core.promotions", "count", L),
    ("core.promote_retries", "count", L),
    ("core.promote_gave_ups", "count", L),
    ("core.promote_yield", "ratio", H),
    ("core.reaccess_pct", "%", H),
    ("clock.list_cycle_ns", "ns", L),
    ("policies.static.host_s", "s", L),
    ("policies.static.host_ns_per_touch", "ns", L),
    ("policies.static.speedup_vs_static", "ratio", H),
    ("policies.multi-clock.host_s", "s", L),
    ("policies.multi-clock.host_ns_per_touch", "ns", L),
    ("policies.multi-clock.speedup_vs_static", "ratio", H),
    ("policies.nomad.host_s", "s", L),
    ("policies.nomad.host_ns_per_touch", "ns", L),
    ("policies.nomad.speedup_vs_static", "ratio", H),
    ("policies.nimble.host_s", "s", L),
    ("policies.nimble.host_ns_per_touch", "ns", L),
    ("policies.nimble.speedup_vs_static", "ratio", H),
    ("policies.hybridtier.host_s", "s", L),
    ("policies.hybridtier.host_ns_per_touch", "ns", L),
    ("policies.hybridtier.speedup_vs_static", "ratio", H),
    ("policies.at-cpm.host_s", "s", L),
    ("policies.at-cpm.host_ns_per_touch", "ns", L),
    ("policies.at-cpm.speedup_vs_static", "ratio", H),
    ("policies.at-opm.host_s", "s", L),
    ("policies.at-opm.host_ns_per_touch", "ns", L),
    ("policies.at-opm.speedup_vs_static", "ratio", H),
    ("obs.on_wall_ratio", "ratio", L),
    ("obs.events", "count", L),
    ("obs.dropped", "count", L),
    ("bench.trace_overhead_ratio", "ratio", L),
    ("bench.budget_residual_share", "share", L),
];

/// A measured value with its declared name and unit.
pub type Measured = (&'static str, f64, &'static str);

pub fn policy_label(system: SystemKind) -> &'static str {
    let at = SystemKind::TIERED_COMPARISON
        .iter()
        .position(|s| *s == system)
        .expect("benchmark cells run the tiered comparison systems");
    POLICY_LABELS[at]
}

/// The cell whose simulated results the `sim_*` metrics report.
pub fn multi_clock_cell(cells: &[CellOut]) -> &CellOut {
    cells
        .iter()
        .find(|c| c.system == SystemKind::MultiClock)
        .expect("every workload runs MULTI-CLOCK")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Virtual throughput of each cell relative to the static cell (paper
/// Fig. 5); empty when the workload has no static cell. Ops per cell are
/// equal, so the ratio of throughputs is the inverse ratio of virtual
/// times.
pub fn speedups_vs_static(cells: &[CellOut]) -> Vec<(&'static str, f64)> {
    let Some(base) = cells.iter().find(|c| c.system == SystemKind::Static) else {
        return Vec::new();
    };
    cells
        .iter()
        .map(|c| {
            (
                policy_label(c.system),
                base.virt_ns as f64 / c.virt_ns as f64,
            )
        })
        .collect()
}

/// The paper's Fig. 5 shape on a grid: MULTI-CLOCK wins, both AutoTiering
/// modes lose to static, conservative promotion most of all. Returns one
/// line per violated rule.
pub fn fig5_shape_violations(speedups: &[(&'static str, f64)]) -> Vec<String> {
    let of = |label: &str| speedups.iter().find(|(l, _)| *l == label).map(|(_, v)| *v);
    let (Some(mc), Some(cpm), Some(opm)) = (of("multi-clock"), of("at-cpm"), of("at-opm")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (label, v) in speedups {
        if *label != "multi-clock" && *v >= mc {
            out.push(format!(
                "fig5 shape: {label} ({v:.3}) is not below multi-clock ({mc:.3})"
            ));
        }
        if *label != "at-cpm" && *v <= cpm {
            out.push(format!(
                "fig5 shape: {label} ({v:.3}) is not above at-cpm ({cpm:.3})"
            ));
        }
    }
    for (label, v) in [("at-cpm", cpm), ("at-opm", opm)] {
        if v >= 1.0 {
            out.push(format!("fig5 shape: {label} ({v:.3}) is not below static"));
        }
    }
    out
}

/// VmHWM of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end metrics of an untraced run.
pub fn end_to_end(cells: &[CellOut]) -> Vec<Measured> {
    let mc = multi_clock_cell(cells);
    let touches: u64 = cells.iter().map(CellOut::touches).sum();
    let steady_s: f64 = cells.iter().map(CellOut::steady_s).sum();
    let values = [
        touches as f64 / steady_s,
        cells.iter().map(|c| median(&c.setup_s)).sum(),
        peak_rss_mib(),
        mc.virt_ns as f64 / mc.touches() as f64,
        mc.fast_tier_share,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect()
}

/// Everything the traced run produced.
pub struct TracedRun {
    pub flat: FlatRun,
    pub plain: Vec<CellOut>,
    pub traced: Vec<CellOut>,
    pub observed: Vec<CellOut>,
    pub replay_ns_per_touch: f64,
    pub bare_access_ns: f64,
    pub list_cycle_ns: f64,
}

/// Per-layer metrics of a traced run. Host times and counts are summed
/// over the cells of the workload; percentiles and virtual shares are the
/// MULTI-CLOCK cell's.
pub fn per_layer(run: &TracedRun) -> Vec<Measured> {
    let cells = &run.traced;
    let mc = multi_clock_cell(cells);
    let sum = |f: &dyn Fn(&CellOut) -> f64| cells.iter().map(f).sum::<f64>();
    let phase_s =
        |phase: Phase| sum(&|c| c.phase(phase).map_or(0.0, |p| p.total_nanos as f64 / 1e9));
    let counter = |name: &str| sum(&|c| c.counter(name) as f64);
    let stat = |f: &dyn Fn(&mc_mem::MemStats) -> u64| sum(&|c| f(&c.stats) as f64);

    let wall_s = sum(&|c| c.wall_s);
    let plain_wall_s: f64 = run.plain.iter().map(|c| c.wall_s).sum();
    let touches = sum(&|c| c.touches() as f64);
    let self_s = sum(&|c| c.span_log().ops_self_s());
    let call_s = sum(&|c| c.span_log().calls_s());
    let tick_s = phase_s(Phase::Tick);
    let access_self_s = call_s - tick_s;
    let scan_s = phase_s(Phase::Scan);
    let merge_s = phase_s(Phase::Merge);
    let drain_s = phase_s(Phase::PromoteDrain);
    let pressure_s = phase_s(Phase::Pressure);
    let pages_scanned = sum(&|c| c.phase(Phase::Scan).map_or(0.0, |p| p.items as f64));
    let mc_virt = mc.virt_ns as f64;
    let mc_tick = mc.phase(Phase::Tick);
    // PerfHooks summaries offer p50/p95/p99 only: report the highest the
    // tick count supports.
    let tick_tail_ns = mc_tick.map_or(0, |t| {
        match highest_supported_percentile(t.count, &[50.0, 95.0, 99.0]) {
            Some(p) if p >= 99.0 => t.p99_nanos,
            Some(p) if p >= 95.0 => t.p95_nanos,
            _ => t.p50_nanos,
        }
    });
    let pct =
        |h: &mc_sim::LatencyHistogram, p: f64| h.percentile(p).map_or(0.0, |n| n.as_nanos() as f64);
    let plain_mc = multi_clock_cell(&run.plain);
    let enqueues = counter("mc_promote_enqueues");
    let speedups = speedups_vs_static(cells);

    let mut out: Vec<(String, f64)> = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
    put("workloads.ops", sum(&|c| c.ops as f64));
    put("workloads.mem_calls", sum(&|c| c.calls as f64));
    put("workloads.touches", touches);
    put("workloads.self_s", self_s);
    put("workloads.self_share", self_s / wall_s);
    put(
        "workloads.gen_only_s",
        run.flat.gen_only_s * cells.len() as f64,
    );
    put("sim.call_s", call_s);
    put("sim.access_self_s", access_self_s);
    put("sim.access_self_share", access_self_s / wall_s);
    put(
        "sim.access_self_ns_per_touch",
        access_self_s * 1e9 / touches,
    );
    put("sim.call_p50_ns", pct(&mc.span_log().calls.hist, 50.0));
    put("sim.call_p999_ns", pct(&mc.span_log().calls.hist, 99.9));
    put("sim.virt_call_p50_ns", pct(&plain_mc.virt_calls, 50.0));
    put("sim.virt_call_p999_ns", pct(&plain_mc.virt_calls, 99.9));
    put("sim.replay_ns_per_touch", run.replay_ns_per_touch);
    put(
        "sim.ticks",
        sum(&|c| c.phase(Phase::Tick).map_or(0.0, |p| p.count as f64)),
    );
    put("sim.minor_faults", sum(&|c| c.costs.minor_faults as f64));
    put("sim.hint_faults", sum(&|c| c.costs.hint_faults as f64));
    put(
        "sim.virt_stall_share",
        mc.costs.stall_time.as_nanos() as f64 / mc_virt,
    );
    put(
        "sim.virt_daemon_share",
        mc.costs.daemon_time.as_nanos() as f64 / mc_virt,
    );
    put(
        "sim.virt_background_share",
        mc.costs.background_time.as_nanos() as f64 / mc_virt,
    );
    put("mem.bare_access_ns", run.bare_access_ns);
    put("mem.migrate_batch_s", phase_s(Phase::MigrateBatch));
    put("mem.reads", stat(&|s| s.reads));
    put("mem.writes", stat(&|s| s.writes));
    put("mem.allocs", stat(&|s| s.allocs));
    put("mem.promotions", stat(&|s| s.promotions));
    put("mem.demotions", stat(&|s| s.demotions));
    put("mem.evictions", stat(&|s| s.evictions));
    put("mem.migration_failures", stat(&|s| s.migration_failures));
    put("mem.txn_begins", stat(&|s| s.txn_begins));
    put("mem.txn_commits", stat(&|s| s.txn_commits));
    put("mem.txn_aborts", stat(&|s| s.txn_aborts));
    put("mem.shadow_hits", stat(&|s| s.shadow_hits));
    put(
        "mem.shadow_invalidations",
        stat(&|s| s.shadow_invalidations),
    );
    put(
        "mem.txn_abort_ratio",
        ratio(stat(&|s| s.txn_aborts), stat(&|s| s.txn_begins)),
    );
    put(
        "mem.shadow_hit_ratio",
        ratio(stat(&|s| s.shadow_hits), stat(&|s| s.demotions)),
    );
    put("core.tick_s", tick_s);
    put("core.tick_share", tick_s / wall_s);
    put("core.scan_s", scan_s);
    put("core.merge_s", merge_s);
    put("core.promote_drain_s", drain_s);
    put("core.pressure_s", pressure_s);
    put(
        "core.tick_self_s",
        tick_s - (scan_s + merge_s + drain_s + pressure_s),
    );
    put(
        "core.tick_p50_us",
        mc_tick.map_or(0.0, |t| t.p50_nanos as f64 / 1e3),
    );
    put("core.tick_tail_us", tick_tail_ns as f64 / 1e3);
    put("core.pages_scanned", pages_scanned);
    put("core.scan_ns_per_page", ratio(scan_s * 1e9, pages_scanned));
    put("core.promote_enqueues", enqueues);
    put("core.promotions", counter("mc_promotions"));
    put("core.promote_retries", counter("mc_promote_retries"));
    put("core.promote_gave_ups", counter("mc_promote_gave_ups"));
    put(
        "core.promote_yield",
        ratio(counter("mc_promotions"), enqueues),
    );
    put("core.reaccess_pct", mc.reaccess_pct);
    put("clock.list_cycle_ns", run.list_cycle_ns);
    for (system, label) in SystemKind::TIERED_COMPARISON.iter().zip(POLICY_LABELS) {
        // Only the grid has a cell per policy; a policy without a cell
        // reads 0, and so does a speed-up without a static cell.
        let cell = cells.iter().find(|c| c.system == *system);
        let speedup = speedups.iter().find(|(l, _)| *l == label);
        put(
            &format!("policies.{label}.host_s"),
            cell.map_or(0.0, |c| c.wall_s),
        );
        put(
            &format!("policies.{label}.host_ns_per_touch"),
            cell.map_or(0.0, |c| c.wall_s * 1e9 / c.touches() as f64),
        );
        put(
            &format!("policies.{label}.speedup_vs_static"),
            speedup.map_or(0.0, |(_, v)| *v),
        );
    }
    put(
        "obs.on_wall_ratio",
        run.observed.iter().map(|c| c.wall_s).sum::<f64>() / plain_wall_s,
    );
    put(
        "obs.events",
        run.observed.iter().map(|c| c.obs_events as f64).sum(),
    );
    put(
        "obs.dropped",
        run.observed.iter().map(|c| c.obs_dropped as f64).sum(),
    );
    put("bench.trace_overhead_ratio", wall_s / plain_wall_s);
    put(
        "bench.budget_residual_share",
        1.0 - (self_s + access_self_s + tick_s) / wall_s,
    );
    // Emitted in declaration order; the declaration supplies the unit.
    assert_eq!(out.len(), PER_LAYER.len(), "per-layer list out of step");
    PER_LAYER
        .iter()
        .zip(out)
        .map(|((name, unit, _), (emitted, v))| {
            assert_eq!(emitted, *name, "per-layer list out of step");
            (*name, v, *unit)
        })
        .collect()
}

/// The last line of a run's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Measured]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "{name} is not a number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn str_field<'a>(obj: &'a Json, key: &str) -> &'a str {
        obj.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    #[test]
    fn manifest_declares_exactly_the_metrics_the_code_emits() {
        let m = manifest();
        let e2e = m.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (decl, code) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_field(decl, "name"), code.name);
            assert_eq!(str_field(decl, "unit"), code.unit);
            assert_eq!(str_field(decl, "better"), code.better.as_str());
            assert_eq!(decl.get("bound").and_then(Json::as_f64), Some(code.bound));
        }
        let layers = m.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (decl, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(str_field(decl, "name"), *name);
            assert_eq!(str_field(decl, "unit"), *unit);
            assert_eq!(str_field(decl, "better"), better.as_str());
        }
    }

    #[test]
    fn manifest_declares_the_workloads_and_run_length_the_code_uses() {
        let m = manifest();
        let workloads = m.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (decl, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_field(decl, "name"), spec.name);
            assert_eq!(str_field(decl, "why"), spec.why);
        }
        assert_eq!(
            m.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    /// Writes a result line for `names`, parses it back and compares it
    /// with the manifest's list `key`: every declared name emitted, none
    /// undeclared, units and values intact.
    fn round_trip(key: &str, names: Vec<(&'static str, &'static str)>) {
        let metrics: Vec<Measured> = names
            .iter()
            .enumerate()
            .map(|(i, (name, unit))| (*name, 1.5 + i as f64 / 7.0, *unit))
            .collect();
        let parsed = Json::parse(&result_line(true, 1000, 0, &metrics)).unwrap();
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(parsed.get("failed").and_then(Json::as_f64), Some(0.0));
        let emitted = parsed.get("metrics").and_then(Json::as_obj).unwrap();
        let declared = manifest();
        let declared = declared.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(emitted.len(), declared.len(), "{key}: count differs");
        for ((name, body), (decl, (_, value, _))) in
            emitted.iter().zip(declared.iter().zip(&metrics))
        {
            assert_eq!(name, str_field(decl, "name"));
            assert_eq!(str_field(body, "unit"), str_field(decl, "unit"));
            assert_eq!(body.get("value").and_then(Json::as_f64), Some(*value));
        }
    }

    #[test]
    fn result_line_round_trips_every_declared_name() {
        round_trip(
            "end_to_end",
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
        );
        round_trip(
            "per_layer",
            PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect(),
        );
    }

    #[test]
    fn policy_labels_follow_the_comparison_set() {
        for (system, label) in SystemKind::TIERED_COMPARISON.iter().zip(POLICY_LABELS) {
            assert_eq!(system.label().to_lowercase(), label);
        }
    }

    #[test]
    fn fig5_shape_accepts_the_paper_ordering_and_names_each_violation() {
        let good = [
            ("static", 1.0),
            ("multi-clock", 1.15),
            ("nomad", 1.02),
            ("nimble", 1.03),
            ("hybridtier", 1.06),
            ("at-cpm", 0.19),
            ("at-opm", 0.80),
        ];
        assert!(fig5_shape_violations(&good).is_empty());
        let mut bad = good;
        bad[4].1 = 1.2; // hybridtier overtakes multi-clock
        bad[6].1 = 1.01; // at-opm beats static
        assert_eq!(fig5_shape_violations(&bad).len(), 2);
    }
}
