//! The sections of EXPERIMENTS.md, one function each: the paper's
//! statement as prose, tables generated from this run, and the claims,
//! each with its source and its expectation pinned at the `--quick`
//! scale. In claim statements "MC" is MULTI-CLOCK; a margin is by how
//! much the statement holds (negative: fails).

use crate::report::Expectation::{Deviates, Holds};
use crate::report::{format_heatmap, normalize_to_static};
use crate::repro::{Lab, Run};
use mc_mem::{MachineBuilder, MachineDesc, Nanos, TierKind, TierLatency};
use mc_sim::experiments::{RunOutcome, Scale};
use mc_sim::{FaultConfig, MigrationMode, RetryPolicy, SystemKind as S};
use mc_workloads::graph::Kernel;
use mc_workloads::motivation::MotivationWorkload;
use mc_workloads::ycsb::YcsbWorkload as W;
use mc_workloads::SimpleMemory;

type Build = fn(&mut Lab) -> Result<(), String>;

/// `(id, title, builder)` of every section, in document order.
pub(crate) const SECTIONS: [(&str, &str, Build); 15] = [
    ("fig1", "Figure 1 — page-access heat maps", fig1),
    ("fig2", "Figure 2 — next-window access frequency", fig2),
    ("table1", "Tables I and II — techniques, size", table1),
    ("fig5", "Figure 5 — YCSB throughput, §V-F overhead", fig5),
    ("fig6", "Figure 6 — GAPBS execution time", fig6),
    ("fig7", "Figure 7 — Memory-mode (footprint = 4x DRAM)", fig7),
    ("fig8", "Figure 8 — pages promoted per 20 s window", fig8),
    ("fig9", "Figure 9 — re-access % of promoted pages", fig9),
    ("fig10", "Figure 10 — scan-interval sensitivity", fig10),
    ("ablation", "Ablation — oracles, §VII extensions", ablation),
    ("chaos", "Robustness — injected faults", chaos),
    ("batch", "Robustness — migration batch size", batch),
    ("colocation", "Extension — co-location", colocation),
    ("overcommit", "Extension — overcommit", overcommit),
    ("house", "Engine pins — the house workload", house),
];

const ST: S = S::Static;
const MC: S = S::MultiClock;
const NIM: S = S::Nimble;
const CPM: S = S::AtCpm;
const OPM: S = S::AtOpm;
const MM: S = S::MemoryMode;

fn min(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

fn max(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// A table row: its label, then its cells.
fn row(label: impl ToString, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(label.to_string()).chain(cells).collect()
}

fn pct(v: Option<f64>) -> String {
    v.map_or("-".into(), |v| format!("{v:.1}%"))
}

fn ops(o: &RunOutcome) -> f64 {
    o.ops_per_sec
}

fn time(o: &RunOutcome) -> f64 {
    o.trial_time.as_nanos() as f64
}

/// One metric over rows × systems, normalised to each row's static run.
struct Grid {
    labels: Vec<String>,
    systems: Vec<S>,
    norm: Vec<Vec<f64>>,
    raw: Vec<Vec<RunOutcome>>,
}

impl Grid {
    fn run(
        lab: &mut Lab,
        labels: Vec<String>,
        systems: &[S],
        run: impl Fn(usize, S) -> Run,
        metric: fn(&RunOutcome) -> f64,
    ) -> Result<Grid, String> {
        let cells = (0..labels.len()).flat_map(|i| systems.iter().map(move |s| (i, *s)));
        let runs: Vec<Run> = cells.map(|(i, s)| run(i, s)).collect();
        let outcomes = lab.runs(&runs)?;
        let raw: Vec<Vec<RunOutcome>> = outcomes.chunks(systems.len()).map(Vec::from).collect();
        let norm = raw.iter().map(|row| {
            let n = normalize_to_static(row, metric).expect("every comparison leads with static");
            n.into_iter().map(|(_, v)| v).collect()
        });
        Ok(Grid {
            norm: norm.collect(),
            labels,
            systems: systems.to_vec(),
            raw,
        })
    }

    /// Writes the grid as a table of `cell(normalised, outcome)`.
    fn table(&self, lab: &mut Lab, corner: &str, cell: impl Fn(f64, &RunOutcome) -> String) {
        let mut headers = vec![corner];
        headers.extend(self.systems.iter().map(|s| s.label()));
        let cells = |i: usize| self.norm[i].iter().zip(&self.raw[i]);
        let line = |i: usize| row(&self.labels[i], cells(i).map(|(n, o)| cell(*n, o)));
        let rows: Vec<Vec<String>> = (0..self.labels.len()).map(line).collect();
        lab.table(&headers, &rows);
    }

    /// A system's normalised column (claims only: the cast is unfiltered).
    fn col(&self, s: S) -> Vec<f64> {
        let j = self.systems.iter().position(|x| *x == s);
        let j = j.expect("claims run on the unfiltered cast");
        self.norm.iter().map(|row| row[j]).collect()
    }

    /// The least amount, over all rows, by which `a` exceeds `b`.
    fn lead(&self, a: S, b: S) -> f64 {
        min(self.col(a).iter().zip(self.col(b)).map(|(a, b)| a - b))
    }
}

const PAGES: usize = 50;

fn fig1(lab: &mut Lab) -> Result<(), String> {
    lab.text(
        "Paper: 50 sampled pages × time for RUBiS, SPECpower, xalan and lusearch show three \
         populations — always hot, bimodal (\"tier-friendly\") and cold. The original traces \
         are unavailable, so the generators are parameterised with these classes; the figure \
         validates the generators the other experiments reuse.",
    );
    const SLICES: usize = 60;
    let mut rows = Vec::new();
    let mut fewest = PAGES;
    for mut w in MotivationWorkload::all_paper_workloads(PAGES, Scale::SEED) {
        let matrix = w.heatmap(&mut SimpleMemory::new(), SLICES);
        let map = format_heatmap(&matrix);
        lab.text(&format!("{}:\n\n```text\n{map}```", w.name()));
        let total = |p: usize| matrix.iter().map(|r| r[p] as usize).sum::<usize>();
        let hot = (0..PAGES).filter(|p| total(*p) > SLICES * 10).count();
        let cold = (0..PAGES).filter(|p| total(*p) <= SLICES / 4).count();
        let classes = [hot, PAGES - hot - cold, cold];
        fewest = fewest.min(classes.into_iter().min().unwrap_or(0));
        let cells = classes.map(|c| c.to_string());
        rows.push(row(w.name(), cells));
    }
    lab.table(&["workload", "DRAM-friendly", "bimodal", "cold"], &rows);
    let stmt = "every workload has pages of all three classes (margin: smallest class − 1)";
    let margin = fewest as f64 - 1.0;
    lab.claim("three_populations", "Fig. 1", stmt, Holds, margin);
    Ok(())
}

fn fig2(lab: &mut Lab) -> Result<(), String> {
    lab.text(
        "Paper: \"pages that were accessed multiple times in the observation windows are \
         accessed with a much higher frequency on average in the performance windows compared \
         to the pages that were accessed only once\" — the premise of the promote list. Mean \
         accesses in the following window, by accesses in the observation window:",
    );
    const SLICES: usize = 64;
    const WINDOW: usize = 4; // slices per (observation | performance) window
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for mut w in MotivationWorkload::all_paper_workloads(PAGES, Scale::SEED) {
        let matrix = w.heatmap(&mut SimpleMemory::new(), SLICES);
        let (mut once, mut multi) = (Vec::new(), Vec::new());
        for start in (0..=SLICES - 2 * WINDOW).step_by(2 * WINDOW) {
            for p in 0..PAGES {
                let sum = |from: usize| matrix[from..from + WINDOW].iter().map(|r| r[p]).sum();
                let (seen, next): (u32, u32) = (sum(start), sum(start + WINDOW));
                match seen {
                    0 => {}
                    1 => once.push(next as f64),
                    _ => multi.push(next as f64),
                }
            }
        }
        let ratio = mean(&multi) / mean(&once);
        ratios.push(ratio);
        let cells = [f2(mean(&once)), f2(mean(&multi)), format!("{ratio:.1}x")];
        rows.push(row(w.name(), cells));
    }
    lab.table(&["workload", "accessed once", "repeatedly", "ratio"], &rows);
    let stmt = "multi-accessed pages get at least 2x the next-window accesses, every workload";
    let margin = min(ratios) - 2.0;
    lab.claim("multi_accessed_stay_hot", "Fig. 2", stmt, Holds, margin);
    Ok(())
}

fn table1(lab: &mut Lab) -> Result<(), String> {
    use mc_mem::TieringPolicy;
    use mc_policies::{AutoNuma, AutoTiering, Nimble, Scored, ScoredKind, StaticTiering};
    let mem = mc_mem::MemorySystem::new(MachineDesc::dram_pm(64, 256));
    let topo = mem.topology();
    let scored = |kind| Scored::new(kind, topo, Nanos::from_secs(1), 1024).traits();
    let policies = [
        StaticTiering::new(topo).traits(),
        Nimble::with_defaults(topo).traits(),
        AutoNuma::with_defaults(topo).traits(),
        scored(ScoredKind::Amp),
        AutoTiering::cpm(topo).traits(),
        AutoTiering::opm(topo).traits(),
        multi_clock::MultiClock::new(Default::default(), topo).traits(),
        scored(ScoredKind::Lru),
        scored(ScoredKind::Lfu),
    ];
    let yes_no = |b: bool| if b { "Yes" } else { "No" };
    let row = |t: &mc_mem::PolicyTraits| {
        let selection = [t.selection_promotion, t.selection_demotion];
        let overhead = [yes_no(t.numa_aware), yes_no(t.space_overhead)];
        let rest = [t.generality, t.key_insight];
        let tracking = [t.name, t.page_access_tracking];
        let cells = [&tracking[..], &selection, &overhead, &rest].concat();
        cells.into_iter().map(String::from).collect()
    };
    let rows: Vec<Vec<String>> = policies.iter().map(row).collect();
    lab.text("Table I, from each policy's self-reported `PolicyTraits`:");
    let selection = ["Selection (Promotion)", "Selection (Demotion)"];
    let rest = ["NUMA Aware", "Space Overhead", "Generality", "Key Insight"];
    let headers = [&["Tiering", "Page Access Tracking"], &selection[..], &rest];
    lab.table(&headers.concat(), &rows);
    lab.text(
        "AMP and the oracles run in simulation only — full-memory profiling is undeployable at \
         kernel scale, the paper's §II-D argument. Thermostat is not implemented: closed \
         source, as in the paper.\n\n\
         Table II (the paper's patch: 673 new + 30 modified kernel lines in 16 files) has no \
         fixed analogue: this repository's size changes with every commit, so it cannot sit in \
         a diffed file. `repro --count` prints source lines, non-test lines and `pub` items \
         per crate; the patch's logic lives in `crates/core` over `crates/mem`.",
    );
    Ok(())
}

/// `part` as a percentage of the run's accounted time.
fn share(o: &RunOutcome, part: Nanos) -> f64 {
    let c = &o.costs;
    let total = c.access_time + c.stall_time + c.daemon_time + c.background_time;
    100.0 * part.as_nanos() as f64 / total.as_nanos().max(1) as f64
}

fn fig5(lab: &mut Lab) -> Result<(), String> {
    let (args, systems) = (lab.args, lab.systems(&S::TIERED_COMPARISON));
    let ws = W::prescribed_order();
    let labels = ws.iter().map(W::to_string).collect();
    let run = |i: usize, s| Run::ycsb(args, ws[i], s);
    let g = Grid::run(lab, labels, &systems, run, ops)?;
    lab.text(
        "Paper: MULTI-CLOCK beats static by 20–132 % (most on D), Nimble by 9–36 %, AT-CPM by \
         260–677 % and AT-OPM by 10–352 %. Magnitudes here are compressed: the simulated \
         operation includes fixed CPU work and the scaled keyspace has a warmer zipfian tail \
         than 100 M+ real records (DESIGN.md §7). Nomad (MULTI-CLOCK's selection over \
         transactional migration, arXiv 2401.13154) and HybridTier (arXiv 2312.04789) are not \
         in the paper.\n\n\
         Throughput normalised to static (higher is better):",
    );
    g.table(lab, "workload", |n, _| f2(n));
    lab.text("Raw throughput (operations per virtual second):");
    g.table(lab, "workload", |_, o| format!("{:.0}", o.ops_per_sec));
    lab.text(
        "YCSB-A in detail: per-operation latency, placement, and §V-F's overhead as each \
         run's `CostBreakdown` in shares of its accounted time (the rest is device access). \
         Paper: MULTI-CLOCK's tracking and migration overhead is negligible, while \
         AutoTiering's hint faults put its profiling on the application's fault path. The \
         median drops where the hot set is served from DRAM; the 99th percentile is the \
         coldest accesses and stays PM-bound.",
    );
    let a = &g.raw[0];
    let ns = |v: Option<Nanos>| v.map_or("-".into(), |v| v.to_string());
    let detail = |o: &RunOutcome| {
        let c = &o.costs;
        let dram = pct(o.top_tier_share.map(|p| 100.0 * p));
        let costs = [c.stall_time, c.daemon_time, c.background_time];
        let costs = costs.map(|p| pct(Some(share(o, p))));
        let counts = [o.promotions, c.hint_faults].map(|n| n.to_string());
        let cells = [o.system.label().into(), ns(o.p50), ns(o.p99), dram];
        cells.into_iter().chain(costs).chain(counts).collect()
    };
    let rows: Vec<Vec<String>> = a.iter().map(detail).collect();
    let latency = ["system", "p50", "p99", "DRAM share"];
    let costs = ["app stalls", "daemon CPU", "background copies"];
    let headers = [&latency[..], &costs, &["promotions", "hint faults"]];
    lab.table(&headers.concat(), &rows);

    if lab.filtered() {
        return Ok(());
    }
    let of = |s: S| a.iter().find(|o| o.system == s).expect("unfiltered cast");
    let p50 = |s: S| of(s).p50.map_or(0.0, |v| v.as_nanos() as f64);
    let stall = |s: S| share(of(s), of(s).costs.stall_time);
    let (mc, nomad) = (g.col(MC), g.col(S::Nomad));
    let stmt = "MC beats static on every workload";
    lab.claim("mc_beats_static", "Fig. 5", stmt, Holds, g.lead(MC, ST));
    let stmt = "MC's gain over static is inside the paper's 20–132 % on every workload";
    let why = "compressed magnitudes: fixed per-op CPU work, warm zipfian tail (DESIGN.md §7)";
    let margin = min(mc.iter().map(|v| (v - 1.20).min(2.32 - v)));
    let id = "mc_gain_in_paper_band";
    lab.claim(id, "Fig. 5", stmt, Deviates(why), margin);
    let stmt = "MC ≥ every system the paper compares (static, Nimble, AT-CPM, AT-OPM), all six";
    let margin = min([ST, NIM, CPM, OPM].map(|s| g.lead(MC, s)));
    lab.claim("mc_highest_of_paper_systems", "Fig. 5", stmt, Holds, margin);
    let stmt = "transactional migration beats sync MC on read-only C and read-latest D, and \
                loses where stores abort copy windows: A, B, F, W";
    let by = |w: usize| nomad[w] - mc[w];
    let margin = min([by(2), by(5), -by(0), -by(1), -by(3), -by(4)]);
    let id = "nomad_wins_reads_loses_stores";
    lab.claim(id, "arXiv 2401.13154", stmt, Holds, margin);
    let stmt = "MC's largest gain over static is on D";
    let margin = mc[5] - max(mc[..5].to_vec());
    lab.claim("max_gain_on_d", "Fig. 5", stmt, Holds, margin);
    let stmt = "AT-CPM stays below 0.6x static on every workload";
    let margin = 0.6 - max(g.col(CPM));
    lab.claim("at_cpm_far_below_static", "Fig. 5", stmt, Holds, margin);
    let stmt = "AT-OPM sits between AT-CPM and Nimble on every workload";
    let margin = g.lead(OPM, CPM).min(g.lead(NIM, OPM));
    let id = "at_opm_between_cpm_and_nimble";
    lab.claim(id, "Fig. 5", stmt, Holds, margin);
    let stmt = "MC cuts YCSB-A's median latency below static's (margin: fraction cut)";
    let margin = 1.0 - p50(MC) / p50(ST);
    let id = "mc_cuts_median_latency";
    lab.claim(id, "DESIGN.md §5", stmt, Holds, margin);
    let stmt = "on YCSB-A app stalls are over half of AT-CPM's and AT-OPM's accounted time \
                and under a tenth of MC's (margin: points)";
    let margin = min([stall(CPM) - 50.0, stall(OPM) - 50.0, 10.0 - stall(MC)]);
    lab.claim("stalls_are_autotierings_cost", "§V-F", stmt, Holds, margin);
    Ok(())
}

fn fig6(lab: &mut Lab) -> Result<(), String> {
    let (args, systems) = (lab.args, lab.systems(&S::TIERED_COMPARISON));
    let labels = Kernel::ALL.iter().map(|k| k.label().to_string()).collect();
    let run = |i: usize, s| Run::gapbs(args, Kernel::ALL[i], s);
    let g = Grid::run(lab, labels, &systems, run, time)?;
    lab.text(
        "Paper: every system is \"close to static tiering for most of the GAPBS workloads\" — \
         graph codes allocate their hottest data first, so static placement is already good. \
         MULTI-CLOCK beats static by 4–68 % (most on SSSP) and Nimble by 1–16 %; AT-OPM loses \
         to MULTI-CLOCK by 4–62 %. A simulated trial spans tens of scan intervals, not \
         hundreds, so steady-state benefit is averaged with convergence and SSSP's gain is \
         far below the paper's.\n\nExecution time normalised to static (lower is better):",
    );
    g.table(lab, "kernel", |n, _| f2(n));
    lab.text("Raw time per trial:");
    g.table(lab, "kernel", |_, o| format!("{:.1}ms", time(o) / 1e6));
    if lab.filtered() {
        return Ok(());
    }
    let mc = g.col(MC);
    let sssp = |s: S| g.col(s)[1];
    let stmt = "MC is faster than static on every kernel";
    lab.claim("mc_beats_static", "Fig. 6", stmt, Holds, g.lead(ST, MC));
    let stmt = "MC is within 10 % of static on at least 4 of 6 kernels (margin: kernels)";
    let margin = mc.iter().filter(|v| (**v - 1.0).abs() <= 0.10).count() as f64 - 4.0;
    lab.claim("close_to_static", "Fig. 6", stmt, Holds, margin);
    let stmt = "MC's largest gain over static is on SSSP";
    let why = "TC gains more: its adjacency re-reads speed every dynamic system up alike";
    let margin = min([0, 2, 3, 4, 5].map(|k| mc[k])) - sssp(MC);
    lab.claim("most_on_sssp", "Fig. 6", stmt, Deviates(why), margin);
    let stmt = "on SSSP MC wins while recency-only Nimble and fault-based AT lose to static";
    let margin = min([NIM, CPM, OPM].map(|s| sssp(s) - 1.0)).min(1.0 - sssp(MC));
    lab.claim("sssp_separates_the_systems", "Fig. 6", stmt, Holds, margin);
    let stmt = "MC is at least as fast as Nimble on every kernel";
    let why = "Nimble edges ahead on BFS and CC: over tens of scans recency converges as fast";
    let margin = g.lead(NIM, MC);
    lab.claim("mc_beats_nimble", "Fig. 6", stmt, Deviates(why), margin);
    let stmt = "MC is faster than AT-OPM on every kernel";
    lab.claim("mc_beats_at_opm", "Fig. 6", stmt, Holds, g.lead(OPM, MC));
    Ok(())
}

fn fig7(lab: &mut Lab) -> Result<(), String> {
    let (args, systems) = (lab.args, lab.systems(&[ST, MC, MM]));
    let ws = W::prescribed_order();
    let labels = ws.iter().map(W::to_string).collect();
    let run = |i: usize, s| Run::ycsb_4x(args, ws[i], s);
    let y = Grid::run(lab, labels, &systems, run, ops)?;
    lab.text(
        "Paper (\"we set the workload size to be 4x of the available DRAM capacity\"): on YCSB \
         MULTI-CLOCK is within −2 %…+9 % of Memory-mode; on PageRank it beats Memory-mode by \
         about 21 %.\n\n(a) YCSB throughput normalised to static (higher is better):",
    );
    y.table(lab, "workload", |n, _| f2(n));
    let run = |_, s| Run::gapbs_4x(args, Kernel::Pr, s);
    let pr = Grid::run(lab, vec!["PR".into()], &systems, run, time)?;
    lab.text("(b) PageRank execution time normalised to static (lower is better):");
    pr.table(lab, "kernel", |n, _| f2(n));
    if lab.filtered() {
        return Ok(());
    }
    let pairs = y.col(MC).into_iter().zip(y.col(MM));
    let rel: Vec<f64> = pairs.map(|(mc, mm)| mc / mm - 1.0).collect();
    let stmt = "MC is within −2 %…+9 % of Memory-mode on every YCSB workload";
    let why = "Memory-mode leads further on store-heavy F and W: a direct-mapped cache absorbs \
               stores at once, MC must first observe them for an interval";
    let margin = min(rel.iter().map(|r| (r + 0.02).min(0.09 - r)));
    let id = "ycsb_within_paper_band";
    lab.claim(id, "Fig. 7", stmt, Deviates(why), margin);
    let stmt = "MC is within 15 % of Memory-mode on every YCSB workload";
    let margin = 0.15 - max(rel.iter().map(|r| r.abs()));
    lab.claim("ycsb_competitive", "Fig. 7", stmt, Holds, margin);
    let stmt = "MC is faster than Memory-mode on PageRank";
    lab.claim("pr_mc_ahead", "Fig. 7", stmt, Holds, pr.lead(MM, MC));
    let stmt = "MC leads Memory-mode on PageRank by ≥ 0.10 of static's time (paper: ~21 %)";
    let why = "a trial spans few scan intervals; both stay within a few percent of static";
    let margin = pr.lead(MM, MC) - 0.10;
    lab.claim("pr_gap_like_paper", "Fig. 7", stmt, Deviates(why), margin);
    Ok(())
}

/// The Fig. 8/9 pair — YCSB-A under MULTI-CLOCK and Nimble — as one row
/// per metrics window plus a summary row.
fn promotion_windows(
    lab: &mut Lab,
    unit: &str,
    cell: impl Fn(&mc_sim::WindowStats) -> String,
    summary: impl Fn(&RunOutcome) -> String,
) -> Result<Vec<RunOutcome>, String> {
    let systems = lab.systems(&[MC, NIM]);
    let run = |s: &S| Run::ycsb(lab.args, W::A, *s);
    let runs: Vec<Run> = systems.iter().map(run).collect();
    let runs = lab.runs(&runs)?;
    let headers = systems.iter().map(|s| format!("{} {unit}", s.label()));
    let headers = row("window", headers);
    let windows = runs.iter().map(|r| r.windows.len()).max().unwrap_or(0);
    let window = |r: &RunOutcome, wi: usize| r.windows.get(wi).map_or("-".into(), &cell);
    let line = |wi: usize| row(wi, runs.iter().map(|r| window(r, wi)));
    let mut rows: Vec<Vec<String>> = (0..windows).map(line).collect();
    rows.push(row("whole run", runs.iter().map(summary)));
    lab.table(&headers, &rows);
    Ok(runs)
}

fn fig8(lab: &mut Lab) -> Result<(), String> {
    lab.text(
        "Paper: on YCSB-A Nimble promotes more pages than MULTI-CLOCK in every window — it \
         selects on a single recency observation. The last window is partial.",
    );
    let promoted = |w: &mc_sim::WindowStats| w.promotions.to_string();
    let runs = promotion_windows(lab, "promotions", promoted, |r| r.promotions.to_string())?;
    if lab.filtered() {
        return Ok(());
    }
    let more = |nim: u64, mc: u64| nim as f64 - mc as f64;
    let stmt = "Nimble promotes more pages than MC over the run (margin: pages)";
    let margin = more(runs[1].promotions, runs[0].promotions);
    lab.claim("nimble_more_in_total", "Fig. 8", stmt, Holds, margin);
    let stmt = "Nimble promotes more pages than MC in every full window (margin: pages)";
    let why = "MC's series oscillates as the hot set drifts and crosses Nimble's declining one";
    let (mc, nim) = (&runs[0].windows, &runs[1].windows);
    let full = mc.len().min(nim.len()).saturating_sub(1);
    let margin = min((0..full).map(|i| more(nim[i].promotions, mc[i].promotions)));
    let id = "nimble_more_every_window";
    lab.claim(id, "Fig. 8", stmt, Deviates(why), margin);
    Ok(())
}

fn fig9(lab: &mut Lab) -> Result<(), String> {
    lab.text(
        "Paper: on YCSB-A MULTI-CLOCK's promoted pages are re-accessed about 15 percentage \
         points more often than Nimble's — with Fig. 8 the key observation: Nimble promotes \
         more pages, a smaller share of which earn their migration. Re-access is judged \
         within one scan interval of the promotion.",
    );
    let reaccess = |w: &mc_sim::WindowStats| pct(w.reaccess_pct());
    let runs = promotion_windows(lab, "re-access %", reaccess, |r| pct(r.reaccess_pct))?;
    if lab.filtered() {
        return Ok(());
    }
    let gap = runs[0].reaccess_pct.unwrap_or(0.0) - runs[1].reaccess_pct.unwrap_or(0.0);
    let stmt = "MC's overall re-access % exceeds Nimble's (margin: points)";
    lab.claim("mc_reaccess_higher", "Fig. 9", stmt, Holds, gap);
    let stmt = "the re-access gap is at least 10 points (paper: ~15)";
    let why = "time compression: on the scaled keyspace most pages are re-referenced within \
               an interval whoever picked them";
    let margin = gap - 10.0;
    lab.claim("gap_near_15_points", "Fig. 9", stmt, Deviates(why), margin);
    Ok(())
}

fn fig10(lab: &mut Lab) -> Result<(), String> {
    let (args, systems) = (lab.args, lab.systems(&[ST, MC, NIM]));
    let sweep = [0.1, 0.25, 0.5, 1.0, 5.0, 60.0];
    let labels = ["100ms", "250ms", "500ms", "1s", "5s", "60s"].map(String::from);
    // Static never scans: its one default-interval run is every row's baseline.
    let run = |i: usize, s| match s {
        ST => Run::ycsb(args, W::A, ST),
        _ => Run::ycsb(args, W::A, s).every(args, sweep[i]),
    };
    let g = Grid::run(lab, labels.to_vec(), &systems, run, ops)?;
    lab.text(
        "Paper: MULTI-CLOCK is above Nimble at every interval from 100 ms to 60 s, 1 s is the \
         sweet spot, and beyond 5 s the curves flatten (reaction lag). Intervals are in paper \
         time (DESIGN.md §7). YCSB-A throughput normalised to static:",
    );
    g.table(lab, "interval", |n, _| f2(n));
    if lab.filtered() {
        return Ok(());
    }
    let (mc, nim) = (g.col(MC), g.col(NIM));
    let stmt = "MC's throughput exceeds Nimble's at every interval";
    let why = "60 s: both within 0.01 of static; reaction lag dominates";
    let id = "mc_above_nimble_every_interval";
    lab.claim(id, "Fig. 10", stmt, Deviates(why), g.lead(MC, NIM));
    let margin = mc[3] - max([0, 1, 2, 4, 5].map(|i| mc[i]));
    let stmt = "MC's best interval is 1 s";
    lab.claim("peak_at_1s", "Fig. 10", stmt, Holds, margin);
    let stmt = "at 5 s and 60 s both systems are within 0.05 of static";
    let tail = [mc[4], mc[5], nim[4], nim[5]];
    let margin = 0.05 - max(tail.map(|v| (v - 1.0).abs()));
    lab.claim("flat_beyond_5s", "Fig. 10", stmt, Holds, margin);
    Ok(())
}

/// DRAM + a write-hostile PM device (QLC-class): stores are 8x slower than
/// the default Optane model and write bandwidth halves.
fn slow_write_pm(dram_pages: usize, pm_pages: usize) -> MachineDesc {
    let optane = TierLatency::optane_pm();
    MachineBuilder::new()
        .node(TierKind::Dram, dram_pages)
        .node(TierKind::Pm, pm_pages)
        .device(TierLatency {
            write_ns: optane.write_ns * 8,
            write_bw_gbps: optane.write_bw_gbps / 2.0,
            ..optane
        })
        .build()
}

fn ablation(lab: &mut Lab) -> Result<(), String> {
    let cast = [ST, MC, S::AutoNuma, S::Amp, S::OracleLru, S::OracleLfu];
    let (args, systems) = (lab.args, lab.systems(&cast));
    let ws = [W::A, W::C];
    let labels = ws.iter().map(W::to_string).collect();
    let run = |i: usize, s| Run::ycsb(args, ws[i], s);
    let g = Grid::run(lab, labels, &systems, run, ops)?;
    let oracle_period = Nanos::from_secs(1).as_nanos() / args.scale.scan_interval().as_nanos();
    lab.text(&format!(
        "Beyond the paper's figures. **Selection quality**: the oracles see every access \
         (strict LRU, LFU) and bound what selection alone can buy; AutoNUMA-Tiering and AMP \
         are the related-work systems the paper declined to port (§II-D: hint-fault cost, \
         full-memory profiling \"impractical in the kernel\"). The oracles also keep their own \
         clock: they tick every 1 s of virtual time, moving at most 1 024 pages a tier, \
         whatever the scan interval, so here they tick once per {oracle_period} paper seconds \
         while MULTI-CLOCK, AutoNUMA-Tiering and AMP tick every paper second, which is why \
         they promote so few pages. YCSB throughput normalised to static, then promotions, \
         then re-access % of promoted pages:",
    ));
    g.table(lab, "workload", |n, _| f2(n));
    g.table(lab, "workload", |_, o| o.promotions.to_string());
    g.table(lab, "workload", |_, o| pct(o.reaccess_pct));
    lab.text(
        "**§VII extensions.** Paper: weighting dirty pages \"becomes particularly relevant when \
         the underlying memory hardware exhibits non-uniform latency\". A read/write-split \
         microbenchmark (one read-hot and one disjoint write-hot page set, DRAM fits only one) \
         gives the weighting something to decide; on YCSB-A read-hot and write-hot keys \
         coincide. Throughput relative to unweighted, fixed-interval MULTI-CLOCK on the same \
         device — the default Optane model, or a write-hostile PM with 8x store latency:",
    );
    // The §VII knobs per device; each device's first run is its baseline
    // (for YCSB-A on the default Optane model, the memoised Fig. 5 run).
    let devices = |base: Run| [base.clone(), base.on("slow-pm", slow_write_pm)];
    // The tag stays short so the appendix's widest row, the split micro's
    // on write-hostile PM, keeps its width.
    let dirty = |base: Run| base.with("df", |c| c.engine.dirty_first = true);
    let variants = |base: Run| {
        [
            base.clone(),
            dirty(base.clone()),
            base.with("adaptive", |c| c.engine.adaptive_interval = true),
        ]
    };
    let ycsb = lab.runs(&devices(Run::ycsb(args, W::A, MC)).map(variants).concat())?;
    let ycsb: Vec<f64> = ycsb.iter().map(ops).collect();
    let pair = |base: Run| [base.clone(), dirty(base)];
    let micro = lab.runs(&devices(Run::split_micro(args, MC)).map(pair).concat())?;
    let micro: Vec<f64> = micro.iter().map(ops).collect();
    let f3 = |v: f64| format!("{v:.3}");
    let split = [micro[1] / micro[0], micro[3] / micro[2]];
    let mut rows = vec![("split micro, with dirty-first", split)];
    let names = ["with dirty-first", "adaptive interval"];
    for (v, name) in names.into_iter().enumerate() {
        rows.push((name, [ycsb[v + 1] / ycsb[0], ycsb[v + 4] / ycsb[3]]));
    }
    let row = |(name, [optane, hostile]): &(&str, [f64; 2])| {
        vec![name.to_string(), f3(*optane), f3(*hostile)]
    };
    let rows: Vec<Vec<String>> = rows.iter().map(row).collect();
    lab.table(&["variant", "default Optane", "write-hostile PM"], &rows);

    if lab.filtered() {
        return Ok(());
    }
    let a = |s: S| g.col(s)[0];
    let stmt = "the frequency oracle beats the recency oracle on A and C";
    let (lru, lfu) = (S::OracleLru, S::OracleLfu);
    let margin = g.lead(lfu, lru);
    lab.claim("lfu_beats_lru", "DESIGN.md §6", stmt, Holds, margin);
    let stmt = "MC captures at least half of Oracle-LFU's gain over static on A";
    let margin = (a(MC) - 1.0) / (a(lfu) - 1.0) - 0.5;
    let id = "mc_captures_half_of_lfu";
    lab.claim(id, "DESIGN.md §6", stmt, Holds, margin);
    let stmt = "on A AMP is within 0.05 of MC but migrates more pages";
    let promotions = |i: usize| g.raw[0][i].promotions as f64;
    let more = promotions(3) / promotions(1) - 1.0;
    let margin = more.min(0.05 - (a(S::Amp) - a(MC)).abs());
    let id = "amp_matches_mc_with_more_migrations";
    lab.claim(id, "DESIGN.md §6", stmt, Holds, margin);
    let stmt = "AutoNUMA-Tiering loses to static on A and C";
    let margin = g.lead(ST, S::AutoNuma);
    lab.claim("autonuma_below_static", "§II-D", stmt, Holds, margin);
    let stmt = "on YCSB-A dirty-first and the adaptive interval move throughput by < 0.01";
    let margin = 0.01 - max((1..6).map(|i| (ycsb[i] / ycsb[i / 3 * 3] - 1.0).abs()));
    let id = "extensions_neutral_on_ycsb";
    lab.claim(id, "DESIGN.md §6", stmt, Holds, margin);
    let stmt = "on the split micro dirty-first pays on write-hostile PM, more than on Optane";
    let margin = (split[1] - 1.0).min(split[1] - split[0]);
    let id = "dirty_first_needs_asymmetric_device";
    lab.claim(id, "§VII", stmt, Holds, margin);
    Ok(())
}

fn chaos(lab: &mut Lab) -> Result<(), String> {
    lab.text(
        "Beyond the paper. A seeded injector fails migrations and allocations at a given rate \
         while MULTI-CLOCK retries failed promotions with bounded exponential backoff; under \
         Nomad's transactional migration (arXiv 2401.13154) an injected fault lands inside a \
         copy window and aborts the transaction. The daemon must degrade gracefully: no lost \
         access, throughput falling with the fault rate rather than collapsing. YCSB-A, \
         throughput relative to the same system's uninjected run:",
    );
    const RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];
    let args = lab.args;
    // Not `lab.systems`: static never migrates, so it is no baseline here.
    let systems = args.systems.clone().unwrap_or(vec![MC, S::Nomad]);
    let inject = |base: &Run, rate: f64| {
        base.clone().with(format!("fault{rate}"), |c| {
            c.instrument.fault = FaultConfig::rate(Scale::SEED, rate);
            c.engine.retry = RetryPolicy::Backoff;
        })
    };
    // Per system: the uninjected run, then one run per rate.
    let mut swept: Vec<Vec<RunOutcome>> = Vec::new();
    for system in &systems {
        let base = Run::ycsb(args, W::A, *system);
        let sweep = RATES.map(|rate| inject(&base, rate));
        swept.push(lab.runs(&[&[base], &sweep[..]].concat())?);
    }
    let norm = |runs: &[RunOutcome], o: &RunOutcome| o.ops_per_sec / runs[0].ops_per_sec;
    let mut rows = Vec::new();
    for (system, runs) in systems.iter().zip(&swept) {
        let labels = RATES.map(|rate| format!("{rate:.2}"));
        for (label, o) in std::iter::once("none".into()).chain(labels).zip(runs) {
            let counts = [
                o.promotions,
                o.stats.injected_faults,
                o.stats.migration_failures,
                o.stats.txn_aborts,
                o.counter("mc_promote_retries"),
                o.counter("mc_promote_gave_ups"),
                o.dropped_accesses,
            ];
            let cells = [label, f2(norm(runs, o))].into_iter();
            rows.push(row(
                system.label(),
                cells.chain(counts.map(|c| c.to_string())),
            ));
        }
    }
    let faults = ["injected", "migration failures", "txn aborts"];
    let ladder = ["retries", "gave up", "dropped accesses"];
    let head = ["system", "fault rate", "throughput", "promotions"];
    lab.table(&[&head[..], &faults, &ladder].concat(), &rows);
    if lab.filtered() {
        return Ok(());
    }
    let injected = || {
        swept
            .iter()
            .flat_map(|runs| runs[1..].iter().map(move |o| (runs, o)))
    };
    let stmt = "no fault rate drops an access, under MC or Nomad (margin: −dropped accesses)";
    let dropped: u64 = injected().map(|(_, o)| o.dropped_accesses).sum();
    let margin = 0.0 - dropped as f64;
    lab.claim("no_access_dropped", "DESIGN.md §11", stmt, Holds, margin);
    let stmt = "up to a fault rate of 0.4 MC and Nomad keep 0.85 of their uninjected throughput";
    let margin = min(injected().map(|(runs, o)| norm(runs, o))) - 0.85;
    lab.claim("throughput_floor", "DESIGN.md §11", stmt, Holds, margin);
    let stmt = "retries rescue promotions: at every rate under a quarter of the failed attempts \
                end in a give-up (a quarter: every episode running out its 4 attempts)";
    let gave_up = |o: &RunOutcome| {
        let gave_up = o.counter("mc_promote_gave_ups");
        gave_up as f64 / (o.counter("mc_promote_retries") + gave_up).max(1) as f64
    };
    let margin = 0.25 - max(injected().map(|(_, o)| gave_up(o)));
    let id = "retries_rescue_promotions";
    lab.claim(id, "DESIGN.md §11", stmt, Holds, margin);
    Ok(())
}

fn batch(lab: &mut Lab) -> Result<(), String> {
    lab.text(
        "Beyond the paper. MULTI-CLOCK's promote drain can hand pages to the substrate in \
         batches; a batch pays the per-call migration setup (one TLB-shootdown window) once \
         instead of once per page, as `migrate_pages` does in the kernel. The share of \
         accounted time that is tiering overhead (stalls, daemon CPU, background copies) should \
         fall, or at worst stay flat, as the batch grows. YCSB-A on MULTI-CLOCK:",
    );
    const BATCHES: [usize; 5] = [1, 2, 4, 8, 16];
    let args = lab.args;
    // One page per call is the default engine: the memoised Fig. 5 run.
    let run = |b: usize| match b {
        1 => Run::ycsb(args, W::A, MC),
        _ => Run::ycsb(args, W::A, MC).with(format!("batch{b}"), |c| {
            c.engine.migrate_batch_size = b;
        }),
    };
    let runs = lab.runs(&BATCHES.map(run))?;
    let line = |(b, o): (&usize, &RunOutcome)| {
        let share = format!("{:.2}%", 100.0 * o.overhead_share());
        vec![
            b.to_string(),
            format!("{:.0}", o.ops_per_sec),
            o.promotions.to_string(),
            share,
        ]
    };
    let rows: Vec<Vec<String>> = BATCHES.iter().zip(&runs).map(line).collect();
    lab.table(&["batch", "ops/s", "promotions", "overhead share"], &rows);
    if lab.filtered() {
        return Ok(());
    }
    let steps = || runs.windows(2).map(|w| (&w[0], &w[1]));
    let stmt = "the overhead share never rises by more than 0.01 from one batch size to the next";
    let margin = 0.01 - max(steps().map(|(a, b)| b.overhead_share() - a.overhead_share()));
    let id = "overhead_share_non_increasing";
    lab.claim(id, "DESIGN.md §16", stmt, Holds, margin);
    let stmt =
        "throughput never falls from one batch size to the next (margin: least relative gain)";
    let margin = min(steps().map(|(a, b)| b.ops_per_sec / a.ops_per_sec - 1.0));
    let id = "throughput_non_decreasing";
    lab.claim(id, "DESIGN.md §16", stmt, Holds, margin);
    let stmt = "a batch of 16 amortises the setup: its overhead share is 0.05 below batch 1's";
    let last = &runs[BATCHES.len() - 1];
    let margin = runs[0].overhead_share() - last.overhead_share() - 0.05;
    lab.claim("setup_amortised", "DESIGN.md §16", stmt, Holds, margin);
    Ok(())
}

fn colocation(lab: &mut Lab) -> Result<(), String> {
    lab.text(
        "Paper §II: with static tiering, \"when an application wins the race to allocate \
         memory from a higher tier, and such space is exhausted, future allocations will be \
         downgraded … regardless of how the importance of the contained data changes over \
         time\". Two tenants share the machine: a lukewarm uniform-access tenant loads first \
         and wins the DRAM race, a hot zipfian YCSB-A tenant arrives second. Dynamic tiering \
         must take DRAM back for the tenant that needs it.",
    );
    let (args, systems) = (lab.args, lab.systems(&[ST, MC, NIM]));
    let run = |_, s| Run::colocation(args, s);
    let g = Grid::run(lab, vec!["colocation".into()], &systems, run, ops)?;
    let p50 = |o: &RunOutcome| o.p50.map_or("-".into(), |v| v.to_string());
    let line = |(n, o): (&f64, &RunOutcome)| {
        let promotions = o.promotions.to_string();
        let cells = [f2(*n), format!("{:.0}", o.ops_per_sec), p50(o), promotions];
        row(o.system.label(), cells)
    };
    let rows: Vec<Vec<String>> = g.norm[0].iter().zip(&g.raw[0]).map(line).collect();
    let tenants = ["hot vs static", "hot ops/s", "lukewarm p50"];
    let headers = [&["system"], &tenants[..], &["promotions"]];
    lab.table(&headers.concat(), &rows);
    if lab.filtered() {
        return Ok(());
    }
    let out = &g.raw[0];
    let hot = |i: usize| out[i].ops_per_sec;
    let stmt = "MC speeds the hot tenant up over static, and by more than Nimble does";
    let margin = (hot(1) / hot(0) - 1.0).min((hot(1) - hot(2)) / hot(0));
    lab.claim("hot_tenant_gains", "§II", stmt, Holds, margin);
    let stmt = "under MC the lukewarm tenant's median get is no slower than under static \
                (margin: fraction cut)";
    let lukewarm = |i: usize| out[i].p50.map_or(0.0, |v| v.as_nanos() as f64);
    let margin = 1.0 - lukewarm(1) / lukewarm(0);
    lab.claim("cold_tenant_not_hurt", "§II", stmt, Holds, margin);
    Ok(())
}

fn overcommit(lab: &mut Lab) -> Result<(), String> {
    lab.text(
        "Paper §III-C: demotion is a cascade — DRAM demotes to PM, PM writes back to storage \
         \"before triggering the out-of-memory (OOM) killer as the last option\". The \
         footprint is swept past DRAM + PM so the lowest tier must evict; the cascade, driven \
         by recency and frequency, is pitted against static tiering's placement-blind \
         evict-in-place. The last two columns are evictions / swap-ins.",
    );
    let ratios = [0.8, 1.0, 1.2, 1.5];
    let args = lab.args;
    let labels = ratios.iter().map(|r| format!("{r:.1}x")).collect();
    let run = |i: usize, s| Run::overcommit(args, s, ratios[i]);
    let g = Grid::run(lab, labels, &[ST, MC], run, ops)?;
    let churn = |o: &RunOutcome| format!("{}/{}", o.stats.evictions, o.stats.swap_ins);
    let line = |i: usize| {
        let cells = [f2(g.norm[i][1])].into_iter();
        row(&g.labels[i], cells.chain(g.raw[i].iter().map(churn)))
    };
    let rows: Vec<Vec<String>> = (0..ratios.len()).map(line).collect();
    let headers = ["footprint / total memory", "MULTI-CLOCK tput vs static"];
    lab.table(&[&headers[..], &["static", "MULTI-CLOCK"]].concat(), &rows);
    let evictions = |o: &RunOutcome| o.stats.evictions as f64;
    let stmt = "at 0.8x neither system evicts (margin: −evictions)";
    let margin = 0.0 - evictions(&g.raw[0][0]) - evictions(&g.raw[0][1]);
    lab.claim("no_evictions_when_it_fits", "§III-C", stmt, Holds, margin);
    let stmt = "MC stays ahead of static at every footprint, through eviction pressure";
    let margin = min(g.col(MC)) - 1.0;
    lab.claim("mc_advantage_persists", "§III-C", stmt, Holds, margin);
    Ok(())
}

fn house(lab: &mut Lab) -> Result<(), String> {
    lab.text(
        "Beyond the paper: the engine's golden table (DESIGN.md §17). The house workload maps \
         192 pages on a 64 + 512-page machine: a first-touch fill spills into PM, a hot set deep \
         in the spill is read every round, a stride keeps the lists churning, and 400 rounds \
         end in 25 ms compute gaps. No scale applies, so these runs are the same at every one. \
         MULTI-CLOCK runs page at a time, with transactional migration (`txn`), in sync \
         batches of eight (`batch8`) and on two sockets (`dual`), each also under 20 % injected \
         faults with backoff retry (`chaos`). Every other system with a tiering daemon runs on \
         the default machine and on `small`, 32 + 128 frames under the 192 pages, where the \
         lowest tier must evict. The appendix row of each of these runs digests its \
         `Observables` — final time, `MemStats`, ticks CSV, events JSONL, page placement, \
         promotions, demotions, costs, open transactions and the time ledger — instead of its \
         `RunOutcome`, and `cargo test -p mc-bench --test scheduler_differential` compares the \
         rows with this file. Pages moved over the whole run:",
    );
    let cast = [
        MC,
        ST,
        NIM,
        S::HybridTier,
        CPM,
        OPM,
        S::AutoNuma,
        S::Amp,
        S::OracleLru,
        S::OracleLfu,
    ];
    // Seed 7, not `Scale::SEED`: the constants these rows replaced used it.
    let chaos = |run: &Run| {
        run.clone().with("chaos", |c| {
            c.instrument.fault = FaultConfig::rate(7, 0.2);
            c.engine.retry = RetryPolicy::Backoff;
        })
    };
    let mut runs = Vec::new();
    for system in lab.systems(&cast) {
        let base = Run::house(system);
        if system == MC {
            let txn = MigrationMode::Transactional;
            let modes = [
                base.clone(),
                base.clone().with("txn", |c| c.engine.migration_mode = txn),
                base.clone()
                    .with("batch8", |c| c.engine.migrate_batch_size = 8),
                // The same pages on two sockets: two list shards per tier.
                base.on("dual", |dram, pm| {
                    MachineDesc::dual_socket(dram / 2, pm / 2)
                }),
            ];
            runs.extend(modes.iter().flat_map(|r| [r.clone(), chaos(r)]));
        } else {
            // 160 frames under the 192 pages: the lowest tier must evict.
            let small = base
                .clone()
                .on("small", |dram, pm| MachineDesc::dram_pm(dram / 2, pm / 4));
            runs.extend([base, small]);
        }
    }
    let outcomes = lab.runs(&runs)?;
    let line = |(r, o): (&Run, &RunOutcome)| {
        let counts = [o.promotions, o.demotions, o.stats.evictions].map(|n| n.to_string());
        row(
            r.row(),
            std::iter::once(o.system.label().into()).chain(counts),
        )
    };
    let rows: Vec<Vec<String>> = runs.iter().zip(&outcomes).map(line).collect();
    let headers = ["run", "system", "promotions", "demotions", "evictions"];
    lab.table(&headers, &rows);
    Ok(())
}
