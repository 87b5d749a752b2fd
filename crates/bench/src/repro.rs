//! The `repro` document generator: every section draws its experiment
//! runs from one memo (`Lab::runs`), writes Markdown and registers
//! [`Claim`]s; [`generate`] assembles EXPERIMENTS.md and [`Lab::verdict`]
//! is the claim gate.

use crate::report::{markdown_table, Claim, Expectation};
use crate::{sweep, Args};
use mc_mem::MachineDesc;
use mc_sim::experiments::{Experiment, RunOutcome};
use mc_sim::{SimConfig, SystemKind};
use mc_workloads::graph::Kernel;
use mc_workloads::ycsb::YcsbWorkload;
use std::collections::BTreeMap;
use std::fmt::Display;

/// One experiment a section asks for: the row it fills in a table (also
/// its `--obs` sub-directory) and the run itself. The memo is keyed on the
/// row and the system, so whatever sets a run apart from the workload's
/// default setup goes into both at once ([`Run::with`]).
#[derive(Debug, Clone)]
pub(crate) struct Run {
    row: String,
    e: Experiment,
}

impl Run {
    fn new(args: &Args, row: String, e: Experiment) -> Run {
        let e = e.machine(args.machine.1);
        Run { row, e }
    }

    /// `workload` on `system` at the invocation's scale and machine.
    pub(crate) fn ycsb(args: &Args, workload: YcsbWorkload, system: SystemKind) -> Run {
        let e = Experiment::ycsb(workload, system, &args.scale);
        Run::new(args, workload.to_string(), e)
    }

    /// The GAPBS `kernel` on `system`.
    pub(crate) fn gapbs(args: &Args, kernel: Kernel, system: SystemKind) -> Run {
        let e = Experiment::gapbs(kernel, system, &args.scale);
        Run::new(args, kernel.label().to_string(), e)
    }

    /// [`Run::ycsb`] with the footprint sized at 4x DRAM (Fig. 7).
    pub(crate) fn ycsb_4x(args: &Args, workload: YcsbWorkload, system: SystemKind) -> Run {
        let e = Experiment::ycsb(workload, system, &args.scale.memory_mode());
        Run::new(args, format!("{workload}-4x"), e)
    }

    /// [`Run::gapbs`] at the same 4x-DRAM scale (Fig. 7).
    pub(crate) fn gapbs_4x(args: &Args, kernel: Kernel, system: SystemKind) -> Run {
        let e = Experiment::gapbs(kernel, system, &args.scale.memory_mode());
        Run::new(args, format!("{}-4x", kernel.label()), e)
    }

    /// The split micro (§VII) on `system`.
    pub(crate) fn split_micro(args: &Args, system: SystemKind) -> Run {
        let e = Experiment::split_micro(system, &args.scale);
        Run::new(args, "split".into(), e)
    }

    /// The co-location pair (§II) on `system`.
    pub(crate) fn colocation(args: &Args, system: SystemKind) -> Run {
        let e = Experiment::colocation(system, &args.scale);
        Run::new(args, "colocation".into(), e)
    }

    /// The overcommit stream (§III-C) over `ratio` × total memory.
    pub(crate) fn overcommit(args: &Args, system: SystemKind, ratio: f64) -> Run {
        let e = Experiment::overcommit(system, ratio, &args.scale);
        Run::new(args, format!("overcommit-{ratio:.1}x"), e)
    }

    /// The same run on the machine `shape` arranges its budget into, on
    /// the row `<row>-<tag>`.
    pub(crate) fn on(mut self, tag: &str, shape: fn(usize, usize) -> MachineDesc) -> Run {
        self.row = format!("{}-{tag}", self.row);
        self.e = self.e.machine(shape);
        self
    }

    /// The same run with `edit` applied to its configuration, on the row
    /// `<row>-<tag>`.
    pub(crate) fn with(mut self, tag: impl Display, edit: impl FnOnce(&mut SimConfig)) -> Run {
        self.row = format!("{}-{tag}", self.row);
        edit(&mut self.e.cfg);
        self
    }

    /// The same run scanning every `paper_secs` paper seconds (Fig. 10);
    /// one paper second is the default and keeps the row.
    pub(crate) fn every(mut self, args: &Args, paper_secs: f64) -> Run {
        if paper_secs != 1.0 {
            let interval = args.scale.paper_interval(paper_secs);
            self.row = format!("{}-{interval}", self.row);
            self.e = self.e.interval(interval);
        }
        self
    }

    fn key(&self) -> String {
        format!("{} · {}", self.row, self.e.cfg.system.label())
    }
}

/// One invocation: the memo of finished runs, the document written so far
/// and the claims registered so far.
#[derive(Debug)]
pub struct Lab<'a> {
    /// The command line (scale, machine, filters).
    pub args: &'a Args,
    memo: BTreeMap<String, RunOutcome>,
    /// The id of the section being built.
    section: &'static str,
    /// How many experiments actually executed (memo misses).
    pub executed: usize,
    /// The Markdown written so far.
    pub out: String,
    /// The claims registered so far.
    pub claims: Vec<Claim>,
    /// Whether this is the unfiltered run at the pinned `--quick` scale,
    /// the only one whose claims are gated.
    pub gated: bool,
}

impl<'a> Lab<'a> {
    /// An empty lab for one invocation.
    fn new(args: &'a Args) -> Self {
        Lab {
            args,
            memo: BTreeMap::new(),
            section: "",
            executed: 0,
            out: String::new(),
            claims: Vec::new(),
            gated: args.scale_name == "quick"
                && args.machine.0 == "dram-pm"
                && args.only.is_empty()
                && args.systems.is_none(),
        }
    }

    /// `default`, or under `--systems` static plus the named systems.
    pub(crate) fn systems(&self, default: &[SystemKind]) -> Vec<SystemKind> {
        let Some(named) = &self.args.systems else {
            return default.to_vec();
        };
        let named = named.iter().filter(|s| **s != SystemKind::Static);
        std::iter::once(SystemKind::Static)
            .chain(named.copied())
            .collect()
    }

    /// The outcomes of `runs`, in order, executing only those no earlier
    /// request has run. Under `--obs DIR` the named system's runs export
    /// their artifacts to `DIR/<row>/`.
    ///
    /// # Errors
    ///
    /// The first run that fails (out of memory, unwritable obs directory).
    pub(crate) fn runs(&mut self, runs: &[Run]) -> Result<Vec<RunOutcome>, String> {
        let mut missing: Vec<(String, Experiment)> = Vec::new();
        for r in runs {
            let k = r.key();
            if self.memo.contains_key(&k) || missing.iter().any(|(m, _)| *m == k) {
                continue;
            }
            let mut e = r.e.clone();
            if let (Some(dir), Some([named])) = (&self.args.obs, self.args.systems.as_deref()) {
                if e.cfg.system == *named {
                    e.obs_dir = Some(dir.join(&r.row));
                }
            }
            missing.push((k, e));
        }
        self.executed += missing.len();
        for (outcome, k) in sweep(self.args.threads, missing, |(k, e)| (e.run(), k)) {
            let outcome = outcome.map_err(|e| format!("{k}: {e}"))?;
            self.memo.insert(k, outcome);
        }
        Ok(runs.iter().map(|r| self.memo[&r.key()].clone()).collect())
    }

    /// Appends a paragraph (or any Markdown block) to the document.
    pub(crate) fn text(&mut self, block: &str) {
        self.out.push_str(block.trim());
        self.out.push_str("\n\n");
    }

    /// Appends a table to the document.
    pub(crate) fn table<H: AsRef<str>>(&mut self, headers: &[H], rows: &[Vec<String>]) {
        self.out.push_str(&markdown_table(headers, rows));
        self.out.push('\n');
    }

    /// Whether `--systems` removed the systems the claims compare; a
    /// section then stops before its claims.
    pub(crate) fn filtered(&self) -> bool {
        self.args.systems.is_some()
    }

    /// Registers the current section's claim `name`: `statement` holds by
    /// `margin`.
    pub(crate) fn claim(
        &mut self,
        name: &str,
        statement: &'static str,
        expectation: Expectation,
        margin: f64,
    ) {
        self.claims.push(Claim {
            id: format!("{}.{name}", self.section),
            statement,
            margin,
            expectation,
        });
    }

    /// The claim gate.
    ///
    /// # Errors
    ///
    /// On a gated run, the ids of the claims whose outcome contradicts
    /// their pinned expectation.
    pub fn verdict(&self) -> Result<(), String> {
        let bad = self.claims.iter().filter(|c| self.gated && c.contradicts());
        let bad: Vec<&str> = bad.map(|c| c.id.as_str()).collect();
        if bad.is_empty() {
            return Ok(());
        }
        Err(format!(
            "claims contradict their pinned expectation (fix the regression, or re-pin in \
             crates/bench/src/sections.rs): {}",
            bad.join(", ")
        ))
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Generates the document `args` describes: [`Lab::out`] is
/// EXPERIMENTS.md, byte for byte.
///
/// # Errors
///
/// A diagnostic for an unknown `--only` section, an `--obs` without
/// exactly one section and one named system, or a failed run.
pub fn generate(args: &Args) -> Result<Lab<'_>, String> {
    let sections = crate::sections::SECTIONS;
    let known = |o: &String| sections.iter().any(|s| s.0 == o);
    if let Some(bad) = args.only.iter().find(|o| !known(o)) {
        let ids: Vec<&str> = sections.iter().map(|s| s.0).collect();
        return Err(format!(
            "--only: no section `{bad}`; there are {}",
            ids.join(", ")
        ));
    }
    let one_system = matches!(args.systems.as_deref(), Some([_]));
    if args.obs.is_some() && !(args.only.len() == 1 && one_system) {
        return Err("--obs requires --only with one section and --systems with one system".into());
    }
    let s = &args.scale;
    let mut lab = Lab::new(args);
    lab.text(&format!(
        "# EXPERIMENTS — paper vs. measured\n\n\
         <!-- Generated by `cargo run --release -p mc-bench --bin repro`; do not edit. -->\n\n\
         Every table and figure of the paper's evaluation at the `--{}` scale on the `{}` \
         machine: DRAM {} + PM {} pages; YCSB {} × {} B records; GAPBS R-MAT scale {}, degree \
         {}, DRAM {} pages; one \"paper second\" = {} simulated (DESIGN.md §7); seed {}. \
         `--only <id>` regenerates a section by the id in its heading.\n\n\
         The substrate is a calibrated simulator, not the authors' Optane testbed: absolute \
         numbers are not comparable, what is reproduced is the *shape* — who wins, roughly by \
         what factor, where crossovers fall. Each shape statement is a named **claim** in the \
         table near the end: its margin is measured by this run, its expectation is pinned in \
         `crates/bench/src/sections.rs`, and at `--quick` `repro` exits non-zero when the two \
         disagree in either direction. Prose quotes the paper's numbers only; every measured \
         number is generated.",
        args.scale_name,
        args.machine.0,
        s.dram_pages,
        s.pm_pages,
        s.records,
        s.value_size,
        s.graph_scale,
        s.graph_degree,
        s.graph_dram_pages,
        s.interval_unit,
        s.seed,
    ));
    for (id, title, build) in sections {
        if args.only.is_empty() || args.only.iter().any(|o| o == id) {
            eprintln!("repro: section {id} ...");
            lab.section = id;
            lab.text(&format!("## {title} [{id}]"));
            build(&mut lab).map_err(|e| format!("section {id}: {e}"))?;
        }
    }
    let gate = if lab.gated {
        "This run is gated: `repro` fails if an outcome differs from its pin."
    } else {
        "This run is filtered or not at `--quick`: claims are shown, not gated."
    };
    let rows: Vec<Vec<String>> = lab.claims.iter().map(Claim::row).collect();
    if !rows.is_empty() {
        lab.text(&format!(
            "## Claims\n\nMC is MULTI-CLOCK; a margin is in the unit its statement names. {gate}"
        ));
        lab.table(
            &["claim", "statement", "measured", "pinned at `--quick`"],
            &rows,
        );
    }
    lab.text(
        "## Appendix — run fingerprints\n\nOne row per distinct memoised experiment: the \
         64-bit FNV-1a of its whole `RunOutcome` (counts, windows, costs, percentiles), so a \
         change that moves any simulated result moves this file even where no table cell does.",
    );
    let print = |o: &RunOutcome| format!("`{:016x}`", fnv1a(format!("{o:?}").as_bytes()));
    let rows: Vec<Vec<String>> = lab
        .memo
        .iter()
        .map(|(k, o)| vec![k.clone(), print(o)])
        .collect();
    lab.table(&["run", "fingerprint"], &rows);
    lab.out.truncate(lab.out.trim_end().len());
    lab.out.push('\n');
    Ok(lab)
}
