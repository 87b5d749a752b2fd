//! The `repro` document generator: every section draws its experiment
//! runs from one memo (`Lab::runs`), writes Markdown and registers
//! [`Claim`]s; [`generate`] assembles EXPERIMENTS.md, [`Lab::verdict`]
//! is the claim gate and [`Lab::delta`] compares a gated run with the
//! committed document.

use crate::report::{markdown_table, Claim, Expectation};
use crate::{sweep, Args};
use mc_mem::MachineDesc;
use mc_sim::experiments::{Experiment, RunOutcome, Scale};
use mc_sim::{SimConfig, SystemKind};
use mc_workloads::graph::Kernel;
use mc_workloads::ycsb::YcsbWorkload;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::path::Path;

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
    /// Per section, in document order, the memo keys of the runs it asked for.
    requested: Vec<(&'static str, BTreeSet<String>)>,
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
            requested: Vec::new(),
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
            if let Some((_, keys)) = self.requested.last_mut() {
                keys.insert(k.clone());
            }
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

    /// Registers the current section's claim `name`: `statement`, as
    /// `source` states it, holds by `margin`.
    pub(crate) fn claim(
        &mut self,
        name: &str,
        source: &'static str,
        statement: &'static str,
        expectation: Expectation,
        margin: f64,
    ) {
        self.claims.push(Claim {
            id: format!("{}.{name}", self.section),
            source,
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

    /// On a gated run, what this run changes against the EXPERIMENTS.md
    /// committed in the workspace around `start` (found as `repro --count`
    /// finds it): the claims that moved, the `Deviates` pin count and the
    /// changed, added and removed fingerprints per section. One line when
    /// nothing changed or the file cannot be read; `None` on other runs.
    pub fn delta(&self, start: &Path) -> Option<String> {
        if !self.gated {
            return None;
        }
        let path = crate::source::workspace_root(start).map(|root| root.join("EXPERIMENTS.md"));
        let read = path
            .and_then(|p| std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display())));
        Some(match read.as_deref() {
            Err(msg) => format!("repro: no committed EXPERIMENTS.md to compare with ({msg})\n"),
            Ok("") => {
                "repro: the committed EXPERIMENTS.md is empty (is stdout redirected onto it?)\n"
                    .into()
            }
            Ok(old) => delta(old, &self.out, &self.requested),
        })
    }
}

/// The `|`-delimited rows with `cols` cells of the table in `doc`'s
/// section headed `heading`, trimmed, without the header and rule rows.
fn table_rows<'d>(doc: &'d str, heading: &str, cols: usize) -> Vec<Vec<&'d str>> {
    let lines = doc.lines().skip_while(|l| !l.starts_with(heading)).skip(1);
    let section = lines.take_while(|l| !l.starts_with("## "));
    let rows = section.filter_map(|l| {
        let cells = l.strip_prefix('|')?.strip_suffix('|')?.split('|');
        let cells: Vec<&str> = cells.map(str::trim).collect();
        (cells.len() == cols).then_some(cells)
    });
    rows.skip(2).collect()
}

/// Each claim of `doc`: its id, and its measured cell with its pin's
/// first word (`holds (+0.31) · holds`).
fn claims(doc: &str) -> Vec<(&str, String)> {
    let rows = table_rows(doc, "## Claims", 4).into_iter();
    let pin = |cell: &str| cell.split(':').next().unwrap_or_default().to_string();
    rows.map(|c| (c[0], format!("{} · {}", c[2], pin(c[3]))))
        .collect()
}

/// What the document `new` changes against `old`, as Markdown: a row per
/// claim whose measured cell or pinned outcome moved (flipped when it went from
/// holds to fails or back), the `Deviates` pin count before and after,
/// and per section of `requested` (the memo keys each asked for) its
/// changed and added fingerprints, removed ones in a last row.
fn delta(old: &str, new: &str, requested: &[(&str, BTreeSet<String>)]) -> String {
    if old == new {
        return "repro: no change against the committed EXPERIMENTS.md\n".into();
    }
    let (old_claims, new_claims) = (claims(old), claims(new));
    let was: BTreeMap<&str, &String> = old_claims.iter().map(|(id, o)| (*id, o)).collect();
    let now: BTreeMap<&str, &String> = new_claims.iter().map(|(id, o)| (*id, o)).collect();
    let mut ids: Vec<&str> = new_claims.iter().map(|c| c.0).collect();
    ids.extend(
        old_claims
            .iter()
            .map(|c| c.0)
            .filter(|id| !now.contains_key(id)),
    );
    let mut moved = Vec::new();
    for id in ids {
        let (w, n) = (was.get(id).copied(), now.get(id).copied());
        if w == n {
            continue;
        }
        let verb = |o: &String| o.split(' ').next().map(str::to_string);
        let flipped = w.zip(n).is_some_and(|(w, n)| verb(w) != verb(n));
        let flipped = if flipped { "yes" } else { "no" };
        let cell = |o: Option<&String>| o.map_or("—".to_string(), String::clone);
        moved.push(vec![id.to_string(), cell(w), cell(n), flipped.into()]);
    }
    let pins = |c: &[(&str, String)]| c.iter().filter(|c| c.1.ends_with("deviates")).count();
    let prints = |doc| -> BTreeMap<&str, &str> {
        let rows = table_rows(doc, "## Appendix", 2).into_iter();
        rows.map(|c| (c[0], c[1])).collect()
    };
    let (old_prints, new_prints) = (prints(old), prints(new));
    let row = |section: &str, counts: [usize; 3]| {
        let counts = counts.map(|n| n.to_string());
        [vec![section.to_string()], counts.to_vec()].concat()
    };
    let mut runs = Vec::new();
    for (section, keys) in requested {
        let [mut changed, mut added] = [0, 0];
        for k in keys {
            match (old_prints.get(k.as_str()), new_prints.get(k.as_str())) {
                (None, _) => added += 1,
                (o, n) if o != n => changed += 1,
                _ => {}
            }
        }
        if changed + added > 0 {
            runs.push(row(section, [changed, added, 0]));
        }
    }
    let removed = old_prints.keys().filter(|k| !new_prints.contains_key(*k));
    match removed.count() {
        0 => {}
        removed => runs.push(row("—", [0, 0, removed])),
    }
    let mut out = String::from("### Delta against the committed EXPERIMENTS.md\n\n");
    if !moved.is_empty() {
        out.push_str(&markdown_table(
            &["claim", "before", "after", "flipped"],
            &moved,
        ));
        out.push('\n');
    }
    let (before, after) = (pins(&old_claims), pins(&new_claims));
    out.push_str(&format!("`Deviates` pins: {before} → {after}\n\n"));
    if !runs.is_empty() {
        let headers = ["section", "changed runs", "added runs", "removed runs"];
        out.push_str(&markdown_table(&headers, &runs));
    }
    if moved.is_empty() && runs.is_empty() {
        out.push_str("Claims and fingerprints are unchanged; other text differs.\n");
    }
    out
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
        Scale::VALUE_SIZE,
        s.graph_scale,
        s.graph_degree,
        s.graph_dram_pages,
        s.interval_unit,
        Scale::SEED,
    ));
    for (id, title, build) in sections {
        if args.only.is_empty() || args.only.iter().any(|o| o == id) {
            eprintln!("repro: section {id} ...");
            lab.section = id;
            lab.requested.push((id, BTreeSet::new()));
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A document with the claims `(id, measured, pinned)` and the
    /// fingerprints `(run, print)`, laid out as `generate` lays them out.
    fn doc(claims: &[(&str, &str, &str)], prints: &[(&str, &str)]) -> String {
        let claims: Vec<Vec<String>> = claims
            .iter()
            .map(|(id, m, p)| vec![format!("`{id}`"), "s".into(), m.to_string(), p.to_string()])
            .collect();
        let prints: Vec<Vec<String>> = prints
            .iter()
            .map(|(run, p)| vec![run.to_string(), format!("`{p}`")])
            .collect();
        format!(
            "# E\n\n## Fig [fig5]\n\n| a | b |\n| - | - |\n| x | y |\n\n## Claims\n\nText.\n\n{}\n\
             ## Appendix — run fingerprints\n\nText.\n\n{}",
            markdown_table(&["claim", "statement", "measured", "pinned"], &claims),
            markdown_table(&["run", "fingerprint"], &prints),
        )
    }

    #[test]
    fn the_delta_names_moved_claims_pins_and_fingerprints_per_section() {
        let old = doc(
            &[
                ("c.flips", "fails (-0.06)", "deviates: why"),
                ("c.moves", "holds (+0.33)", "holds"),
                ("c.same", "holds (+1.00)", "holds"),
            ],
            &[("A · MC", "01"), ("A · Static", "02"), ("B · Static", "03")],
        );
        let new = doc(
            &[
                ("c.flips", "holds (+0.00)", "holds"),
                ("c.moves", "holds (+0.31)", "holds"),
                ("c.same", "holds (+1.00)", "holds"),
            ],
            &[("A · MC", "09"), ("A · Static", "02"), ("C · MC", "04")],
        );
        let keys = |ks: &[&str]| ks.iter().map(|k| k.to_string()).collect();
        let requested = [
            ("fig5", keys(&["A · MC", "A · Static"])),
            ("fig6", keys(&["A · Static"])),
            ("colocation", keys(&["A · Static", "C · MC"])),
        ];
        let out = delta(&old, &new, &requested);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            [
                "### Delta against the committed EXPERIMENTS.md",
                "",
                "| claim     | before                   | after                 | flipped |",
                "| --------- | ------------------------ | --------------------- | ------- |",
                "| `c.flips` | fails (-0.06) · deviates | holds (+0.00) · holds | yes     |",
                "| `c.moves` | holds (+0.33) · holds    | holds (+0.31) · holds | no      |",
                "",
                "`Deviates` pins: 1 → 0",
                "",
                "| section    | changed runs | added runs | removed runs |",
                "| ---------- | ------------ | ---------- | ------------ |",
                "| fig5       | 1            | 0          | 0            |",
                "| colocation | 0            | 1          | 0            |",
                "| —          | 0            | 0          | 1            |",
            ],
            "{out}"
        );
        assert_eq!(
            delta(&new, &new, &requested),
            "repro: no change against the committed EXPERIMENTS.md\n"
        );
    }
}
