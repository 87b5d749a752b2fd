//! `repro` end to end at `--tiny`: well-formed tables, one execution per
//! distinct experiment, thread-independent bytes, the claim gate, the
//! rejection of bad command lines, a source for every committed claim, and
//! the checks on the `house` runs that their pins alone cannot make (the
//! pins themselves: `scheduler_differential.rs`).

use mc_bench::report::{Claim, Expectation};
use mc_bench::{repro, Args};
use mc_mem::{Charge, Nanos};
use mc_sim::SystemKind;
use std::collections::BTreeMap;
use std::process::Command;

/// The sections cheap enough to run whole in a debug build.
const CHEAP: &str = "fig1,fig2,table1,fig6,overcommit";

fn args(argv: &[&str]) -> Args {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let mut args = Args::parse(&argv).expect("a valid command line");
    // Seconds, not minutes, in a debug build.
    args.scale.graph_scale = 8;
    args.scale.warmup = Nanos::from_millis(100);
    args.scale.measure = Nanos::from_millis(100);
    args
}

#[test]
fn cheap_sections_emit_well_formed_markdown_tables() {
    let args = args(&["--tiny", "--only", CHEAP]);
    let lab = repro::generate(&args).unwrap();
    let lines: Vec<&str> = lab.out.lines().collect();
    let mut tables = 0;
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].starts_with('|') {
            i += 1;
            continue;
        }
        tables += 1;
        let columns = lines[i].matches('|').count();
        assert!(
            columns >= 3,
            "a table has at least two columns: {}",
            lines[i]
        );
        let rule = lines[i + 1];
        assert!(rule.chars().all(|c| "|- ".contains(c)), "rule row: {rule}");
        while i < lines.len() && lines[i].starts_with('|') {
            assert!(lines[i].ends_with('|'), "{}", lines[i]);
            assert_eq!(lines[i].matches('|').count(), columns, "{}", lines[i]);
            i += 1;
        }
    }
    // 1 + 1 + 1 + 2 + 1 section tables, then claims and fingerprints.
    assert_eq!(tables, 8, "{}", lab.out);
    for id in CHEAP.split(',') {
        assert!(
            lab.out.contains(&format!("[{id}]\n")),
            "section {id} missing"
        );
    }
    assert!(!lab.out.contains("[fig5]"), "--only filters");
    assert_eq!(
        lab.executed, 50,
        "fig6's 6 kernels x 7 systems and overcommit's 4 footprints x 2 systems"
    );
}

#[test]
fn a_configuration_two_sections_ask_for_runs_once() {
    // Fig. 8 and Fig. 9 both want YCSB-A under MULTI-CLOCK and Nimble.
    let both = args(&["--tiny", "--only", "fig8,fig9"]);
    let lab = repro::generate(&both).unwrap();
    assert_eq!(lab.executed, 2);
    assert_eq!(lab.out.matches("| A · ").count(), 2, "two fingerprint rows");
    let one = args(&["--tiny", "--only", "fig9"]);
    assert_eq!(repro::generate(&one).unwrap().executed, 2);
}

#[test]
fn the_fault_and_batch_sweeps_share_the_uninjected_runs() {
    let lab = args(&["--tiny", "--only", "fig8,chaos,batch"]);
    let lab = repro::generate(&lab).unwrap();
    // Fig. 8's pair, 5 rates x 2 systems, Nomad's uninjected run and
    // batches 2-16: MULTI-CLOCK's uninjected run and batch 1 are Fig. 8's.
    assert_eq!(lab.executed, 2 + 10 + 1 + 4);
    assert_eq!(lab.out.matches("| A · MULTI-CLOCK ").count(), 1);
    assert_eq!(lab.out.matches("| A-fault0.4 · ").count(), 2);
    assert_eq!(lab.out.matches("| A-batch").count(), 4);
    let ids: Vec<&str> = lab.claims.iter().map(|c| c.id.as_str()).collect();
    let count = |section: &str| ids.iter().filter(|id| id.starts_with(section)).count();
    assert_eq!((count("chaos."), count("batch.")), (3, 3), "{ids:?}");
}

#[test]
fn output_bytes_do_not_depend_on_the_thread_count() {
    let sections = format!("{CHEAP},chaos,batch");
    let sequential = args(&["--tiny", "--only", &sections, "--threads", "1"]);
    let parallel = args(&["--tiny", "--only", &sections, "--threads", "4"]);
    let a = repro::generate(&sequential).unwrap();
    let b = repro::generate(&parallel).unwrap();
    assert_eq!(a.out, b.out);
    assert!(a.out.ends_with("` |\n"), "ends with the fingerprint table");
}

#[test]
fn the_gate_fires_in_both_directions_and_only_on_the_pinned_run() {
    let claim = |id: &str, margin: f64, expectation| Claim {
        id: id.to_string(),
        source: "DESIGN.md §5",
        statement: "a test claim",
        margin,
        expectation,
    };
    let tiny = args(&["--tiny", "--only", "fig1"]);
    let mut lab = repro::generate(&tiny).unwrap();
    assert!(!lab.gated, "--tiny and --only are not gated");
    assert!(!lab.claims.is_empty(), "claims are still shown");
    lab.claims = vec![
        claim("t.regressed", -0.1, Expectation::Holds),
        claim("t.fixed", 0.1, Expectation::Deviates("it used to fail")),
        claim("t.still_holds", 0.0, Expectation::Holds),
        claim("t.still_deviates", -0.1, Expectation::Deviates("known")),
    ];
    assert_eq!(
        lab.verdict(),
        Ok(()),
        "an ungated run never fails on claims"
    );
    lab.gated = true;
    let msg = lab.verdict().unwrap_err();
    assert!(
        msg.contains("t.regressed") && msg.contains("t.fixed"),
        "{msg}"
    );
    assert!(!msg.contains("t.still"), "{msg}");

    // What makes a run the gated one: --quick, no filter.
    let gated = |argv: &[&str]| repro::generate(&args(argv)).unwrap().gated;
    assert!(!gated(&["--only", "fig1"]));
    assert!(!gated(&["--tiny", "--only", "fig2", "--systems", "nomad"]));
    let quick = args(&[]);
    assert_eq!(
        (quick.scale_name, quick.only.len(), &quick.systems),
        ("quick", 0, &None)
    );
}

#[test]
fn section_ids_are_unique_and_unknown_ones_are_rejected() {
    let err = repro::generate(&args(&["--only", "fig1,nosuch"])).unwrap_err();
    assert!(err.contains("no section `nosuch`"), "{err}");
    let listed = err.rsplit("there are ").next().unwrap();
    let ids: Vec<&str> = listed.split(", ").collect();
    assert_eq!(ids.len(), 15, "{err}");
    let unique: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "duplicate section id in {ids:?}");
    let obs = args(&["--only", "fig5", "--obs", "/tmp/x"]);
    let err = repro::generate(&obs).unwrap_err();
    assert!(err.contains("--obs requires"), "{err}");
}

#[test]
fn the_binary_exits_2_on_a_bad_command_line_and_0_on_a_good_one() {
    let repro = |argv: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(argv)
            .output();
        let out = out.expect("repro runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
            out.stdout,
        )
    };
    let (code, stderr, stdout) = repro(&["--polcy", "nomad"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("unknown flag `--polcy`") && stderr.contains("usage:"),
        "{stderr}"
    );
    assert!(stdout.is_empty());
    assert_eq!(repro(&["--threads"]).0, Some(2), "missing value");
    // The flags of the deleted sweep binaries did not move here.
    assert_eq!(repro(&["--fault-rate", "0.2"]).0, Some(2));
    assert_eq!(repro(&["--batches", "1,8"]).0, Some(2));
    assert_eq!(repro(&["--only", "nosuch"]).0, Some(2));
    let (code, stderr, stdout) = repro(&["--tiny", "--only", "fig1,fig2"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("0 experiments executed"), "{stderr}");
    assert!(String::from_utf8_lossy(&stdout).starts_with("# EXPERIMENTS"));
}

/// The committed EXPERIMENTS.md, PAPERS.md or DESIGN.md.
fn committed(file: &str) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    std::fs::read_to_string(format!("{root}{file}")).expect(file)
}

/// What the pins alone cannot say, on each run's own values (DESIGN.md
/// §17): no run latches a `RunError` (`generate` would fail), every clock
/// is the sum of its ledger, every system but Static promotes, every
/// `house-small` run evicts, and the injector fires.
#[test]
fn every_house_run_balances_its_clock_and_reaches_its_path() {
    let house = args(&["--only", "house"]);
    let lab = repro::generate(&house).unwrap();
    let mut demotions = BTreeMap::new();
    for (run, o, observed) in lab.finished() {
        let v = observed.expect("a house run carries its observables");
        let on_clock = Charge::ALL.into_iter().filter(|c| c.on_clock());
        let on_clock = on_clock.fold(Nanos::ZERO, |sum, c| sum + v.time.get(c));
        assert_eq!(v.now, on_clock, "{run}: the clock left its ledger");
        let t = |c| v.time.get(c);
        let stalls = t(Charge::MinorFault)
            + t(Charge::HintFault)
            + t(Charge::MigrationStall)
            + t(Charge::SwapIn);
        let c = &v.costs;
        assert_eq!(c.access_time, t(Charge::Device), "{run}");
        assert_eq!(c.stall_time, stalls, "{run}");
        assert_eq!(c.daemon_time, t(Charge::DaemonCpu), "{run}");
        assert_eq!(c.background_time, t(Charge::Background), "{run}");
        assert_eq!((o.promotions, o.demotions), (v.promotions, v.demotions));
        if o.system == SystemKind::Static {
            assert_eq!(o.promotions, 0, "{run} never migrates");
        } else {
            assert!(o.promotions > 0, "{run} must exercise promotion");
        }
        if run.starts_with("house-small ") {
            assert!(
                o.stats.evictions > 0,
                "{run} must evict from the lowest tier"
            );
        }
        demotions.insert(run, o.demotions);
    }
    assert_eq!(demotions.len(), 26);
    let mc = |row: &str| demotions[format!("{row} · MULTI-CLOCK").as_str()];
    assert!(
        mc("house-chaos") > mc("house"),
        "the injector must fire for the chaos rows to mean anything"
    );
}

/// Checks that a statement cell of the claims table opens with a source
/// in one of `Claim::source`'s three forms: a part of the paper (`Fig. 5`,
/// `Table I`, `§V-F`), an arXiv id that `papers` (PAPERS.md) lists, or
/// `DESIGN.md §N` where `design` (DESIGN.md) has a `## N.` heading.
fn check_source(cell: &str, papers: &str, design: &str) -> Result<(), String> {
    let (source, _) = cell
        .split_once(": ")
        .ok_or_else(|| format!("no `source: ` prefix in {cell:?}"))?;
    let numeral = |s: &str| !s.is_empty() && s.chars().all(|c| "IVX".contains(c));
    let number = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_digit());
    let ok = if let Some(n) = source.strip_prefix("Fig. ") {
        number(n)
    } else if let Some(n) = source.strip_prefix("Table ") {
        numeral(n)
    } else if let Some(id) = source.strip_prefix("arXiv ") {
        let form = id
            .split_once('.')
            .is_some_and(|(a, b)| number(a) && number(b));
        form && papers.contains(id)
    } else if let Some(n) = source.strip_prefix("DESIGN.md §") {
        number(n) && design.lines().any(|l| l.starts_with(&format!("## {n}. ")))
    } else if let Some(part) = source.strip_prefix('§') {
        let (section, sub) = part.split_once('-').unwrap_or((part, "A"));
        let letter = sub.len() == 1 && sub.chars().all(|c| c.is_ascii_uppercase());
        numeral(section) && letter
    } else {
        false
    };
    ok.then_some(()).ok_or_else(|| {
        format!("`{source}` is no part of the paper, PAPERS.md entry or DESIGN.md section")
    })
}

#[test]
fn every_committed_claim_names_its_source() {
    let [doc, papers, design] = ["EXPERIMENTS.md", "PAPERS.md", "DESIGN.md"].map(committed);
    let table = doc.lines().skip_while(|l| !l.starts_with("## Claims"));
    let rows = table.take_while(|l| !l.starts_with("## Appendix"));
    let cells = rows.filter(|l| l.starts_with("| `")).map(|l| {
        let cells: Vec<&str> = l.split('|').map(str::trim).collect();
        (cells[1], cells[2])
    });
    let cells: Vec<(&str, &str)> = cells.collect();
    assert!(
        cells.len() > 40,
        "the claims table is missing: {}",
        cells.len()
    );
    for (id, statement) in cells {
        if let Err(e) = check_source(statement, &papers, &design) {
            panic!("{id}: {e}");
        }
    }

    let check = |cell| check_source(cell, &papers, &design);
    for good in [
        "Fig. 10: s",
        "Table I: s",
        "§II: s",
        "§V-F: s",
        "arXiv 2401.13154: s",
    ] {
        assert_eq!(check(good), Ok(()), "{good}");
    }
    assert_eq!(check("DESIGN.md §11: s"), Ok(()));
    for bad in [
        "MC beats static",
        ": MC beats static",
        "arXiv 2401.99999: s",
        "DESIGN.md §99: s",
        "Fig. 5a: s",
        "§5: s",
        "the paper: s",
    ] {
        assert!(check(bad).is_err(), "{bad} is accepted");
    }
}
