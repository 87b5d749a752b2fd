//! The engine's golden table: `repro`'s `house` rows against the committed
//! appendix of EXPERIMENTS.md.
//!
//! The tick-equivalence contract (DESIGN.md §17): however the engine
//! decides when the tiering daemon runs, a house run must stay
//! *bit-identical* to the one its row pins — same virtual time, same
//! `MemStats`, same per-tick CSV, same tracepoint JSONL, same final page
//! placement, same cost ledger, same open transactions. Each row's
//! fingerprint digests all of them (`Observables`).
//!
//! A *deliberate* behaviour change regenerates EXPERIMENTS.md with `repro`
//! (DESIGN.md §2's last paragraph) and reads its delta, which names the
//! house rows that moved under `house`.

use mc_bench::{repro, Args};
use std::collections::BTreeMap;

/// The appendix rows of `repro` run with `argv`.
fn regenerated(argv: &[&str]) -> String {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let args = Args::parse(&argv).expect("a valid command line");
    repro::generate(&args).unwrap().out
}

/// The committed EXPERIMENTS.md.
fn committed() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    std::fs::read_to_string(path).expect(path)
}

/// The `(run, fingerprint)` rows of `doc`'s appendix.
fn appendix(doc: &str) -> BTreeMap<&str, &str> {
    let lines = doc.lines().skip_while(|l| !l.starts_with("## Appendix"));
    let rows = lines.filter_map(|l| {
        let (run, print) = l
            .strip_prefix("| ")?
            .strip_suffix(" |")?
            .split_once(" | ")?;
        print.starts_with('`').then_some((run.trim(), print.trim()))
    });
    rows.collect()
}

/// The base run — MULTI-CLOCK page at a time on the default machine — is
/// the pin whose chain reaches back to the fixed-period engine (DESIGN.md
/// §17). It is generated here in a lab that runs only MULTI-CLOCK and
/// Static, so its row cannot depend on which other runs share the lab.
#[test]
fn tick_equivalent_engine_matches_pr8_golden() {
    let out = regenerated(&["--only", "house", "--systems", "mc"]);
    let (now, committed) = (appendix(&out), committed());
    let pinned = appendix(&committed);
    assert_eq!(
        now.len(),
        10,
        "eight MULTI-CLOCK and two Static rows: {out}"
    );
    let base = "house · MULTI-CLOCK";
    assert_eq!(now.get(base), pinned.get(base), "{base} moved");
}

/// Every house row, all compared before failing, so a change names each
/// configuration it moves.
#[test]
fn every_migration_mode_and_batch_matches_its_golden() {
    let out = regenerated(&["--only", "house"]);
    let (now, committed) = (appendix(&out), committed());
    let pinned = appendix(&committed);
    assert_eq!(now.len(), 26, "{out}");
    let mut moved = Vec::new();
    for (run, print) in now {
        let pin = pinned.get(run).copied().unwrap_or("missing");
        if print != pin {
            eprintln!("{run}: got {print}, pinned {pin}");
            moved.push(run);
        }
    }
    assert!(
        moved.is_empty(),
        "house rows that differ from the committed appendix: {moved:?}"
    );
}
