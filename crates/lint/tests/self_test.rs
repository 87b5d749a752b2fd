//! Negative tests: each lint class must fire, with a file:line diagnostic,
//! when fed a deliberately violating source tree — and stay quiet on the
//! equivalent compliant code. These are the linter's own regression suite;
//! the real tree is covered by `workspace_clean.rs`.

use mc_lint::source::SourceFile;
use mc_lint::{lints, Workspace};

/// A tiny synthetic workspace: a PageState enum plus one file under test.
fn ws_with(files: &[(&str, &str)]) -> Workspace {
    let mut ws = Workspace::default();
    ws.files.push(SourceFile::from_source(
        "crates/core/src/state.rs",
        "/// States.\npub enum PageState {\n    InactiveUnref,\n    InactiveRef,\n    ActiveUnref,\n    ActiveRef,\n    Promote,\n    Unevictable,\n}\n",
    ));
    for (rel, src) in files {
        ws.files.push(SourceFile::from_source(rel, src));
    }
    ws
}

#[test]
fn state_machine_flags_wildcard_arms() {
    let ws = ws_with(&[(
        "crates/core/src/bad.rs",
        "fn f(s: PageState) -> u32 {\n    match s {\n        PageState::Promote => 1,\n        _ => 0,\n    }\n}\n",
    )]);
    let diags = lints::state_machine::check(&ws);
    let hit = diags
        .iter()
        .find(|d| d.file == "crates/core/src/bad.rs")
        .expect("wildcard arm must be reported");
    assert_eq!(hit.line, 4, "diagnostic must point at the `_` arm line");
    assert!(hit.message.contains("catch-all"));
}

#[test]
fn state_machine_flags_binding_catch_alls_but_not_guards() {
    let ws = ws_with(&[(
        "crates/core/src/bad.rs",
        "fn f(s: PageState) -> u32 {\n    match s {\n        PageState::Promote if true => 1,\n        other => 0,\n    }\n}\n",
    )]);
    let diags = lints::state_machine::check(&ws);
    assert!(
        diags
            .iter()
            .any(|d| d.file == "crates/core/src/bad.rs" && d.message.contains("`other`")),
        "a bare binding arm is a catch-all: {diags:?}"
    );
}

#[test]
fn state_machine_ignores_test_code_and_other_crates() {
    let wildcard =
        "fn f(s: PageState) -> u32 {\n    match s {\n        PageState::Promote => 1,\n        _ => 0,\n    }\n}\n";
    let in_test = format!("#[cfg(test)]\nmod tests {{\n{wildcard}\n}}\n");
    let ws = ws_with(&[
        ("crates/core/src/ok.rs", in_test.as_str()),
        ("crates/sim/src/other.rs", wildcard),
    ]);
    let diags = lints::state_machine::check(&ws);
    assert!(
        !diags
            .iter()
            .any(|d| d.file.ends_with("ok.rs") || d.file.ends_with("other.rs")),
        "test code and out-of-scope crates are exempt: {diags:?}"
    );
}

#[test]
fn state_machine_flags_unknown_fig4_ids() {
    let ws = ws_with(&[("crates/core/src/bad.rs", "// fig4: 14\nfn g() {}\n")]);
    let diags = lints::state_machine::check(&ws);
    assert!(
        diags.iter().any(|d| d.file == "crates/core/src/bad.rs"
            && d.line == 1
            && d.message.contains("unknown transition id 14")),
        "{diags:?}"
    );
}

#[test]
fn design_table_mismatch_is_reported() {
    let mut ws = ws_with(&[]);
    ws.design_md = Some(
        "x\n<!-- fig4:begin -->\n| 1 | ActiveRef | Promote | wrong |\n<!-- fig4:end -->\n".into(),
    );
    let diags = lints::state_machine::check(&ws);
    assert!(
        diags
            .iter()
            .any(|d| d.file == "DESIGN.md" && d.message.contains("canonical table")),
        "row (1) contradicts the canonical table: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("missing row (2)")),
        "absent rows must be reported: {diags:?}"
    );
}

#[test]
fn layering_flags_upward_imports() {
    let mut ws = ws_with(&[(
        "crates/mem/src/bad.rs",
        "use multi_clock::MultiClock;\n\npub fn f() -> usize {\n    multi_clock::SIZE\n}\n",
    )]);
    ws.manifests.push((
        "crates/mem/Cargo.toml".into(),
        "[package]\nname = \"mc-mem\"\n\n[dependencies]\nmulti-clock.workspace = true\n".into(),
    ));
    let diags = lints::layering::check(&ws);
    let manifest_hit = diags
        .iter()
        .find(|d| d.file == "crates/mem/Cargo.toml")
        .expect("manifest dependency must be reported");
    assert_eq!(manifest_hit.line, 5);
    assert!(
        diags
            .iter()
            .filter(|d| d.file == "crates/mem/src/bad.rs")
            .count()
            >= 2,
        "both source references must be reported: {diags:?}"
    );
}

#[test]
fn layering_allows_downward_and_dev_scope() {
    let mut ws = ws_with(&[
        ("crates/sim/src/ok.rs", "use mc_workloads::Memory;\n"),
        ("crates/mem/tests/ok.rs", "use multi_clock::MultiClock;\n"),
    ]);
    ws.manifests.push((
        "crates/sim/Cargo.toml".into(),
        "[package]\nname = \"mc-sim\"\n\n[dependencies]\nmc-workloads.workspace = true\n\n[dev-dependencies]\nmc-bench = { path = \"x\" }\n".into(),
    ));
    let diags = lints::layering::check(&ws);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn boundary_flags_foreign_list_mutation() {
    let ws = ws_with(&[(
        "crates/sim/src/bad.rs",
        "fn f(mc: &mut M) {\n    mc.tiers[0].anon.inactive.push_back(frame);\n}\n",
    )]);
    let diags = lints::boundary::check(&ws);
    let hit = diags
        .iter()
        .find(|d| d.file == "crates/sim/src/bad.rs")
        .expect("must fire");
    assert_eq!(hit.line, 2);
    assert!(hit.message.contains("push_back"));
}

#[test]
fn boundary_flags_mut_accessors_and_assignment() {
    let ws = ws_with(&[(
        "crates/core/src/validate_bad.rs",
        "fn f(mc: &mut M) {\n    mc.tiers[0].set_mut(kind);\n    mc.lists.active = new_list;\n}\n",
    )]);
    let diags = lints::boundary::check(&ws);
    assert!(
        diags
            .iter()
            .any(|d| d.line == 2 && d.message.contains("set_mut")),
        "{diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.line == 3 && d.message.contains("assigns")),
        "{diags:?}"
    );
}

#[test]
fn boundary_flags_txn_table_mutation_outside_the_commit_boundary() {
    // A "transaction" that reaches into `MemorySystem` and mutates the
    // txn/shadow tables directly, bypassing the commit boundary
    // (migrate_pages/resolve_migrations/migrate).
    let ws = ws_with(&[(
        "crates/core/src/rogue_txn.rs",
        "fn commit_early(mem: &mut MemorySystem, txn: MigrationTxn) {\n    mem.txns.push(txn);\n    mem.shadows.remove(txn.frame);\n}\n",
    )]);
    let diags = lints::boundary::check(&ws);
    assert!(
        diags
            .iter()
            .any(|d| d.line == 2 && d.message.contains("`txns`")),
        "a direct txn-table push must be reported: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.line == 3 && d.message.contains("`shadows`")),
        "a direct shadow-table removal must be reported: {diags:?}"
    );
    assert!(
        diags.iter().all(|d| d.message.contains("commit boundary")),
        "the diagnostic names the commit boundary: {diags:?}"
    );
}

#[test]
fn boundary_exempts_commit_boundary_and_txn_reads() {
    let mutation = "fn f(mem: &mut MemorySystem) {\n    mem.txns.push(txn);\n    mem.shadows.insert(live, copy);\n}\n";
    let ws = ws_with(&[
        // Inside the commit boundary: both mem files may mutate freely.
        ("crates/mem/src/system.rs", mutation),
        ("crates/mem/src/txn.rs", mutation),
        // Reads are fine anywhere.
        (
            "crates/core/src/reads.rs",
            "fn g(mem: &MemorySystem) -> usize {\n    mem.txns.len() + mem.shadows.len()\n}\n",
        ),
        // A file declaring its *own* `txns`/`shadows` fields is exempt
        // for them (lookalike private state, not the guarded tables).
        (
            "crates/policies/src/own_txn.rs",
            "struct Ledger {\n    txns: Vec<u32>,\n    shadows: Vec<u32>,\n}\nfn h(l: &mut Ledger) {\n    l.txns.push(1);\n    l.shadows.clear();\n}\n",
        ),
    ]);
    let diags = lints::boundary::check(&ws);
    assert!(
        diags.is_empty(),
        "commit boundary, reads and own fields are fine: {diags:?}"
    );
}

#[test]
fn boundary_exempts_own_fields_and_reads() {
    let ws = ws_with(&[
        (
            "crates/policies/src/own.rs",
            "struct MyLists {\n    inactive: Vec<u32>,\n}\nfn f(s: &mut S) {\n    s.tiers[0].inactive.push_back(frame);\n}\n",
        ),
        (
            "crates/sim/src/reads.rs",
            "fn g(mc: &M) -> usize {\n    mc.lists.inactive.len() + mc.lists.active.iter().count()\n}\n",
        ),
    ]);
    let diags = lints::boundary::check(&ws);
    assert!(
        diags.is_empty(),
        "own lists and read-only access are fine: {diags:?}"
    );
}

#[test]
fn panic_lint_requires_annotation_and_allowlist() {
    let bare = (
        "crates/mem/src/bad.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let ws = ws_with(&[bare]);
    let diags = lints::panics::check(&ws);
    let hit = diags
        .iter()
        .find(|d| d.file == "crates/mem/src/bad.rs")
        .expect("must fire");
    assert_eq!(hit.line, 2);

    // Annotated but not allowlisted: still a violation (different message).
    let annotated = (
        "crates/mem/src/bad.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    // lint: allow(panic) - checked above\n    x.unwrap()\n}\n",
    );
    let ws = ws_with(&[annotated]);
    let diags = lints::panics::check(&ws);
    assert!(
        diags.iter().any(|d| d.message.contains("not listed")),
        "{diags:?}"
    );

    // Annotated and allowlisted: clean.
    let mut ws = ws_with(&[annotated]);
    ws.panic_allowlist = Some("crates/mem/src/bad.rs\n".into());
    assert!(lints::panics::check(&ws).is_empty());

    // Stale allowlist entry: flagged by the suppression audit (which only
    // judges the allowlist when both panic passes ran — run_all does).
    let mut ws = ws_with(&[]);
    ws.panic_allowlist = Some("crates/mem/src/gone.rs\n".into());
    let diags = mc_lint::run_all(&ws);
    assert!(
        diags
            .iter()
            .any(|d| d.lint == "suppression" && d.message.contains("stale allowlist entry")),
        "{diags:?}"
    );
}

#[test]
fn panic_lint_ignores_tests_and_unwrap_or() {
    let ws = ws_with(&[(
        "crates/mem/src/ok.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        Some(1).unwrap();\n        panic!(\"fine here\");\n    }\n}\n",
    )]);
    let diags = lints::panics::check(&ws);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn determinism_flags_hash_iteration_and_ambient_entropy() {
    let ws = ws_with(&[(
        "crates/mem/src/bad.rs",
        "use std::collections::HashMap;\npub fn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n    for (k, v) in m.iter() {\n        drop((k, v));\n    }\n    let r = thread_rng();\n    drop(r);\n}\n",
    )]);
    let diags = lints::determinism::check(&ws);
    assert!(
        diags
            .iter()
            .any(|d| d.line == 4 && d.message.contains("unspecified order")),
        "hash-map iteration must be reported: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.line == 7 && d.message.contains("thread_rng")),
        "ambient entropy must be reported: {diags:?}"
    );
    // Wall clocks are the wallclock pass's business now, not this one's.
    assert!(
        !diags.iter().any(|d| d.message.contains("Instant")),
        "{diags:?}"
    );
}

#[test]
fn wallclock_flags_host_clocks_outside_the_boundary() {
    let bad = "use std::time::Instant;\npub fn f() -> u64 {\n    let t = Instant::now();\n    t.elapsed().as_nanos() as u64\n}\n";
    let ws = ws_with(&[
        ("crates/sim/src/bad.rs", bad),
        (
            "crates/policies/src/worse.rs",
            "pub fn g() {\n    let _ = std::time::SystemTime::now();\n}\n",
        ),
        // Inside the boundary: the perf module and the bench harness.
        ("crates/obs/src/perf.rs", bad),
        ("crates/bench/src/bin/timer.rs", bad),
    ]);
    let diags = lints::wallclock::check(&ws);
    assert!(
        diags
            .iter()
            .any(|d| d.file == "crates/sim/src/bad.rs" && d.line == 1),
        "the `use` line must be reported: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.file == "crates/sim/src/bad.rs" && d.line == 3),
        "the construction site must be reported: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.file == "crates/policies/src/worse.rs" && d.message.contains("SystemTime")),
        "SystemTime anywhere in library code is out of bounds: {diags:?}"
    );
    assert!(
        !diags
            .iter()
            .any(|d| d.file.starts_with("crates/obs/") || d.file.starts_with("crates/bench/")),
        "the sanctioned boundary must stay quiet: {diags:?}"
    );
}

#[test]
fn wallclock_honors_markers_and_skips_tests() {
    let ws = ws_with(&[(
        "crates/sim/src/timed.rs",
        "// lint: allow(wallclock) - documented exception for this test fixture\nuse std::time::Instant;\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _ = std::time::Instant::now();\n    }\n}\n",
    )]);
    let diags = lints::wallclock::check(&ws);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn determinism_accepts_btree_and_keyed_lookups() {
    let ws = ws_with(&[(
        "crates/mem/src/ok.rs",
        "use std::collections::{BTreeMap, HashMap};\npub fn f() {\n    let b: BTreeMap<u32, u32> = BTreeMap::new();\n    for (k, v) in b.iter() {\n        drop((k, v));\n    }\n    let m: HashMap<u32, u32> = HashMap::new();\n    drop(m.get(&1));\n}\n",
    )]);
    let diags = lints::determinism::check(&ws);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn panic_reach_follows_calls_from_engine_roots() {
    let ws = ws_with(&[(
        "crates/sim/src/eng.rs",
        "pub struct Simulation;\nimpl Simulation {\n    pub fn read(&mut self, x: Option<u32>) -> u32 {\n        helper(x)\n    }\n}\npub fn helper(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\npub fn unreached(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )]);
    let diags = lints::panic_reach::check(&ws);
    let hit = diags
        .iter()
        .find(|d| d.file == "crates/sim/src/eng.rs" && d.line == 8)
        .expect("the transitively reachable unwrap must be reported");
    assert!(
        hit.message.contains("Simulation::read"),
        "the origin root is named: {}",
        hit.message
    );
    assert!(
        !diags.iter().any(|d| d.line == 11),
        "an unreachable unwrap is out of scope for this pass: {diags:?}"
    );
}

#[test]
fn panic_reach_roots_cover_the_txn_commit_and_abort_paths() {
    // The migration-transaction entry points are lint roots of their own:
    // a panic source reachable from `MemorySystem::resolve_migrations`
    // (the commit/abort path) must be reported even if no engine loop in
    // the synthetic workspace calls it. (`crates/mem` is one of lint 4's
    // lexical scopes, so this pass only covers the `unreachable!` family
    // there — which is exactly what a half-settled batch would hide
    // behind.)
    let ws = ws_with(&[(
        "crates/mem/src/system.rs",
        "pub struct MemorySystem;\nimpl MemorySystem {\n    pub fn resolve_migrations(&mut self, keep: bool) -> u32 {\n        settle(keep)\n    }\n}\nfn settle(keep: bool) -> u32 {\n    if keep {\n        unreachable!(\"doomed txn cannot commit\")\n    }\n    0\n}\n",
    )]);
    let diags = lints::panic_reach::check(&ws);
    let hit = diags
        .iter()
        .find(|d| d.file == "crates/mem/src/system.rs" && d.line == 9)
        .expect("an unreachable! on the settle path must be reported");
    assert!(
        hit.message.contains("resolve_migrations"),
        "the txn root is named: {}",
        hit.message
    );
}

#[test]
fn panic_reach_flags_indexing_but_not_typed_ids_or_ranges() {
    let ws = ws_with(&[(
        "crates/sim/src/eng.rs",
        "pub struct Simulation;\nimpl Simulation {\n    pub fn read(&mut self, xs: &[u32], i: usize) -> u32 {\n        let a = xs[i];\n        let b = &xs[..1];\n        a + b[0]\n    }\n}\n",
    )]);
    let diags = lints::panic_reach::check(&ws);
    assert!(
        diags.iter().any(|d| d.line == 4),
        "bare indexing must be reported: {diags:?}"
    );
    assert!(
        !diags.iter().any(|d| d.line == 5),
        "range slicing is exempt: {diags:?}"
    );
}

#[test]
fn results_flag_discarded_and_ok_dropped_results() {
    let ws = ws_with(&[(
        "crates/mem/src/bad.rs",
        "pub fn fallible() -> Result<u32, u32> {\n    Ok(1)\n}\npub fn caller() {\n    let _ = fallible();\n    fallible().ok();\n}\n",
    )]);
    let diags = lints::results::check(&ws);
    assert!(
        diags
            .iter()
            .any(|d| d.line == 5 && d.message.contains("discard")),
        "`let _ =` over a Result must be reported: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.line == 6 && d.message.contains("ok()")),
        "`.ok();` must be reported: {diags:?}"
    );
}

#[test]
fn results_accept_infallible_discards_and_question_mark() {
    let ws = ws_with(&[(
        "crates/mem/src/ok.rs",
        "pub fn count() -> u32 {\n    1\n}\npub fn fallible() -> Result<u32, u32> {\n    Ok(1)\n}\npub fn caller() -> Result<(), u32> {\n    let _ = count();\n    let _ = fallible()?;\n    Ok(())\n}\n",
    )]);
    let diags = lints::results::check(&ws);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn suppression_audit_reports_unused_markers() {
    let ws = ws_with(&[(
        "crates/mem/src/ok.rs",
        "pub fn f() -> u32 {\n    // lint: allow(determinism) - nothing here needs this\n    1\n}\n",
    )]);
    let diags = mc_lint::run_all(&ws);
    assert!(
        diags
            .iter()
            .any(|d| d.lint == "suppression" && d.line == 2 && d.message.contains("stale")),
        "an unconsumed marker must be reported: {diags:?}"
    );

    // The same marker is NOT judged when its consuming pass is filtered out.
    let ws = ws_with(&[(
        "crates/mem/src/ok.rs",
        "pub fn f() -> u32 {\n    // lint: allow(determinism) - nothing here needs this\n    1\n}\n",
    )]);
    let diags = mc_lint::run_passes(&ws, |p| p != "determinism");
    assert!(
        !diags.iter().any(|d| d.lint == "suppression"),
        "audit must not judge classes whose pass was skipped: {diags:?}"
    );
}

#[test]
fn docs_lint_flags_undocumented_pub_items() {
    let ws = ws_with(&[(
        "crates/mem/src/bad.rs",
        "/// Documented.\npub fn ok() {}\n\npub fn bad() {}\n\n/// Documented struct.\npub struct S {\n    /// Documented field.\n    pub a: u32,\n    pub b: u32,\n}\n",
    )]);
    let diags = lints::docs::check(&ws);
    assert!(
        diags
            .iter()
            .any(|d| d.line == 4 && d.message.contains("fn `bad`")),
        "{diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.line == 10 && d.message.contains("field `b`")),
        "{diags:?}"
    );
    assert_eq!(diags.len(), 2, "documented items are clean: {diags:?}");
}

#[test]
fn docs_lint_accepts_attributes_between_doc_and_item() {
    let ws = ws_with(&[(
        "crates/mem/src/ok.rs",
        "/// Documented through attributes.\n#[derive(Debug, Clone)]\n#[allow(dead_code)]\npub struct S;\n\n/// Inner-doc module file form is covered separately.\npub mod sub {}\n",
    )]);
    let diags = lints::docs::check(&ws);
    assert!(diags.is_empty(), "{diags:?}");
}
