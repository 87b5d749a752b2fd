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
fn count_is_not_fooled_by_an_early_test_gated_item() {
    // The shape of crates/sim/src/engine.rs: a `#[cfg(test)]` item near
    // the top, real code below it, the test module at the bottom.
    let src = "use std::cell::Cell;\n\
               #[cfg(test)]\n\
               thread_local! {\n    static N: Cell<u32> = Cell::new(0);\n}\n\
               /// Doc.\n\
               pub fn real() {}\n\
               pub(crate) fn inner() {}\n\
               pub struct S {\n    pub field: u32,\n}\n\
               #[cfg(test)]\n\
               mod tests {\n    pub fn helper() {}\n}\n";
    let mut ws = Workspace::default();
    let files = ["crates/sim/src/engine.rs", "crates/sim/tests/t.rs"];
    for rel in files {
        ws.files.push(SourceFile::from_source(rel, src));
    }
    let sizes = mc_lint::count(&ws);
    assert_eq!(sizes.len(), 1, "tests/ is not src/");
    let (name, size) = &sizes[0];
    assert_eq!(name, "sim");
    // 7 non-test lines: those below the thread_local count. 2 pub items:
    // the fn and the struct; not the field, pub(crate) or the test helper.
    assert_eq!(*size, [15, 7, 2]);
}
