//! Runs every mc-lint pass over the real workspace as `#[test]`s, so
//! `cargo test -q` fails with file:line diagnostics on any violation —
//! one test per lint class for readable failure output.

use mc_lint::{find_workspace_root, lints, Diagnostic, Workspace};
use std::path::Path;
use std::sync::OnceLock;

fn workspace() -> &'static Workspace {
    static WS: OnceLock<Workspace> = OnceLock::new();
    WS.get_or_init(|| {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("mc-lint lives inside the workspace");
        Workspace::load(&root).expect("workspace sources must be readable")
    })
}

fn assert_clean(diags: Vec<Diagnostic>) {
    assert!(
        diags.is_empty(),
        "\n{}\n{} violation(s); run `cargo run -p mc-lint` for the full report",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n"),
        diags.len(),
    );
}

#[test]
fn state_machine_is_exhaustive_and_fig4_complete() {
    assert_clean(lints::state_machine::check(workspace()));
}

#[test]
fn crate_layering_is_a_dag() {
    assert_clean(lints::layering::check(workspace()));
}

#[test]
fn list_mutation_stays_inside_core_machinery() {
    assert_clean(lints::boundary::check(workspace()));
}

#[test]
fn all_passes_are_clean() {
    assert_clean(mc_lint::run_passes(workspace(), |_| true));
}
