//! The crate DAG of DESIGN.md §3, checked over every `crates/*/Cargo.toml`:
//!
//! ```text
//! {obs, fault} <- mem <- clock <- core <- {policies, trace} <- workloads <- sim <- bench
//! ```
//!
//! A crate's `[dependencies]` may name only internal crates on a strictly
//! lower layer; `[dev-dependencies]` are test scaffolding and exempt.
//! `use` paths need no check of their own: rustc already rejects a path
//! to a crate the manifest does not declare.

use std::fs;
use std::path::Path;

/// `(directory under crates/, package name, layer)`, bottom-up.
const LAYERS: [(&str, &str, u8); 10] = [
    ("obs", "mc-obs", 0),
    ("fault", "mc-fault", 0),
    ("mem", "mc-mem", 1),
    ("clock", "mc-clock", 2),
    ("core", "multi-clock", 3),
    ("policies", "mc-policies", 4),
    ("trace", "mc-trace", 4),
    ("workloads", "mc-workloads", 5),
    ("sim", "mc-sim", 6),
    ("bench", "mc-bench", 7),
];

/// The edges the manifest of `crates/<dir>` adds against the DAG, as
/// `"from -> to"`.
fn violations(dir: &str, manifest: &str) -> Vec<String> {
    let Some(&(_, package, layer)) = LAYERS.iter().find(|l| l.0 == dir) else {
        return vec![format!("crates/{dir} has no layer in LAYERS")];
    };
    let mut section = "";
    let mut edges = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let dep = line.split(['.', '=', ' ']).next().unwrap_or_default();
        let target = LAYERS.iter().find(|l| l.1 == dep);
        if section == "[dependencies]" && target.is_some_and(|t| t.2 >= layer) {
            edges.push(format!("{package} -> {dep}"));
        }
    }
    edges
}

#[test]
fn crate_layering_is_a_dag() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<_> = fs::read_dir(crates)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    dirs.sort();
    let mut edges = Vec::new();
    for dir in &dirs {
        let name = dir.file_name().unwrap().to_string_lossy();
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        edges.extend(violations(&name, &manifest));
    }
    assert_eq!(dirs.len(), LAYERS.len(), "one layer per crate: {dirs:?}");
    assert!(edges.is_empty(), "against the DESIGN.md §3 DAG: {edges:?}");
}

#[test]
fn layering_flags_upward_dependencies() {
    let manifest = "[package]\nname = \"mc-mem\"\n\n[dependencies]\n\
                    mc-obs.workspace = true\nmulti-clock.workspace = true\n";
    assert_eq!(violations("mem", manifest), ["mc-mem -> multi-clock"]);
    // A sideways edge (same layer) is refused like an upward one.
    let manifest = "[dependencies]\nmc-trace = { path = \"../trace\" }\n";
    assert_eq!(
        violations("policies", manifest),
        ["mc-policies -> mc-trace"]
    );
    assert_eq!(
        violations("lint", ""),
        ["crates/lint has no layer in LAYERS"]
    );
}

#[test]
fn layering_allows_downward_and_dev_scope() {
    let manifest = "[dependencies]\nmc-workloads.workspace = true\nrand.workspace = true\n\n\
                    [dev-dependencies]\nmc-bench = { path = \"x\" }\n";
    assert!(violations("sim", manifest).is_empty());
}
