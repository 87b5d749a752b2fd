//! # mc-lint — repo-specific static analysis for the MULTI-CLOCK workspace
//!
//! A dependency-free (std-only) source analyzer for the three structural
//! rules no stock tool can state. It runs both as a binary
//! (`cargo run -p mc-lint`) and as `#[test]`s
//! (`crates/lint/tests/workspace_clean.rs`), so `cargo test -q` fails on
//! any violation.
//!
//! The three lint classes (see [`lints`]):
//!
//! 1. **state-machine** — every `match` over `PageState`/`WhichList` in
//!    `crates/core` and `crates/clock` must be exhaustive with no wildcard
//!    arm, and the Fig. 4 transition sites (marked `// fig4: N`) must cover
//!    all 13 edges of the canonical table in [`fig4`], which DESIGN.md
//!    must reproduce verbatim;
//! 2. **layering** — the crate DAG
//!    `mem ← clock ← core ← {policies, trace} ← {workloads} ← sim ← bench`
//!    is enforced over both `Cargo.toml` dependencies and `use` paths;
//! 3. **boundary** — the `inactive`/`active`/`promote` lists may only be
//!    mutated by the core list machinery and `crates/clock`.
//!
//! Everything else the workspace forbids — panics, hash-order iteration,
//! host clocks and discarded `Result`s in engine code, undocumented `pub`
//! items — is a rustc or clippy lint, type-aware and exact: see the
//! `[workspace.lints]` table, `clippy.toml`, the `#![deny(clippy::…)]`
//! line in each engine crate's `lib.rs`, and DESIGN.md §9 for who
//! enforces what.
//!
//! Analysis is lexical (comment/string-blanked text, brace matching), not
//! a full parse: precise enough for this codebase's rustfmt-formatted
//! style, and honest about it — each check is written so that a miss is a
//! false negative, not a false positive.

pub mod fig4;
pub mod lints;
pub mod source;

use source::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation, printable as `file:line: [lint] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number (0 when the finding is file-level).
    pub line: usize,
    /// Short lint-class name (`state-machine`, `layering`, ...).
    pub lint: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// The loaded workspace: every source file plus the non-Rust inputs the
/// lints cross-check (manifests, DESIGN.md).
#[derive(Debug, Default)]
pub struct Workspace {
    /// All workspace `.rs` files (vendored stubs and build output excluded).
    pub files: Vec<SourceFile>,
    /// `(relative path, contents)` of each `Cargo.toml` under `crates/`.
    pub manifests: Vec<(String, String)>,
    /// Contents of `DESIGN.md`, if present.
    pub design_md: Option<String>,
}

impl Workspace {
    /// Loads the workspace rooted at `root` from disk.
    ///
    /// `vendor/` (offline dependency stand-ins), `target/` and dot-dirs are
    /// skipped: the lints govern this repository's code, not its vendored
    /// externals.
    pub fn load(root: &Path) -> std::io::Result<Self> {
        let mut ws = Workspace::default();
        let mut rs_paths = Vec::new();
        collect_rs(root, root, &mut rs_paths)?;
        rs_paths.sort();
        for rel in rs_paths {
            let raw = std::fs::read_to_string(root.join(&rel))?;
            ws.files.push(SourceFile::from_source(&rel, &raw));
        }
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .collect();
            entries.sort();
            for dir in entries {
                let manifest = dir.join("Cargo.toml");
                if manifest.is_file() {
                    let rel = format!(
                        "crates/{}/Cargo.toml",
                        dir.file_name().unwrap_or_default().to_string_lossy()
                    );
                    ws.manifests
                        .push((rel, std::fs::read_to_string(&manifest)?));
                }
            }
        }
        ws.design_md = std::fs::read_to_string(root.join("DESIGN.md")).ok();
        Ok(ws)
    }

    /// Files whose workspace-relative path starts with `prefix`.
    pub fn files_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a SourceFile> {
        self.files.iter().filter(move |f| f.rel.starts_with(prefix))
    }
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Locates the workspace root: walks up from `start` to the first directory
/// whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Every pass name, in execution order, as accepted by `--only`/`--skip`.
pub const PASS_NAMES: [&str; 3] = ["state-machine", "layering", "boundary"];

/// Runs the passes selected by `enabled`, in a stable order.
pub fn run_passes(ws: &Workspace, enabled: impl Fn(&str) -> bool) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if enabled("state-machine") {
        diags.extend(lints::state_machine::check(ws));
    }
    if enabled("layering") {
        diags.extend(lints::layering::check(ws));
    }
    if enabled("boundary") {
        diags.extend(lints::boundary::check(ws));
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    diags
}

/// Sizes `crates/<name>/src` per crate, in name order, as `[source lines
/// (what `wc -l` prints), lines outside `#[cfg(test)]` items — wherever in
/// the file those sit, so a test-gated item near the top hides nothing
/// below it — and `pub` items outside test code (not fields, not
/// `pub(crate)`)]`.
pub fn count(ws: &Workspace) -> Vec<(String, [usize; 3])> {
    const ITEMS: [&str; 10] = [
        "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "use", "unsafe",
    ];
    let mut sizes = std::collections::BTreeMap::<String, [usize; 3]>::new();
    for file in ws.files_under("crates/") {
        let mut parts = file.rel.split('/');
        let (Some(name), Some("src")) = (parts.nth(1), parts.next()) else {
            continue;
        };
        let [lines, non_test, pub_items] = sizes.entry(name.to_string()).or_default();
        let mut offset = 0;
        for line in file.blanked.split_inclusive('\n') {
            *lines += 1;
            if !file.in_test(offset) {
                *non_test += 1;
                let item = line.trim_start().strip_prefix("pub ");
                let keyword = item.and_then(|rest| rest.split_whitespace().next());
                *pub_items += usize::from(keyword.is_some_and(|k| ITEMS.contains(&k)));
            }
            offset += line.len();
        }
    }
    sizes.into_iter().collect()
}

/// Serialises diagnostics as a JSON array of
/// `{"file", "line", "lint", "message"}` objects (hand-rolled: mc-lint is
/// dependency-free).
pub fn to_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"message\": \"{}\"}}",
            esc(&d.file),
            d.line,
            esc(d.lint),
            esc(&d.message)
        ));
    }
    out.push_str(if diags.is_empty() { "]" } else { "\n]" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_escapes_and_validates() {
        assert_eq!(to_json(&[]), "[]");
        let diags = [Diagnostic {
            file: "crates/mem/src/a.rs".into(),
            line: 7,
            lint: "boundary",
            message: "a \"quoted\" path\\with\nnewline".into(),
        }];
        let json = to_json(&diags);
        assert!(json.contains(r#""line": 7"#), "{json}");
        assert!(
            json.contains(r#"a \"quoted\" path\\with\nnewline"#),
            "{json}"
        );
        // No raw control characters survive escaping.
        assert!(json.chars().all(|c| c == '\n' || (c as u32) >= 0x20));
    }
}
