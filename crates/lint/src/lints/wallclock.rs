//! Lint 7: the wall-clock boundary.
//!
//! Simulated time (`Nanos`) is the only clock engine code may observe —
//! but the repo *does* measure its own host-time performance, through
//! exactly one door: `mc_obs::perf`, whose opaque `PerfHooks` handle is
//! the sanctioned holder of `std::time::Instant`, and the `crates/bench`
//! harness that times whole runs. This pass enforces that boundary
//! workspace-wide: `Instant`/`SystemTime` may appear only in the
//! allow-listed locations; everywhere else in library code they are
//! flagged. (It replaces the blanket wall-clock ban the determinism pass
//! carried before the perf layer existed — that pass now covers hash
//! iteration and ambient entropy only.)
//!
//! Test code (`#[cfg(test)]` blocks) is exempt, matching the other
//! lexical passes; a deliberate exception elsewhere takes a
//! `// lint: allow(wallclock) - <reason>` marker.

use crate::index::word_occurrences;
use crate::suppress::Suppressions;
use crate::{Diagnostic, Workspace};

const LINT: &str = "wallclock";

/// The only files/directories where host clocks are sanctioned: the perf
/// observability module that owns the `Instant`, and the benchmark
/// harness that times whole runs.
const ALLOWED_FILES: [&str; 1] = ["crates/obs/src/perf.rs"];
const ALLOWED_PREFIXES: [&str; 1] = ["crates/bench/"];

/// Host-clock tokens and what to use instead.
const TOKENS: [(&str, &str); 2] = [
    (
        "Instant",
        "host time belongs in `mc_obs::perf` (inject `PerfHooks`) or the \
         bench harness; engine time is simulated `Nanos`",
    ),
    (
        "SystemTime",
        "host time belongs in `mc_obs::perf` (inject `PerfHooks`) or the \
         bench harness; engine time is simulated `Nanos`",
    ),
];

/// Runs the wall-clock boundary lint standalone (used by tests).
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut sup = Suppressions::collect(ws);
    check_with(ws, &mut sup)
}

/// Runs the wall-clock boundary lint against the shared suppression
/// registry.
pub fn check_with(ws: &Workspace, sup: &mut Suppressions) -> Vec<Diagnostic> {
    sup.activate(LINT);
    let mut diags = Vec::new();
    for file in &ws.files {
        if !file.rel.starts_with("crates/") || !file.rel.contains("/src/") {
            continue;
        }
        if ALLOWED_FILES.contains(&file.rel.as_str())
            || ALLOWED_PREFIXES.iter().any(|p| file.rel.starts_with(p))
        {
            continue;
        }
        for (token, why) in TOKENS {
            for off in word_occurrences(&file.blanked, token) {
                if file.in_test(off) {
                    continue;
                }
                let line = file.line_of(off);
                if sup.check(&file.rel, line, LINT).is_some() {
                    continue;
                }
                diags.push(Diagnostic {
                    file: file.rel.clone(),
                    line,
                    lint: LINT,
                    message: format!("`{token}` outside the wall-clock boundary: {why}"),
                });
            }
        }
    }
    diags
}
