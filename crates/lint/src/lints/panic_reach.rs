//! Lint 8: transitive panic reachability from the engine hot loop.
//!
//! The lexical panic pass (lint 4) bans `unwrap`/`expect`/`panic!`
//! unconditionally in the substrate crates. This pass extends the
//! guarantee *transitively*: starting from the engine entry points — the
//! [`Memory`] impl on `Simulation` (every workload access funnels through
//! it), the daemon's run (`MultiClock::kpromoted_run`) — it
//! walks the approximate call graph and flags panic sources in any
//! reachable function, wherever it lives:
//!
//! * `unwrap()` / `expect(...)` / `panic!` — only **outside** lint 4's
//!   scopes (inside them lint 4 already flags every site, reachable or
//!   not); justified the same way: a `// lint: allow(panic) - <reason>`
//!   marker plus a `panic_allowlist.txt` entry;
//! * `unreachable!` / `todo!` / `unimplemented!` — everywhere reachable
//!   (lint 4 does not cover these); same justification mechanism;
//! * bare-identifier indexing `xs[i]` — everywhere reachable; the typed-ID
//!   idiom `table[frame.index()]` and range slicing `&xs[a..b]` are
//!   exempt, anything else needs an inline
//!   `// lint: allow(indexing) - <why the index is in bounds>`.
//!
//! `assert!`-family macros are deliberately *not* panic sources here:
//! the house style uses them as invariant checks whose failure means the
//! simulation is already wrong, and flagging them would push people to
//! delete checks. DESIGN.md §14 records this and the call-graph
//! approximation's false-negative modes.
//!
//! [`Memory`]: ../../mc_workloads/trait.Memory.html

use crate::callgraph::{find_fns, CallGraph};
use crate::index::ItemIndex;
use crate::lints::panics::SCOPES as LEXICAL_SCOPES;
use crate::source::is_ident_byte;
use crate::suppress::Suppressions;
use crate::{Diagnostic, Workspace};
use std::collections::BTreeSet;

const LINT: &str = "panic-reach";

/// Engine entry points: `(crate dir, impl type, method name)`. The three
/// `MemorySystem` migration entries root the commit/abort paths:
/// `resolve_migrations` runs at the start of every transactional tick and
/// must never panic mid-settle (a half-settled batch would leak
/// reservations), `migrate_pages` opens copy windows and `migrate` flips
/// mappings onto shadow copies. A root that names no function is silently
/// worth nothing, so `workspace_clean.rs` checks every one resolves.
/// `CmSketch::update` and `HybridTier::tick` root the sketch-sampling
/// policy: the sketch update sits on the access hot path and the tick is
/// reached through `dyn TieringPolicy` dispatch.
pub const ROOTS: [(&str, Option<&str>, &str); 15] = [
    ("policies", Some("CmSketch"), "update"),
    ("policies", Some("HybridTier"), "tick"),
    ("sim", Some("Simulation"), "mmap"),
    ("sim", Some("Simulation"), "read"),
    ("sim", Some("Simulation"), "write"),
    ("sim", Some("Simulation"), "write_bytes"),
    ("sim", Some("Simulation"), "read_bytes"),
    ("sim", Some("Simulation"), "now"),
    ("sim", Some("Simulation"), "compute"),
    ("sim", Some("Simulation"), "record_op"),
    ("sim", Some("Simulation"), "finish"),
    ("core", Some("MultiClock"), "kpromoted_run"),
    ("mem", Some("MemorySystem"), "migrate_pages"),
    ("mem", Some("MemorySystem"), "resolve_migrations"),
    ("mem", Some("MemorySystem"), "migrate"),
];

/// Runs the panic-reachability lint standalone (used by tests).
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let idx = ItemIndex::build(ws);
    let mut sup = Suppressions::collect(ws);
    check_with(ws, &idx, &mut sup)
}

/// Runs the lint against a prebuilt index and the shared registry.
pub fn check_with(ws: &Workspace, idx: &ItemIndex, sup: &mut Suppressions) -> Vec<Diagnostic> {
    sup.activate(LINT);
    let graph = CallGraph::build(ws, idx);
    let mut roots = Vec::new();
    for (dir, ty, name) in ROOTS {
        roots.extend(find_fns(idx, ty, name, dir));
    }
    let reachable = graph.reachable(&roots);
    let allowlist: BTreeSet<String> = ws
        .panic_allowlist
        .as_deref()
        .unwrap_or("")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();

    let mut diags = Vec::new();
    for (&id, &root) in &reachable {
        let f = &idx.fns[id];
        let Some((body_start, body_end)) = f.body else {
            continue;
        };
        let file = &ws.files[f.file];
        let via = format!(
            "`{}` is reachable from engine entry `{}`",
            f.qualified(),
            idx.fns[root].qualified()
        );
        let in_lexical_scope = LEXICAL_SCOPES.iter().any(|s| file.rel.starts_with(s));

        let mut sources: Vec<(usize, &str)> = Vec::new();
        if !in_lexical_scope {
            find_needles(file, body_start, body_end, ".unwrap()", &mut sources);
            find_needles(file, body_start, body_end, ".expect(", &mut sources);
            find_macro(file, body_start, body_end, "panic!", &mut sources);
        }
        find_macro(file, body_start, body_end, "unreachable!", &mut sources);
        find_macro(file, body_start, body_end, "todo!", &mut sources);
        find_macro(file, body_start, body_end, "unimplemented!", &mut sources);

        for (at, what) in sources {
            if file.in_test(at) {
                continue;
            }
            let line = file.line_of(at);
            match sup.check(&file.rel, line, "panic") {
                Some(reason) if reason.is_empty() => diags.push(Diagnostic {
                    file: file.rel.clone(),
                    line,
                    lint: LINT,
                    message: format!(
                        "`lint: allow(panic)` on this `{what}` has no justification; write \
                         `// lint: allow(panic) - <why this cannot fail>`"
                    ),
                }),
                Some(_) => {
                    if allowlist.contains(&file.rel) {
                        sup.note_allowlisted(&file.rel);
                    } else {
                        diags.push(Diagnostic {
                            file: file.rel.clone(),
                            line,
                            lint: LINT,
                            message: format!(
                                "justified `{what}` but `{}` is not listed in \
                                 crates/lint/panic_allowlist.txt",
                                file.rel
                            ),
                        });
                    }
                }
                None => diags.push(Diagnostic {
                    file: file.rel.clone(),
                    line,
                    lint: LINT,
                    message: format!(
                        "`{what}` can panic and {via}; handle the failure — or justify \
                         with `// lint: allow(panic) - <reason>` and an allowlist entry"
                    ),
                }),
            }
        }

        for at in indexing_sites(file, body_start, body_end) {
            if file.in_test(at) {
                continue;
            }
            let line = file.line_of(at);
            match sup.check(&file.rel, line, "indexing") {
                Some(reason) if reason.is_empty() => diags.push(Diagnostic {
                    file: file.rel.clone(),
                    line,
                    lint: LINT,
                    message: "`lint: allow(indexing)` has no justification; write \
                              `// lint: allow(indexing) - <why the index is in bounds>`"
                        .into(),
                }),
                Some(_) => {}
                None => diags.push(Diagnostic {
                    file: file.rel.clone(),
                    line,
                    lint: LINT,
                    message: format!(
                        "explicit indexing can panic and {via}; use `.get()` (or justify \
                         with `// lint: allow(indexing) - <why the index is in bounds>`)"
                    ),
                }),
            }
        }
    }
    diags
}

fn find_needles<'a>(
    file: &crate::source::SourceFile,
    start: usize,
    end: usize,
    needle: &'a str,
    out: &mut Vec<(usize, &'a str)>,
) {
    let mut from = start;
    while let Some(pos) = file.blanked[from..end].find(needle) {
        let at = from + pos;
        from = at + needle.len();
        out.push((at, needle));
    }
}

fn find_macro<'a>(
    file: &crate::source::SourceFile,
    start: usize,
    end: usize,
    needle: &'a str,
    out: &mut Vec<(usize, &'a str)>,
) {
    let bytes = file.blanked.as_bytes();
    let mut from = start;
    while let Some(pos) = file.blanked[from..end].find(needle) {
        let at = from + pos;
        from = at + needle.len();
        // Word boundary: `debug_panic!` must not fire.
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        out.push((at, needle));
    }
}

/// Explicit-indexing sites in a body span: `expr[...]` where the bracket
/// follows an identifier, `)` or `]`, excluding range slicing (`..` inside)
/// and the typed-ID idiom (`.index()` inside).
fn indexing_sites(file: &crate::source::SourceFile, start: usize, end: usize) -> Vec<usize> {
    let blanked = &file.blanked;
    let bytes = blanked.as_bytes();
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if bytes[i] != b'[' {
            i += 1;
            continue;
        }
        let open = i;
        let prev = bytes[..open].iter().rposition(|b| !b.is_ascii_whitespace());
        let indexes_expr = prev.is_some_and(|p| {
            let b = bytes[p];
            if !(is_ident_byte(b) || b == b')' || b == b']') {
                return false;
            }
            // `in [..]`, `return [..]` etc. are array literals after a
            // keyword, not indexing.
            if is_ident_byte(b) {
                let mut s = p + 1;
                while s > 0 && is_ident_byte(bytes[s - 1]) {
                    s -= 1;
                }
                const KEYWORDS: [&str; 10] = [
                    "in", "return", "break", "else", "match", "if", "while", "loop", "move", "as",
                ];
                if KEYWORDS.contains(&&blanked[s..p + 1]) {
                    return false;
                }
            }
            true
        });
        // Find the matching close bracket.
        let mut depth = 0i32;
        let mut close = open;
        while close < end {
            match bytes[close] {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            close += 1;
        }
        let inner = blanked.get(open + 1..close).unwrap_or("");
        i = open + 1;
        if !indexes_expr || inner.contains("..") || inner.contains(".index()") || inner.is_empty() {
            continue;
        }
        out.push(open);
    }
    out
}
