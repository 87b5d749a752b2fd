//! Lint 3: the list-API boundary.
//!
//! The CLOCK lists (`inactive`/`active`/`promote`) carry the Fig. 4
//! invariants, so mutating them is the privilege of the core list machinery:
//! `crates/core/src/{lists.rs, multi_clock.rs, reclaim.rs, scan.rs}` and the `crates/clock` primitives. Everything else (including the rest of
//! `crates/core` — `validate.rs`, `stats.rs`, ...) may read but not write,
//! and must go through the `MultiClock` API for changes.
//!
//! A file that *declares* a struct with its own `inactive`/`active`/
//! `promote` fields (e.g. the Nimble baseline's private two-list bookkeeping)
//! is exempt for exactly those fields — the rule governs the shared core
//! lists, not lookalike private state.
//!
//! The same machinery guards the migration-transaction tables
//! (`MemorySystem.txns` / `.shadows`): a transaction may only mutate the
//! memory system inside the commit boundary — `crates/mem/src/system.rs`
//! (the `migrate_pages`/`resolve_migrations`/`migrate` paths and the eager
//! aborts) and `crates/mem/src/txn.rs` (the table types themselves).
//! Everything else reads via `migration_txns()` and `shadow_pages()`.

use crate::source::{is_ident_byte, SourceFile};
use crate::{Diagnostic, Workspace};

const LINT: &str = "boundary";

/// Files allowed to mutate the core lists directly.
const ALLOWED: [&str; 4] = [
    "crates/core/src/lists.rs",
    "crates/core/src/multi_clock.rs",
    "crates/core/src/reclaim.rs",
    "crates/core/src/scan.rs",
];

/// The guarded field names.
const FIELDS: [&str; 3] = ["inactive", "active", "promote"];

/// Files allowed to mutate the migration-transaction tables (the commit
/// boundary: every `txns`/`shadows` write goes through `MemorySystem`'s
/// `migrate_pages`/`resolve_migrations`/`migrate` or the table types
/// themselves).
const TXN_ALLOWED: [&str; 2] = ["crates/mem/src/system.rs", "crates/mem/src/txn.rs"];

/// The guarded transaction-table field names.
const TXN_FIELDS: [&str; 2] = ["txns", "shadows"];

/// Methods that mutate an `IndexedList` (or any list-like container).
const MUTATORS: [&str; 24] = [
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "push",
    "pop",
    "remove",
    "swap_remove",
    "insert",
    "clear",
    "retain",
    "drain",
    "append",
    "extend",
    "truncate",
    "swap",
    "rotate_left",
    "rotate_right",
    "take",
    "replace",
    "resize",
    "front_mut",
    "back_mut",
    "iter_mut",
];

/// Escape-hatch accessors that hand out `&mut` lists.
const MUT_ACCESSORS: [&str; 2] = ["list_mut", "set_mut"];

/// Runs the boundary lint over all crate library code.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        if !file.rel.starts_with("crates/") || !file.rel.contains("/src/") {
            continue;
        }
        if !(ALLOWED.contains(&file.rel.as_str()) || file.rel.starts_with("crates/clock/")) {
            let own = declared_fields(file, &FIELDS);
            scan_list_fields(file, &own, &mut diags);
            scan_mut_accessors(file, &mut diags);
        }
        if !TXN_ALLOWED.contains(&file.rel.as_str()) {
            let own = declared_fields(file, &TXN_FIELDS);
            scan_txn_fields(file, &own, &mut diags);
        }
    }
    diags
}

/// Which of the guarded field names this file declares in its own structs.
fn declared_fields(file: &SourceFile, guarded: &[&'static str]) -> Vec<&'static str> {
    let mut own = Vec::new();
    let blanked = &file.blanked;
    let bytes = blanked.as_bytes();
    let mut from = 0;
    while let Some(pos) = blanked[from..].find("struct") {
        let kw = from + pos;
        from = kw + 6;
        let ok_before = kw == 0 || !is_ident_byte(bytes[kw - 1]);
        let ok_after = bytes.get(kw + 6).is_none_or(|b| !is_ident_byte(*b));
        if !ok_before || !ok_after {
            continue;
        }
        // Body: next `{` before any `;` (tuple/unit structs have none).
        let mut i = kw + 6;
        let mut open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    open = Some(i);
                    break;
                }
                b';' => break,
                _ => {}
            }
            i += 1;
        }
        let Some(open) = open else { continue };
        let mut depth = 0i32;
        let mut end = open;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        let body = &blanked[open + 1..end.min(blanked.len())];
        for field in guarded {
            if field_declared_in(body, field) {
                own.push(*field);
            }
        }
        from = end.max(from);
    }
    own
}

fn field_declared_in(body: &str, field: &str) -> bool {
    let bytes = body.as_bytes();
    let mut from = 0;
    while let Some(pos) = body[from..].find(field) {
        let start = from + pos;
        let end = start + field.len();
        let ok_before = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after_colon = body[end..].trim_start().starts_with(':');
        if ok_before && after_colon {
            return true;
        }
        from = end;
    }
    false
}

/// Detects a mutation of `.{field}` at `start..`: a mutating method
/// call, an assignment, or a compound assignment. Returns a description
/// of what the site does, or `None` for reads.
fn mutation_verdict(blanked: &str, end: usize) -> Option<String> {
    let rest = blanked[end..].trim_start();
    if let Some(chain) = rest.strip_prefix('.') {
        let chain = chain.trim_start();
        let method: String = chain
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let calls = chain[method.len()..].trim_start().starts_with('(');
        (calls && MUTATORS.contains(&method.as_str()))
            .then(|| format!("calls mutating method `{method}` on"))
    } else if rest.starts_with('=') && !rest.starts_with("==") {
        Some("assigns to".to_string())
    } else if rest.len() >= 2
        && matches!(rest.as_bytes()[0], b'+' | b'-' | b'*' | b'/' | b'%')
        && rest.as_bytes()[1] == b'='
    {
        Some("compound-assigns to".to_string())
    } else {
        None
    }
}

/// Every `.{field}` mutation site in the file for fields not in `own`,
/// as `(field, offset, what)`.
fn mutation_sites(
    file: &SourceFile,
    guarded: &[&'static str],
    own: &[&str],
) -> Vec<(&'static str, usize, String)> {
    let blanked = &file.blanked;
    let bytes = blanked.as_bytes();
    let mut out = Vec::new();
    for field in guarded {
        if own.contains(field) {
            continue;
        }
        let needle = format!(".{field}");
        let mut from = 0;
        while let Some(pos) = blanked[from..].find(&needle) {
            let start = from + pos;
            let end = start + needle.len();
            from = end;
            if bytes.get(end).is_some_and(|b| is_ident_byte(*b)) {
                continue; // `.activate(...)`, `.promoted`, ...
            }
            if file.in_test(start) {
                continue;
            }
            if let Some(what) = mutation_verdict(blanked, end) {
                out.push((*field, start, what));
            }
        }
    }
    out
}

fn scan_list_fields(file: &SourceFile, own: &[&str], diags: &mut Vec<Diagnostic>) {
    for (field, start, what) in mutation_sites(file, &FIELDS, own) {
        diags.push(Diagnostic {
            file: file.rel.clone(),
            line: file.line_of(start),
            lint: LINT,
            message: format!(
                "{what} list field `{field}` outside the core list machinery; \
                 go through the MultiClock API (allowed files: lists.rs, \
                 multi_clock.rs, reclaim.rs, scan.rs, crates/clock)"
            ),
        });
    }
}

fn scan_txn_fields(file: &SourceFile, own: &[&str], diags: &mut Vec<Diagnostic>) {
    for (field, start, what) in mutation_sites(file, &TXN_FIELDS, own) {
        diags.push(Diagnostic {
            file: file.rel.clone(),
            line: file.line_of(start),
            lint: LINT,
            message: format!(
                "{what} migration-transaction table `{field}` outside the commit \
                 boundary; only crates/mem/src/system.rs and crates/mem/src/txn.rs \
                 may mutate `MemorySystem` transaction state — go through \
                 migrate_pages/resolve_migrations/migrate"
            ),
        });
    }
}

fn scan_mut_accessors(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let blanked = &file.blanked;

    for accessor in MUT_ACCESSORS {
        let needle = format!(".{accessor}(");
        let mut from = 0;
        while let Some(pos) = blanked[from..].find(&needle) {
            let start = from + pos;
            from = start + needle.len();
            if file.in_test(start) {
                continue;
            }
            diags.push(Diagnostic {
                file: file.rel.clone(),
                line: file.line_of(start),
                lint: LINT,
                message: format!(
                    "`{accessor}()` hands out &mut core lists; only the core list machinery \
                     may use it"
                ),
            });
        }
    }
}
