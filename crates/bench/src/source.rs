//! `repro --count`: the size of `crates/*/src`, per crate — this
//! repository's analogue of the paper's Table II.
//!
//! Each file is counted on a *blanked* copy: comments and string/char
//! literals are replaced byte-for-byte with spaces (newlines kept), so a
//! `pub fn` or a `#[cfg(test)]` inside a comment or a string counts for
//! nothing, while line numbers stay those of the file on disk.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The size table `repro --count` prints for the workspace containing
/// `start`: per crate, in name order, then a total, the source lines
/// (what `wc -l` prints), the lines outside `#[cfg(test)]` items and the
/// `pub` items outside test code.
///
/// # Errors
///
/// When no ancestor of `start` holds a workspace `Cargo.toml`, or a
/// source file cannot be read.
pub fn count_table(start: &Path) -> Result<String, String> {
    let root = workspace_root(start)?;
    let mut paths = Vec::new();
    collect_rs(&root.join("crates"), &mut paths).map_err(|e| e.to_string())?;
    let mut files = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel: Vec<_> = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect();
        files.push((rel.join("/"), text));
    }
    let sizes = count(
        files
            .iter()
            .map(|(rel, text)| (rel.as_str(), text.as_str())),
    );
    let total = sizes
        .iter()
        .fold([0; 3], |t, (_, s)| [0, 1, 2].map(|i| t[i] + s[i]));
    let mut out = String::from("crate       src lines  non-test lines  pub items\n");
    for (name, [lines, non_test, pub_items]) in sizes.iter().chain([&("TOTAL".into(), total)]) {
        out.push_str(&format!(
            "{name:<10} {lines:>10} {non_test:>15} {pub_items:>10}\n"
        ));
    }
    Ok(out)
}

/// The nearest ancestor of `start` (itself included) whose `Cargo.toml`
/// declares a `[workspace]`.
///
/// # Errors
///
/// When there is none.
pub(crate) fn workspace_root(start: &Path) -> Result<&Path, String> {
    start
        .ancestors()
        .find(|d| {
            std::fs::read_to_string(d.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
        })
        .ok_or_else(|| format!("no workspace root above {}", start.display()))
}

/// Every `.rs` file under `dir`; build output (`target`), `vendor` and
/// dot-directories are skipped.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            if !(name == "target" || name == "vendor" || name.starts_with('.')) {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Sizes the `crates/<name>/src` files among `files` (`(workspace-relative
/// path, text)`) per crate, in name order, as `[source lines, lines
/// outside `#[cfg(test)]` items — wherever in the file those sit, so a
/// test-gated item near the top hides nothing below it — and `pub` items
/// outside test code (not fields, not `pub(crate)`)]`.
fn count<'a>(files: impl IntoIterator<Item = (&'a str, &'a str)>) -> Vec<(String, [usize; 3])> {
    const ITEMS: [&str; 10] = [
        "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "use", "unsafe",
    ];
    let mut sizes = BTreeMap::<String, [usize; 3]>::new();
    for (rel, text) in files {
        let mut parts = rel.split('/');
        let (Some("crates"), Some(name), Some("src")) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let [lines, non_test, pub_items] = sizes.entry(name.to_string()).or_default();
        let blanked = blank(text);
        let tests = test_spans(&blanked);
        let mut offset = 0;
        for line in blanked.split_inclusive('\n') {
            *lines += 1;
            if !tests.iter().any(|&(s, e)| (s..e).contains(&offset)) {
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

/// Replaces comments and string/char literals with spaces, preserving
/// newlines and byte offsets.
fn blank(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;

    // Blank bytes s..e (exclusive), keeping newlines.
    fn wipe(out: &mut [u8], s: usize, e: usize) {
        for b in &mut out[s..e] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }

    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(bytes.len(), |n| i + n);
                wipe(&mut out, i, end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                wipe(&mut out, start, i);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                wipe(&mut out, start, i.min(bytes.len()));
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let (start, end) = raw_string_span(bytes, src, i);
                wipe(&mut out, start, end);
                i = end;
            }
            b'\'' => {
                // Distinguish char literals from lifetimes: a char literal
                // closes with `'` within a couple of characters; a lifetime
                // (`'a`, `'static`) does not.
                if let Some(end) = char_literal_end(bytes, i) {
                    wipe(&mut out, i, end);
                    i = end;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    // Blanking only rewrites ASCII bytes inside literal/comment spans to
    // spaces; multi-byte UTF-8 sequences are wiped bytewise, which still
    // yields valid ASCII spaces.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Whether a raw string (`r"…"`, `r#"…"#`, `br"…"`) starts at `i`.
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// The byte span of the raw string starting at `i`.
fn raw_string_span(bytes: &[u8], src: &str, i: usize) -> (usize, usize) {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    j += 1; // skip 'r'
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // skip opening quote
    let closer: String = std::iter::once('"')
        .chain(std::iter::repeat_n('#', hashes))
        .collect();
    let end = src[j..]
        .find(&closer)
        .map_or(bytes.len(), |n| j + n + closer.len());
    (i, end)
}

/// The end of the char literal whose opening quote is at `i`, or `None`
/// for a lifetime.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i + 1)? {
        b'\\' => {
            // Escape: scan to the closing quote (handles \n, \x7f, \u{..}).
            // Start past the escaped character so `'\''` finds the real
            // closing quote, not the escaped one.
            let mut j = i + 3;
            while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
                j += 1;
            }
            (bytes.get(j) == Some(&b'\'')).then_some(j + 1)
        }
        _ => {
            // `'X'` where X is one char (possibly multi-byte UTF-8).
            let mut j = i + 1;
            while j < bytes.len() && j <= i + 5 {
                j += 1;
                if bytes.get(j) == Some(&b'\'') {
                    return Some(j + 1);
                }
                // Stop early on obvious non-literal characters.
                if bytes.get(j).is_none_or(|b| *b == b'\n') {
                    break;
                }
            }
            None
        }
    }
}

/// Byte spans of the `#[cfg(test)]`-gated items in blanked text.
fn test_spans(blanked: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let needle = "#[cfg(test)]";
    let mut from = 0;
    while let Some(pos) = blanked[from..].find(needle) {
        let attr_start = from + pos;
        let mut i = attr_start + needle.len();
        let bytes = blanked.as_bytes();
        // Skip whitespace and further attributes to the item itself.
        loop {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if bytes.get(i) == Some(&b'#') {
                // Skip one attribute `#[...]`.
                while i < bytes.len() && bytes[i] != b']' {
                    i += 1;
                }
                i += 1;
            } else {
                break;
            }
        }
        // The gated item ends at its matching closing brace, or at `;` for
        // brace-less items (`#[cfg(test)] use ...;`).
        let mut depth = 0usize;
        let mut end = i;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end += 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end += 1;
                    break;
                }
                _ => {}
            }
            end += 1;
        }
        spans.push((attr_start, end));
        from = end.max(attr_start + needle.len());
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanking_preserves_offsets_and_wipes_literals() {
        let src = "let s = \"match x {\"; // match y {\nlet c = 'a'; let lt: &'static str = s;";
        let b = blank(src);
        assert_eq!(b.len(), src.len());
        assert!(!b.contains("match"));
        assert!(b.contains("'static"), "lifetimes must survive blanking");
        assert_eq!(
            src.match_indices('\n').count(),
            b.match_indices('\n').count()
        );
    }

    #[test]
    fn raw_strings_and_nested_comments() {
        let src = "let r = r#\"a \" b\"#; /* outer /* inner */ still */ let x = 1;";
        let b = blank(src);
        assert!(b.contains("let x = 1;"));
        assert!(!b.contains("inner"));
        assert!(!b.contains("a \" b"));
    }

    #[test]
    fn raw_string_variants_end_where_their_guard_ends() {
        // Plain raw string: `"` inside does not close it, `"#` does not
        // exist, so it closes at the bare quote... `r"…"` closes at `"`.
        let src = "let a = r\"no escape \\\"; live();";
        let b = blank(src);
        assert!(b.contains("live();"), "r\"..\" ignores backslash escapes");
        // Guarded raw string: `"` alone must NOT close it.
        let src = "let b = r#\"quote \" inside\"#; live();";
        let b = blank(src);
        assert!(b.contains("live();"));
        assert!(!b.contains("inside"));
        // Double-guarded, with a single-guard closer inside.
        let src = "let c = r##\"has \"# inside\"##; live();";
        let b = blank(src);
        assert!(b.contains("live();"));
        assert!(!b.contains("inside"));
        // Byte raw string.
        let src = "let d = br#\"bytes \" here\"#; live();";
        let b = blank(src);
        assert!(b.contains("live();"));
        assert!(!b.contains("here"));
        // A raw *identifier* is not a raw string.
        let src = "let r#type = 1; live();";
        let b = blank(src);
        assert!(b.contains("r#type"), "raw identifiers survive blanking");
        // Unterminated raw string blanks to the end without panicking.
        let src = "let e = r#\"never closed";
        let b = blank(src);
        assert_eq!(b.len(), src.len());
        assert!(!b.contains("closed"));
    }

    #[test]
    fn nested_block_comments_track_depth() {
        let src = "/* a /* b /* c */ b */ a */ live(); /* tail */";
        let b = blank(src);
        assert!(b.contains("live();"));
        assert!(!b.contains('a'));
        assert!(!b.contains("tail"));
        // Unterminated nested comment blanks to the end.
        let src = "live(); /* open /* deeper */ never closed";
        let b = blank(src);
        assert!(b.contains("live();"));
        assert!(!b.contains("never"));
        // Newlines inside comments survive for line numbering.
        let src = "/* x\ny */ fn f() {}";
        let b = blank(src);
        assert_eq!(
            src.match_indices('\n').count(),
            b.match_indices('\n').count()
        );
        assert!(b.contains("fn f() {}"));
    }

    #[test]
    fn escaped_quote_char_literal_does_not_swallow_code() {
        // `'\''` once left the real closing quote live, which could start
        // a phantom char literal and wipe following code.
        let src = "let q = '\\''; let keep = ('x', 'y'); live();";
        let b = blank(src);
        assert!(b.contains("live();"), "code after '\\'' must survive: {b}");
        assert!(b.contains("let keep = ("));
        let src = "match c { '\\'' => 1, 'b' => 2, _ => 0 }";
        let b = blank(src);
        assert!(b.contains("=> 1"), "{b}");
        assert!(b.contains("=> 2"), "{b}");
        // Multi-char escapes still close correctly.
        let src = "let u = '\\u{7f}'; live();";
        let b = blank(src);
        assert!(b.contains("live();"), "{b}");
        assert!(!b.contains("7f"));
    }

    #[test]
    fn test_spans_cover_cfg_test_mods() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let spans = test_spans(&blank(src));
        let in_test = |needle: &str| {
            let at = src.find(needle).unwrap();
            spans.iter().any(|&(s, e)| (s..e).contains(&at))
        };
        assert!(in_test("unwrap"));
        assert!(!in_test("fn a"));
        assert!(!in_test("fn c"));
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
        let files = ["crates/sim/src/engine.rs", "crates/sim/tests/t.rs"];
        let sizes = count(files.map(|rel| (rel, src)));
        assert_eq!(sizes.len(), 1, "tests/ is not src/");
        let (name, size) = &sizes[0];
        assert_eq!(name, "sim");
        // 7 non-test lines: those below the thread_local count. 2 pub items:
        // the fn and the struct; not the field, pub(crate) or the test helper.
        assert_eq!(*size, [15, 7, 2]);
    }
}
