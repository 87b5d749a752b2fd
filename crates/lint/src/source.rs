//! A lightweight lexical model of one Rust source file.
//!
//! The linter is deliberately dependency-free (no `syn`, no `regex`), so it
//! works on a *blanked* copy of each file: comments and string/char literals
//! are replaced byte-for-byte with spaces (newlines preserved) so that
//! pattern scans never fire inside a comment or a string, while byte offsets
//! and line numbers stay identical to the original text. The original text
//! stays available for reading marker comments (`// fig4: N`).

/// One parsed workspace source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (e.g.
    /// `crates/core/src/state.rs`).
    pub rel: String,
    /// The file exactly as on disk.
    pub raw: String,
    /// `raw` with comments and string/char literals blanked to spaces.
    pub blanked: String,
    /// Byte offset of the start of each line (index 0 = line 1).
    line_starts: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` items (test modules and
    /// test-gated functions).
    test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Builds the model from in-memory text (used by both the workspace
    /// loader and the self-tests).
    pub fn from_source(rel: &str, raw: &str) -> Self {
        let blanked = blank(raw);
        let line_starts = std::iter::once(0)
            .chain(
                raw.bytes()
                    .enumerate()
                    .filter_map(|(i, b)| (b == b'\n').then_some(i + 1)),
            )
            .collect();
        let test_spans = find_test_spans(&blanked);
        SourceFile {
            rel: rel.to_string(),
            raw: raw.to_string(),
            blanked,
            line_starts,
            test_spans,
        }
    }

    /// 1-based line number containing byte offset `off`.
    pub fn line_of(&self, off: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= off)
    }

    /// Whether byte offset `off` falls inside `#[cfg(test)]` code.
    pub fn in_test(&self, off: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| (s..e).contains(&off))
    }
}

/// Replaces comments and string/char literals with spaces, preserving
/// newlines and byte offsets.
pub fn blank(src: &str) -> String {
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

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // r"..."  r#"..."#  br"..."  b"..." is handled by the plain `"` arm via
    // lookahead below; here we detect r/b-prefixed raw strings.
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

fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    // i points at the opening quote.
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

/// Finds byte spans of `#[cfg(test)]`-gated items in blanked text.
fn find_test_spans(blanked: &str) -> Vec<(usize, usize)> {
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

/// One `match` expression found in blanked text.
#[derive(Debug)]
pub struct MatchBlock {
    /// Byte offset of the `match` keyword.
    pub offset: usize,
    /// `(pattern text, byte offset of the pattern)` for each arm.
    pub arms: Vec<(String, usize)>,
}

/// Extracts every `match` expression (including nested ones) from blanked
/// source text.
pub fn match_blocks(blanked: &str) -> Vec<MatchBlock> {
    let bytes = blanked.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = blanked[from..].find("match") {
        let kw = from + pos;
        from = kw + 5;
        let before_ok = kw == 0 || !is_ident_byte(bytes[kw - 1]);
        let after_ok = bytes.get(kw + 5).is_none_or(|b| !is_ident_byte(*b));
        if !before_ok || !after_ok {
            continue;
        }
        // Find the match-block `{`: the first `{` at paren/bracket depth 0.
        let mut i = kw + 5;
        let (mut paren, mut bracket) = (0i32, 0i32);
        let mut open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'(' => paren += 1,
                b')' => paren -= 1,
                b'[' => bracket += 1,
                b']' => bracket -= 1,
                b'{' if paren == 0 && bracket == 0 => {
                    open = Some(i);
                    break;
                }
                b';' if paren == 0 && bracket == 0 => break, // not a match expr after all
                _ => {}
            }
            i += 1;
        }
        let Some(open) = open else { continue };
        if let Some(arms) = parse_arms(blanked, open) {
            out.push(MatchBlock { offset: kw, arms });
        }
    }
    out
}

/// Parses the arms of a match block whose `{` is at `open`.
fn parse_arms(blanked: &str, open: usize) -> Option<Vec<(String, usize)>> {
    let bytes = blanked.as_bytes();
    let mut arms = Vec::new();
    let mut i = open + 1;
    let (mut brace, mut paren, mut bracket) = (1i32, 0i32, 0i32);
    let mut pat_start: Option<usize> = None;

    while i < bytes.len() && brace > 0 {
        let b = bytes[i];
        match b {
            b'{' => brace += 1,
            b'}' => brace -= 1,
            b'(' => paren += 1,
            b')' => paren -= 1,
            b'[' => bracket += 1,
            b']' => bracket -= 1,
            _ => {}
        }
        if brace == 1 && paren == 0 && bracket == 0 {
            if pat_start.is_none() && !b.is_ascii_whitespace() && b != b',' && b != b'}' {
                pat_start = Some(i);
            }
            if b == b'=' && bytes.get(i + 1) == Some(&b'>') {
                let start = pat_start.take()?;
                arms.push((blanked[start..i].trim().to_string(), start));
                i += 2;
                // Skip the arm body: a brace block, or up to `,` / `}` at
                // this depth.
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                if bytes.get(i) == Some(&b'{') {
                    let mut d = 0i32;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'{' => d += 1,
                            b'}' => {
                                d -= 1;
                                if d == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                } else {
                    let (mut p2, mut k2, mut b2) = (0i32, 0i32, 0i32);
                    while i < bytes.len() {
                        match bytes[i] {
                            b'(' => p2 += 1,
                            b')' => p2 -= 1,
                            b'[' => k2 += 1,
                            b']' => k2 -= 1,
                            b'{' => b2 += 1,
                            b'}' if b2 > 0 => b2 -= 1,
                            b',' if p2 == 0 && k2 == 0 && b2 == 0 => break,
                            b'}' => break, // end of match block
                            _ => {}
                        }
                        i += 1;
                    }
                }
                continue;
            }
        }
        i += 1;
    }
    Some(arms)
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
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
        let f = SourceFile::from_source("x.rs", src);
        let unwrap_at = src.find("unwrap").unwrap();
        assert!(f.in_test(unwrap_at));
        assert!(!f.in_test(src.find("fn a").unwrap()));
        assert!(!f.in_test(src.find("fn c").unwrap()));
    }

    #[test]
    fn match_arm_extraction() {
        let src =
            "fn f(s: S) -> T { match s { S::A => T::X, S::B(n) if n > 0 => { T::Y }, _ => T::Z } }";
        let blocks = match_blocks(&blank(src));
        assert_eq!(blocks.len(), 1);
        let pats: Vec<&str> = blocks[0].arms.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(pats, ["S::A", "S::B(n) if n > 0", "_"]);
    }

    #[test]
    fn nested_matches_found_independently() {
        let src = "fn f() { match a { A::X => match b { B::Y => 1, B::Z => 2 }, A::W => 3 } }";
        let blocks = match_blocks(&blank(src));
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].arms.len(), 2, "outer arms: A::X and A::W");
        assert_eq!(blocks[1].arms.len(), 2, "inner arms: B::Y and B::Z");
    }

    #[test]
    fn line_numbers_are_one_based() {
        let f = SourceFile::from_source("x.rs", "a\nbb\nccc\n");
        assert_eq!(f.line_of(0), 1);
        assert_eq!(f.line_of(2), 2);
        assert_eq!(f.line_of(5), 3);
    }
}
