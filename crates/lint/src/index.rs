//! Pass 1: a lightweight per-file item index built on the lexer.
//!
//! One structural walk over the lexed lines tracks brace depth,
//! `#[cfg(test)]` regions, enclosing functions, `enum` bodies, `match`
//! expressions (scrutinee → arm patterns → arm bodies), call sites,
//! `// lint:hot` annotations, and instrumentation-gated blocks. The
//! result is a [`FileIndex`] that pass-2 rules (D006–D009)
//! query without re-walking the source.
//!
//! The walk is token-shaped, not a real parser: it recognizes
//! identifiers and single structural characters on comment- and
//! string-stripped code, which is exactly enough for the rule set and
//! keeps the linter dependency-free.

use crate::lexer::LexedLine;

/// An `enum` definition with its variant names, in declaration order.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// The enum's name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// Variant names in declaration order.
    pub variants: Vec<String>,
}

/// A `fn` definition and its body extent.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// 1-based line the `fn` keyword appears on.
    pub line: usize,
    /// 1-based line of the body's opening `{`.
    pub body_open: usize,
    /// 1-based line of the body's closing `}` (fixed up when the body
    /// closes; bodies still open at EOF run to the last line).
    pub body_close: usize,
    /// Whether the definition is annotated `// lint:hot`.
    pub hot: bool,
}

/// A `match` expression: where it is, whether it has a top-level
/// wildcard `_ =>` arm, and which enums its arm *patterns* reference.
#[derive(Debug, Clone)]
pub struct MatchSite {
    /// 1-based line of the `match` keyword.
    pub line: usize,
    /// 1-based line of a top-level `_ =>` arm, if present.
    pub wildcard_line: Option<usize>,
    /// Path-qualifier identifiers referenced in arm patterns (for
    /// `Payload::Vote { .. }` this records `Payload`). Sorted, deduped.
    pub pattern_enums: Vec<String>,
}

/// A call site: an identifier immediately followed by `(`.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called identifier (last path segment; method or free fn).
    pub name: String,
    /// 1-based line.
    pub line: usize,
}

/// Everything pass 1 knows about one file.
#[derive(Debug, Clone, Default)]
pub struct FileIndex {
    /// Per line (0-based index): covered by a `#[cfg(test)]` region.
    pub in_test: Vec<bool>,
    /// Function definitions, in source order (test regions excluded).
    pub fns: Vec<FnDef>,
    /// Per line: inside a function annotated `// lint:hot`.
    pub hot_for_line: Vec<bool>,
    /// Per line: inside an instrumentation-gated block (or carrying a
    /// gate pattern itself) — the D008 scope.
    pub gated_for_line: Vec<bool>,
    /// Enum definitions (test regions excluded).
    pub enums: Vec<EnumDef>,
    /// Match expressions (test regions excluded).
    pub matches: Vec<MatchSite>,
    /// Call sites (test regions excluded).
    pub calls: Vec<CallSite>,
    /// Whether the file implements `AggregationProtocol` for a type.
    pub has_protocol_impl: bool,
}

/// Mode of the innermost `match` context while walking its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArmMode {
    /// Accumulating an arm pattern, up to its `=>`.
    Pattern,
    /// Just saw `=>`; deciding whether the body is a block.
    BodyStart,
    /// Expression arm body; ends at a top-level `,`.
    BodyExpr,
    /// Block arm body; ends when its `}` closes.
    BodyBlock,
}

#[derive(Debug)]
struct MatchCtx {
    line: usize,
    /// Brace depth at the body's opening `{` (before increment): arm
    /// top level is `open_depth + 1`.
    open_depth: i32,
    /// Paren/bracket depth at the body's opening `{`.
    paren_base: i32,
    mode: ArmMode,
    pattern: String,
    pattern_line: usize,
    wildcard_line: Option<usize>,
    pattern_enums: Vec<String>,
}

#[derive(Debug)]
struct EnumCtx {
    name: String,
    line: usize,
    open_depth: i32,
    paren_base: i32,
    expect_variant: bool,
    variants: Vec<String>,
}

const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "in", "as", "move",
];

/// Build the pass-1 index for one file. `gate_patterns` are the
/// substrings that mark a line as opening an instrumentation-gated
/// block (rule D008's scope) — they live with the rules, not here.
pub fn build_index(lines: &[LexedLine], gate_patterns: &[&str]) -> FileIndex {
    let n = lines.len();
    let mut ix = FileIndex {
        in_test: vec![false; n],
        hot_for_line: vec![false; n],
        gated_for_line: vec![false; n],
        ..FileIndex::default()
    };

    let mut depth: i32 = 0;
    let mut paren: i32 = 0;
    let mut test_region: Option<i32> = None;
    let mut pending_test_attr = false;
    let mut pending_fn: Option<String> = None;
    let mut pending_hot = false;
    let mut pending_enum: Option<String> = None;
    let mut pending_gate = false;
    // `match` seen, waiting for its body `{` at the recorded paren depth
    let mut match_wait: Option<(usize, i32)> = None;
    let mut fn_stack: Vec<(usize, i32)> = Vec::new();
    let mut enum_stack: Vec<EnumCtx> = Vec::new();
    let mut match_stack: Vec<MatchCtx> = Vec::new();
    let mut gate_stack: Vec<i32> = Vec::new();
    // bracket depth inside a `#[...]` attribute (contents are skipped
    // so `cfg(test)` is not mistaken for a call site); may span lines
    let mut attr_depth: i32 = 0;

    for (idx, lexed) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = lexed.code.as_str();
        let in_test_at_start = test_region.is_some();
        let mut line_hot = fn_stack.iter().any(|&(f, _)| ix.fns[f].hot);
        let mut line_gated = !gate_stack.is_empty();

        if let Some(comment) = &lexed.comment {
            if comment.contains("lint:hot") {
                pending_hot = true;
            }
        }
        if code.contains("#[cfg(test)]") {
            pending_test_attr = true;
        }
        if gate_patterns.iter().any(|p| code.contains(p)) {
            pending_gate = true;
            line_gated = true;
        }
        if test_region.is_none()
            && crate::lexer::contains_word(code, "impl")
            && code.contains("AggregationProtocol")
            && crate::lexer::contains_word(code, "for")
        {
            ix.has_protocol_impl = true;
        }

        let bytes = code.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i] as char;

            // Attribute contents are opaque to the index.
            if attr_depth > 0 {
                match c {
                    '[' => attr_depth += 1,
                    ']' => attr_depth -= 1,
                    _ => {}
                }
                i += 1;
                continue;
            }
            if c == '#' && i + 1 < bytes.len() && bytes[i + 1] == b'[' {
                attr_depth = 1;
                i += 2;
                continue;
            }

            // Identifier token?
            if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &code[start..i];
                // feed the innermost match pattern accumulator
                if let Some(m) = match_stack.last_mut() {
                    if m.mode == ArmMode::Pattern {
                        if m.pattern.trim().is_empty() && !word.trim().is_empty() {
                            m.pattern_line = lineno;
                        }
                        m.pattern.push_str(word);
                    }
                }
                match word {
                    "fn" => {
                        // consume the function name (may be absent in
                        // `fn` pointer types; ignore those)
                        let mut j = i;
                        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                            j += 1;
                        }
                        let name_start = j;
                        while j < bytes.len()
                            && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_')
                        {
                            j += 1;
                        }
                        if j > name_start {
                            pending_fn = Some(code[name_start..j].to_string());
                            i = j;
                        }
                    }
                    "enum" => {
                        let mut j = i;
                        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                            j += 1;
                        }
                        let name_start = j;
                        while j < bytes.len()
                            && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_')
                        {
                            j += 1;
                        }
                        if j > name_start {
                            pending_enum = Some(code[name_start..j].to_string());
                            i = j;
                        }
                    }
                    "match" => {
                        match_wait = Some((lineno, paren));
                    }
                    _ => {
                        // enum variant position?
                        if let Some(e) = enum_stack.last_mut() {
                            if e.expect_variant && depth == e.open_depth + 1 {
                                e.variants.push(word.to_string());
                                e.expect_variant = false;
                            }
                        }
                        // call site: ident directly followed by `(`
                        // (allowing spaces), excluding keywords and
                        // macro bangs
                        if !CALL_KEYWORDS.contains(&word) {
                            let mut j = i;
                            while j < bytes.len() && bytes[j] == b' ' {
                                j += 1;
                            }
                            if j < bytes.len() && bytes[j] == b'(' && test_region.is_none() {
                                ix.calls.push(CallSite {
                                    name: word.to_string(),
                                    line: lineno,
                                });
                            }
                        }
                    }
                }
                continue;
            }

            // `=>` terminating a top-level arm pattern of the
            // innermost match?
            if c == '=' && i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                if let Some(m) = match_stack.last_mut() {
                    if m.mode == ArmMode::Pattern
                        && depth == m.open_depth + 1
                        && paren == m.paren_base
                    {
                        finish_pattern(m);
                        m.mode = ArmMode::BodyStart;
                        i += 2;
                        continue;
                    }
                    if m.mode == ArmMode::Pattern {
                        m.pattern.push_str("=>");
                    }
                }
                i += 2;
                continue;
            }

            // Pattern accumulation for non-identifier characters.
            if let Some(m) = match_stack.last_mut() {
                match m.mode {
                    ArmMode::Pattern => {
                        if m.pattern.trim().is_empty() && !c.is_whitespace() {
                            m.pattern_line = lineno;
                        }
                        m.pattern.push(c);
                    }
                    ArmMode::BodyStart => {
                        if c == '{' {
                            m.mode = ArmMode::BodyBlock;
                        } else if !c.is_whitespace() {
                            m.mode = ArmMode::BodyExpr;
                        }
                    }
                    ArmMode::BodyExpr => {
                        if c == ',' && depth == m.open_depth + 1 && paren == m.paren_base {
                            m.mode = ArmMode::Pattern;
                            m.pattern.clear();
                        }
                    }
                    ArmMode::BodyBlock => {}
                }
            }

            match c {
                '{' => {
                    let mut consumed_gate = false;
                    if pending_test_attr {
                        test_region = test_region.or(Some(depth));
                        pending_test_attr = false;
                    } else if let Some(name) = pending_fn.take() {
                        if test_region.is_none() {
                            let f = ix.fns.len();
                            ix.fns.push(FnDef {
                                name,
                                line: lineno, // body-open line; decl may be earlier
                                body_open: lineno,
                                body_close: lines.len(),
                                hot: pending_hot,
                            });
                            fn_stack.push((f, depth));
                            line_hot |= pending_hot;
                        }
                        pending_hot = false;
                        consumed_gate = true; // a fn body is not a gate block
                    } else if let Some(name) = pending_enum.take() {
                        enum_stack.push(EnumCtx {
                            name,
                            line: lineno,
                            open_depth: depth,
                            paren_base: paren,
                            expect_variant: true,
                            variants: Vec::new(),
                        });
                    } else if match_wait.is_some_and(|(_, p)| p == paren) {
                        let (mline, _) = match_wait.take().expect("checked above");
                        match_stack.push(MatchCtx {
                            line: mline,
                            open_depth: depth,
                            paren_base: paren,
                            mode: ArmMode::Pattern,
                            pattern: String::new(),
                            pattern_line: mline,
                            wildcard_line: None,
                            pattern_enums: Vec::new(),
                        });
                    }
                    if pending_gate && !consumed_gate {
                        gate_stack.push(depth);
                        pending_gate = false;
                        line_gated = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_region == Some(depth) {
                        test_region = None;
                    }
                    while gate_stack.last().is_some_and(|&d| d >= depth) {
                        gate_stack.pop();
                    }
                    while fn_stack.last().is_some_and(|&(_, d)| d >= depth) {
                        let (f, _) = fn_stack.pop().expect("checked non-empty");
                        ix.fns[f].body_close = lineno;
                    }
                    if enum_stack.last().is_some_and(|e| e.open_depth == depth) {
                        let e = enum_stack.pop().expect("checked non-empty");
                        if test_region.is_none() {
                            ix.enums.push(EnumDef {
                                name: e.name,
                                line: e.line,
                                variants: e.variants,
                            });
                        }
                    }
                    if match_stack.last().is_some_and(|m| m.open_depth == depth) {
                        let mut m = match_stack.pop().expect("checked non-empty");
                        // a trailing pattern with no `=>` is the
                        // (empty) text after the last arm; drop it
                        if test_region.is_none() {
                            m.pattern_enums.sort();
                            m.pattern_enums.dedup();
                            ix.matches.push(MatchSite {
                                line: m.line,
                                wildcard_line: m.wildcard_line,
                                pattern_enums: m.pattern_enums,
                            });
                        }
                    } else if let Some(m) = match_stack.last_mut() {
                        // an arm's block body just closed?
                        if m.mode == ArmMode::BodyBlock && depth == m.open_depth + 1 {
                            m.mode = ArmMode::Pattern;
                            m.pattern.clear();
                        }
                    }
                }
                '(' | '[' => paren += 1,
                ')' | ']' => paren -= 1,
                ',' => {
                    if let Some(e) = enum_stack.last_mut() {
                        if depth == e.open_depth + 1 && paren == e.paren_base {
                            e.expect_variant = true;
                        }
                    }
                }
                ';' if paren == 0 => {
                    // `fn f();` trait decls, `#[cfg(test)] use x;`,
                    // statement ends: nothing pending survives.
                    pending_fn = None;
                    pending_test_attr = false;
                    pending_enum = None;
                    match_wait = None;
                }
                _ => {}
            }
            i += 1;
        }

        pending_gate = false; // a gate must open its block on its own line
        ix.in_test[idx] = in_test_at_start || test_region.is_some();
        ix.hot_for_line[idx] = line_hot;
        ix.gated_for_line[idx] = line_gated || !gate_stack.is_empty();
    }

    ix
}

/// Close out an accumulated arm pattern: record wildcard-ness and the
/// enum qualifiers it references.
fn finish_pattern(m: &mut MatchCtx) {
    let pat = m.pattern.trim().to_string();
    // `_` alone (optionally with a guard) is a wildcard arm; `_name`
    // bindings and `(_, _)` tuples are not the silent-drop shape D006
    // is after.
    let is_wildcard = pat == "_"
        || (pat.starts_with('_')
            && pat[1..]
                .chars()
                .next()
                .is_some_and(|c| !c.is_alphanumeric() && c != '_'));
    if is_wildcard && m.wildcard_line.is_none() {
        m.wildcard_line = Some(m.pattern_line);
    }
    // every `Ident::` qualifier in the pattern
    let bytes = pat.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if i + 1 < bytes.len() && bytes[i] == b':' && bytes[i + 1] == b':' {
                m.pattern_enums.push(pat[start..i].to_string());
            }
        } else {
            i += 1;
        }
    }
    m.pattern.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index(src: &str) -> FileIndex {
        build_index(&lex(src), &["phase_trace"])
    }

    #[test]
    fn enums_and_variants() {
        let src = "\
pub enum Payload {
    Vote { member: u32, value: f64 },
    Agg(u8),
    Final,
}
";
        let ix = index(src);
        assert_eq!(ix.enums.len(), 1);
        assert_eq!(ix.enums[0].name, "Payload");
        assert_eq!(ix.enums[0].variants, vec!["Vote", "Agg", "Final"]);
    }

    #[test]
    fn single_line_enum() {
        let ix = index("enum E { A, B, C }\n");
        assert_eq!(ix.enums[0].variants, vec!["A", "B", "C"]);
    }

    #[test]
    fn match_wildcard_and_pattern_enums() {
        let src = "\
fn f(p: Payload) -> u32 {
    match p {
        Payload::Vote { member, .. } => member,
        Payload::Agg(x) if x > 0 => 1,
        _ => 0,
    }
}
";
        let ix = index(src);
        assert_eq!(ix.matches.len(), 1);
        let m = &ix.matches[0];
        assert_eq!(m.line, 2);
        assert_eq!(m.wildcard_line, Some(5));
        assert_eq!(m.pattern_enums, vec!["Payload"]);
    }

    #[test]
    fn enum_only_in_patterns_not_bodies() {
        // arms that *construct* Payload must not make this a
        // match-over-Payload
        let src = "\
fn f(x: bool) -> Payload {
    match x {
        true => Payload::Vote { member: 0, value: 1.0 },
        false => Payload::Final,
    }
}
";
        let ix = index(src);
        assert_eq!(ix.matches.len(), 1);
        assert!(ix.matches[0].pattern_enums.is_empty());
        assert!(ix.matches[0].wildcard_line.is_none());
    }

    #[test]
    fn nested_matches_and_block_arms_without_commas() {
        let src = "\
fn f(p: P, q: Q) -> u32 {
    match p {
        P::A => {
            match q {
                Q::X => 1,
                _ => 2,
            }
        }
        P::B => 3,
        _ => 4,
    }
}
";
        let ix = index(src);
        assert_eq!(ix.matches.len(), 2);
        // inner first (it closes first)
        assert_eq!(ix.matches[0].pattern_enums, vec!["Q"]);
        assert_eq!(ix.matches[0].wildcard_line, Some(6));
        assert_eq!(ix.matches[1].pattern_enums, vec!["P"]);
        assert_eq!(ix.matches[1].wildcard_line, Some(10));
    }

    #[test]
    fn underscore_bindings_are_not_wildcards() {
        let src = "\
fn f(p: P) -> u32 {
    match p {
        P::A => 1,
        _other => 2,
    }
}
";
        let ix = index(src);
        assert!(ix.matches[0].wildcard_line.is_none());
    }

    #[test]
    fn fn_bodies_hot_markers_and_calls() {
        let src = "\
// lint:hot
fn hot_loop(xs: &[u32]) -> u32 {
    helper(xs)
}

fn cold() {
    other();
}
";
        let ix = index(src);
        assert_eq!(ix.fns.len(), 2);
        assert!(ix.fns[0].hot);
        assert_eq!(ix.fns[0].name, "hot_loop");
        assert_eq!((ix.fns[0].body_open, ix.fns[0].body_close), (2, 4));
        assert!(!ix.fns[1].hot);
        assert!(ix.hot_for_line[2]); // line 3: helper(xs)
        assert!(!ix.hot_for_line[6]); // line 7: other()
        let names: Vec<_> = ix.calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"helper"));
        assert!(names.contains(&"other"));
    }

    #[test]
    fn gated_lines_track_blocks() {
        let src = "\
fn f(&mut self) {
    if self.cfg.phase_trace {
        self.trace.push(1);
    }
    self.after = true;
}
";
        let ix = index(src);
        assert!(ix.gated_for_line[1]); // gate line
        assert!(ix.gated_for_line[2]); // inside
        assert!(!ix.gated_for_line[4]); // after the block
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "\
fn live() {}

#[cfg(test)]
mod tests {
    enum E { A }
    fn helper() { call_me(); }
}
";
        let ix = index(src);
        assert_eq!(ix.fns.len(), 1);
        assert!(ix.enums.is_empty());
        assert!(ix.calls.is_empty());
    }

    #[test]
    fn protocol_impl_detection() {
        let ix = index("impl<A: Aggregate> AggregationProtocol<A> for Flood<A> {\n}\n");
        assert!(ix.has_protocol_impl);
        let ix = index("pub trait AggregationProtocol<A> {\n}\n");
        assert!(!ix.has_protocol_impl);
    }
}
