//! Line-preserving lexer: strips comments and string/char literals so
//! rules can pattern-match on *code*, while keeping `//` comment text
//! per line for waiver/annotation parsing.

/// One source line after lexing: code with comments/strings blanked
/// out, plus the text of any `//` comment that started on the line.
#[derive(Debug, Clone)]
pub struct LexedLine {
    /// The line's code with comments and literal contents blanked.
    pub code: String,
    /// Text of a plain `//` comment starting on this line, if any
    /// (doc comments `///` and `//!` are never captured — they are
    /// prose about code, not annotations on it).
    pub comment: Option<String>,
}

/// Strip comments and string/char literals from `src`, preserving the
/// line structure exactly (every `\n` survives; removed spans become
/// spaces). Line-comment text is captured per line for waiver parsing.
pub fn lex(src: &str) -> Vec<LexedLine> {
    let bytes = src.as_bytes();
    let mut code = String::with_capacity(src.len());
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut line = 0usize;
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                code.push('\n');
                line += 1;
                i += 1;
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                // Line comment: blank the span. Only plain `//`
                // comments can carry waivers — doc comments (`///`,
                // `//!`) are prose about code, not annotations on it,
                // so a waiver example in documentation never fires.
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    code.push(' ');
                    i += 1;
                }
                let text = &src[start..i];
                if !text.starts_with("///") && !text.starts_with("//!") {
                    comments.push((line, text.to_string()));
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                // Block comment, possibly nested; blank it, keep newlines.
                let mut depth = 1usize;
                code.push(' ');
                code.push(' ');
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        code.push_str("  ");
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        code.push_str("  ");
                        i += 2;
                    } else if bytes[i] == b'\n' {
                        code.push('\n');
                        line += 1;
                        i += 1;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
            }
            '"' => {
                // Ordinary string literal (or the body of b"..."):
                // blank contents, keep the quotes for token shape.
                code.push('"');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' if i + 1 < bytes.len() => {
                            code.push_str("  ");
                            i += 2;
                        }
                        b'"' => {
                            code.push('"');
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            code.push('\n');
                            line += 1;
                            i += 1;
                        }
                        _ => {
                            code.push(' ');
                            i += 1;
                        }
                    }
                }
            }
            'r' if is_raw_string_start(bytes, i) => {
                // Raw string r"..." / r#"..."# (any hash count).
                let mut j = i + 1;
                let mut hashes = 0usize;
                while j < bytes.len() && bytes[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                // Emit blanks for r##...#"
                for _ in i..=j {
                    code.push(' ');
                }
                i = j + 1; // past the opening quote
                'raw: while i < bytes.len() {
                    if bytes[i] == b'"' {
                        // Check for closing hash run.
                        let mut k = i + 1;
                        let mut seen = 0usize;
                        while k < bytes.len() && bytes[k] == b'#' && seen < hashes {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            for _ in i..k {
                                code.push(' ');
                            }
                            i = k;
                            break 'raw;
                        }
                    }
                    if bytes[i] == b'\n' {
                        code.push('\n');
                        line += 1;
                    } else {
                        code.push(' ');
                    }
                    i += 1;
                }
            }
            '\'' => {
                // Char literal vs lifetime. A char literal is '<esc>'
                // or 'X'; anything else ('static, 'a in bounds) is a
                // lifetime and passes through.
                if i + 1 < bytes.len() && bytes[i + 1] == b'\\' {
                    // Escaped char literal: blank until closing quote.
                    code.push(' ');
                    i += 1;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        code.push(' ');
                        i += 1;
                    }
                    if i < bytes.len() {
                        code.push(' ');
                        i += 1;
                    }
                } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                    code.push_str("   ");
                    i += 3;
                } else {
                    code.push('\'');
                    i += 1;
                }
            }
            _ => {
                code.push(c);
                i += 1;
            }
        }
    }

    let mut lines: Vec<LexedLine> = code
        .split('\n')
        .map(|l| LexedLine {
            code: l.to_string(),
            comment: None,
        })
        .collect();
    for (ln, text) in comments {
        if let Some(slot) = lines.get_mut(ln) {
            slot.comment = Some(text);
        }
    }
    lines
}

/// Whether `bytes[i]` (== `b'r'`) starts a raw string literal rather
/// than an identifier ending in `r`.
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    if i > 0 {
        let prev = bytes[i - 1] as char;
        // `br"` byte raw strings: allow a `b` prefix, reject other
        // identifier tails (e.g. `attr"` can't occur in valid Rust).
        if (prev.is_alphanumeric() || prev == '_') && prev != 'b' {
            return false;
        }
    }
    let mut j = i + 1;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'"'
}

/// Whether `code` contains `word` delimited by non-identifier
/// characters (so `unsafe_flag` does not match `unsafe`).
pub fn contains_word(code: &str, word: &str) -> bool {
    let b = code.as_bytes();
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut start = 0usize;
    while let Some(pos) = code[start..].find(word) {
        let i = start + pos;
        let j = i + word.len();
        let left_ok = i == 0 || !is_ident(b[i - 1]);
        let right_ok = j == b.len() || !is_ident(b[j]);
        if left_ok && right_ok {
            return true;
        }
        start = i + 1;
    }
    false
}

/// The last `fn <name>` declared on a lexed line, if any.
pub fn fn_name_on_line(code: &str) -> Option<String> {
    let b = code.as_bytes();
    let mut found = None;
    let mut i = 0usize;
    while i + 2 < b.len() {
        if &b[i..i + 2] == b"fn"
            && (i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_'))
            && b[i + 2].is_ascii_whitespace()
        {
            let mut j = i + 2;
            while j < b.len() && b[j].is_ascii_whitespace() {
                j += 1;
            }
            let start = j;
            while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            if j > start {
                found = Some(code[start..j].to_string());
            }
            i = j;
        } else {
            i += 1;
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_strips_comments_and_strings() {
        let src = "let x = \"HashMap\"; // HashMap here\nlet y = 1; /* HashMap */ let z = 2;\n";
        let lines = lex(src);
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].comment.as_deref().unwrap().contains("HashMap"));
        assert!(!lines[1].code.contains("HashMap"));
        assert!(lines[1].code.contains("let z"));
    }

    #[test]
    fn lexer_handles_lifetimes_and_chars() {
        let src = "fn f<'a>(s: &'a str) -> char { 'x' }\nlet nl = '\\n';\nlet s = r#\"raw \"quote\" HashSet\"#;\n";
        let lines = lex(src);
        assert!(lines[0].code.contains("&'a str"));
        assert!(!lines[0].code.contains("'x'"));
        assert!(!lines[2].code.contains("HashSet"));
    }

    #[test]
    fn doc_comments_are_not_captured() {
        let src =
            "/// lint:allow(D008) doc example\n//! lint:allow(D009) inner doc\n// real comment\n";
        let lines = lex(src);
        assert!(lines[0].comment.is_none());
        assert!(lines[1].comment.is_none());
        assert!(lines[2].comment.is_some());
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("unsafe { x }", "unsafe"));
        assert!(!contains_word("let unsafe_count = 1;", "unsafe"));
        assert!(!contains_word("singleton_for_scale(3, 64)", "for_scale"));
        assert!(contains_word("VoteSet::for_scale(64)", "for_scale"));
    }
}
