//! Report rendering: the human-readable report and the stable,
//! machine-readable JSON findings document.
//!
//! The JSON output is hand-rolled (the workspace is offline and
//! dependency-free), fully sorted, and contains no timestamps or
//! absolute paths — two runs over the same tree produce byte-identical
//! bytes, so the CI artifact is diff-able across commits.

use crate::{Findings, ALL_RULES};

/// Render findings as the human-readable report the CLI prints (also
/// written to the `--report` file for the CI artifact). Violation
/// lines are shaped for the GitHub problem matcher:
/// `  D00x path:line: excerpt`.
pub fn render_report(findings: &Findings) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "gridagg-lint: {} files scanned, {} violation(s), {} waived, {} malformed waiver(s), {} unused waiver(s)\n",
        findings.files_scanned,
        findings.violations.len(),
        findings.waived.len(),
        findings.bad_waivers.len(),
        findings.unused_waivers.len(),
    ));
    if !findings.violations.is_empty() {
        out.push_str("\nviolations:\n");
        for v in &findings.violations {
            out.push_str(&format!(
                "  {} {}:{}: {}\n      rule: {}\n      note: {}\n",
                v.rule,
                v.file,
                v.line,
                v.excerpt,
                v.rule.summary(),
                v.detail,
            ));
        }
    }
    if !findings.bad_waivers.is_empty() {
        out.push_str("\nmalformed waivers:\n");
        for b in &findings.bad_waivers {
            out.push_str(&format!("  {}:{}: {}\n", b.file, b.line, b.problem));
        }
    }
    if !findings.unused_waivers.is_empty() {
        out.push_str("\nunused waivers (matched no violation — delete them):\n");
        for u in &findings.unused_waivers {
            out.push_str(&format!("  {} {}:{}\n", u.rule, u.file, u.line));
        }
    }
    out.push_str("\nwaiver tally:\n");
    if findings.waived.is_empty() {
        out.push_str("  (none)\n");
    } else {
        for rule in ALL_RULES {
            let of_rule: Vec<_> = findings.waived.iter().filter(|w| w.rule == rule).collect();
            if of_rule.is_empty() {
                continue;
            }
            out.push_str(&format!("  {} ({} site(s)):\n", rule, of_rule.len()));
            for w in of_rule {
                out.push_str(&format!("    {}:{} — {}\n", w.file, w.line, w.reason));
            }
        }
    }
    out
}

/// Escape a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as the stable JSON document (`--format json` / the
/// `--json` CI artifact). Schema version 1.
pub fn render_json(findings: &Findings) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n",
        findings.files_scanned
    ));
    out.push_str(&format!(
        "  \"summary\": {{\"violations\": {}, \"waived\": {}, \"bad_waivers\": {}, \"unused_waivers\": {}}},\n",
        findings.violations.len(),
        findings.waived.len(),
        findings.bad_waivers.len(),
        findings.unused_waivers.len(),
    ));

    out.push_str("  \"violations\": [");
    for (i, v) in findings.violations.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"excerpt\": \"{}\", \"detail\": \"{}\"}}",
            v.rule,
            esc(&v.file),
            v.line,
            esc(&v.excerpt),
            esc(&v.detail),
        ));
    }
    out.push_str(if findings.violations.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"waived\": [");
    for (i, w) in findings.waived.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
            w.rule,
            esc(&w.file),
            w.line,
            esc(&w.reason),
        ));
    }
    out.push_str(if findings.waived.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"bad_waivers\": [");
    for (i, b) in findings.bad_waivers.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"problem\": \"{}\"}}",
            esc(&b.file),
            b.line,
            esc(&b.problem),
        ));
    }
    out.push_str(if findings.bad_waivers.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"unused_waivers\": [");
    for (i, u) in findings.unused_waivers.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}}}",
            u.rule,
            esc(&u.file),
            u.line,
        ));
    }
    out.push_str(if findings.unused_waivers.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"waiver_counts\": {");
    for (i, rule) in ALL_RULES.iter().enumerate() {
        let n = findings.waived.iter().filter(|w| w.rule == *rule).count();
        out.push_str(if i == 0 { "" } else { ", " });
        out.push_str(&format!("\"{rule}\": {n}"));
    }
    out.push_str("}\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source;

    #[test]
    fn json_is_stable_and_escaped() {
        let src = "// lint:hot\nfn f() { let m: Vec<&str> = Vec::new(); let _ = m; }\n";
        let a = render_json(&lint_source("crates/core/src/x.rs", src));
        let b = render_json(&lint_source("crates/core/src/x.rs", src));
        assert_eq!(a, b, "JSON must be byte-identical across runs");
        assert!(a.contains("\"rule\": \"D009\""));
        assert!(a.contains("\"schema\": 1"));
        // the excerpt contains `&str` — no raw quotes may leak unescaped
        for line in a.lines() {
            if let Some(rest) = line.trim().strip_prefix("{\"rule\"") {
                assert!(!rest.contains("\\\\\""), "double-escaping: {line}");
            }
        }
    }

    #[test]
    fn empty_findings_render_compact_arrays() {
        let f = crate::Findings {
            files_scanned: 0,
            ..crate::Findings::default()
        };
        let j = render_json(&f);
        assert!(j.contains("\"violations\": [],"));
        assert!(j.contains("\"waiver_counts\": {\"D006\": 0"));
    }
}
