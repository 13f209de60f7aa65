//! The per-rule waiver budget and its ratchet.
//!
//! `lint_budget.json` at the workspace root commits the allowed number
//! of honoured waivers per rule. CI runs the linter with `--budget`:
//! if any rule's actual waiver count exceeds its budget the build
//! fails — growing the exception surface requires an explicit,
//! reviewable edit to the budget file. When actual counts fall below
//! budget the slack is reported so the budget can be tightened (the
//! ratchet only ever turns one way by hand).

use crate::{Findings, Rule, ALL_RULES};

/// A parsed per-rule waiver budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Budget {
    counts: [usize; ALL_RULES.len()],
}

impl Budget {
    /// The budgeted waiver count for a rule.
    pub fn allowance(&self, rule: Rule) -> usize {
        self.counts[ALL_RULES
            .iter()
            .position(|r| *r == rule)
            .expect("rule in ALL_RULES")]
    }
}

/// Parse `lint_budget.json`: a flat object with exactly one integer
/// entry per rule, e.g. `{"D006": 0, ..., "D009": 4}`. Every rule must
/// be present — a new rule without a budget line is a config error,
/// not an implicit zero, so adding a rule forces a budget decision.
pub fn parse_budget(text: &str) -> Result<Budget, String> {
    let mut seen: Vec<(Rule, usize)> = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let start = i + 1;
        let mut j = start;
        while j < bytes.len() && bytes[j] != b'"' {
            j += 1;
        }
        if j >= bytes.len() {
            return Err("unterminated string in budget file".to_string());
        }
        let key = &text[start..j];
        let Some(rule) = Rule::parse(key) else {
            return Err(format!("unknown rule id {key:?} in budget file"));
        };
        // skip to the ':' then parse the integer
        i = j + 1;
        while i < bytes.len() && bytes[i] != b':' {
            if !bytes[i].is_ascii_whitespace() {
                return Err(format!("expected ':' after {key:?} in budget file"));
            }
            i += 1;
        }
        i += 1; // past ':'
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let num_start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i == num_start {
            return Err(format!("missing integer budget for {key:?}"));
        }
        let n: usize = text[num_start..i]
            .parse()
            .map_err(|e| format!("bad budget for {key:?}: {e}"))?;
        if seen.iter().any(|(r, _)| *r == rule) {
            return Err(format!("duplicate budget entry for {key}"));
        }
        seen.push((rule, n));
    }

    let mut counts = [0usize; ALL_RULES.len()];
    for (idx, rule) in ALL_RULES.iter().enumerate() {
        let Some(&(_, n)) = seen.iter().find(|(r, _)| r == rule) else {
            return Err(format!(
                "budget file has no entry for {rule}; every rule needs an explicit budget"
            ));
        };
        counts[idx] = n;
    }
    Ok(Budget { counts })
}

/// The outcome of checking findings against a budget.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetCheck {
    /// Rules whose waiver count exceeds budget: (rule, actual, budget).
    /// Non-empty fails the build.
    pub overruns: Vec<(Rule, usize, usize)>,
    /// Rules with headroom: (rule, actual, budget). Reported so the
    /// budget can be ratcheted down.
    pub slack: Vec<(Rule, usize, usize)>,
}

impl BudgetCheck {
    /// Whether the findings fit the budget.
    pub fn ok(&self) -> bool {
        self.overruns.is_empty()
    }
}

/// Compare the honoured-waiver counts in `findings` to `budget`.
pub fn check(budget: &Budget, findings: &Findings) -> BudgetCheck {
    let mut out = BudgetCheck::default();
    for rule in ALL_RULES {
        let actual = findings.waived.iter().filter(|w| w.rule == rule).count();
        let allowed = budget.allowance(rule);
        if actual > allowed {
            out.overruns.push((rule, actual, allowed));
        } else if actual < allowed {
            out.slack.push((rule, actual, allowed));
        }
    }
    out
}

/// Render a budget check for the human report / CLI output.
pub fn render_check(check: &BudgetCheck) -> String {
    let mut out = String::new();
    out.push_str("\nwaiver budget:\n");
    if check.overruns.is_empty() && check.slack.is_empty() {
        out.push_str("  exact: every rule's waiver count matches its budget\n");
    }
    for (rule, actual, allowed) in &check.overruns {
        out.push_str(&format!(
            "  OVERRUN {rule}: {actual} waiver(s) but budget is {allowed} — fix the sites or edit lint_budget.json\n"
        ));
    }
    for (rule, actual, allowed) in &check.slack {
        out.push_str(&format!(
            "  slack {rule}: {actual} waiver(s) under a budget of {allowed} — tighten lint_budget.json\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Waived;

    fn budget_json(counts: &[usize; 4]) -> String {
        let mut s = String::from("{\n");
        for (i, rule) in ALL_RULES.iter().enumerate() {
            s.push_str(&format!(
                "  \"{}\": {}{}\n",
                rule,
                counts[i],
                if i + 1 < ALL_RULES.len() { "," } else { "" }
            ));
        }
        s.push('}');
        s
    }

    fn findings_with_waivers(rule: Rule, n: usize) -> Findings {
        let mut f = Findings::default();
        for i in 0..n {
            f.waived.push(Waived {
                rule,
                file: "crates/core/src/x.rs".to_string(),
                line: i + 1,
                reason: "test".to_string(),
            });
        }
        f
    }

    #[test]
    fn parse_roundtrip_and_missing_rule() {
        let b = parse_budget(&budget_json(&[1, 2, 0, 4])).unwrap();
        assert_eq!(b.allowance(Rule::D007), 2);
        assert_eq!(b.allowance(Rule::D009), 4);
        let err = parse_budget("{\"D006\": 1}").unwrap_err();
        assert!(err.contains("no entry for D007"), "{err}");
        let err = parse_budget("{\"D042\": 1}").unwrap_err();
        assert!(err.contains("unknown rule id"), "{err}");
    }

    #[test]
    fn overrun_and_slack() {
        let b = parse_budget(&budget_json(&[0, 0, 0, 2])).unwrap();
        let c = check(&b, &findings_with_waivers(Rule::D009, 3));
        assert!(!c.ok());
        assert_eq!(c.overruns, vec![(Rule::D009, 3, 2)]);
        let c = check(&b, &findings_with_waivers(Rule::D009, 1));
        assert!(c.ok());
        assert_eq!(c.slack, vec![(Rule::D009, 1, 2)]);
        assert!(render_check(&c).contains("slack D009: 1 waiver(s) under a budget of 2"));
    }

    #[test]
    fn duplicate_entry_rejected() {
        let err = parse_budget("{\"D009\": 1, \"D009\": 2}").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }
}
