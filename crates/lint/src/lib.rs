//! In-repo determinism/safety linter for the gridagg workspace.
//!
//! A dependency-free, two-pass static analyzer. **Pass 1** lexes each
//! file (comments and string literals blanked, line structure
//! preserved — see [`lexer`]) and builds a lightweight per-file item
//! index of enums + variants, `match` expressions and their arm
//! patterns, fn definitions and call sites, `// lint:hot` annotations
//! and instrumentation-gated blocks (see [`index`]). **Pass 2** runs
//! the rules: most are per-file line scans over the index; D006 is a
//! cross-file workspace rule (see [`rules`]).
//!
//! # Rules
//!
//! Only what needs cross-file knowledge or a repo-specific marker lives
//! here. Hash collections, clocks/threads/process state, panicking
//! handlers and lossy casts are clippy's job: the per-crate
//! `clippy.toml` files (`disallowed-types`, `disallowed-methods`),
//! `#[deny(clippy::unwrap_used, ..)]` on the protocol handler impls and
//! codec modules, and the cast lints denied in `aggregate`, all under
//! `cargo clippy -- -D warnings`.
//!
//! - **D006** — wire-schema completeness (cross-file). Every `Payload`
//!   variant must have an `encode` arm and a `decode` arm in the wire
//!   codec, and be handled or explicitly ignored in every protocol's
//!   `on_message`; wildcard `_ =>` arms in matches over `Payload` in
//!   protocol-state crates are flagged so a future variant can't be
//!   silently dropped.
//! - **D007** — counted-set discipline. The
//!   `for_scale`/`singleton_for_scale`/`empty_for_scale`/
//!   `from_vote_for_scale` constructors trade exact contributor
//!   tracking for counts — at every group size in a default build —
//!   which is only sound in structurally-deduping protocols
//!   (hiergossip/flatgossip/leader). Flood and centralized rely on
//!   exact `DoubleCount` rejection for correctness, so any other call
//!   site is flagged.
//! - **D008** — instrumentation purity. No RNG draws inside blocks
//!   gated by trace/instrumentation flags (`phase_trace`,
//!   `S::ENABLED`, `is_traced()`): toggling tracing must never change
//!   the random stream, or goldens stop being byte-identical.
//! - **D009** — hot-path allocation. Allocation-causing calls
//!   (`Vec::new`, `vec![`, `.to_vec()`, `format!`, `collect::<Vec`,
//!   `.clone()`, …) are flagged inside functions annotated
//!   `// lint:hot` (the engine/hiergossip/simnet round loops).
//!
//! # Waivers
//!
//! A rule can be suppressed at a single site with a comment:
//!
//! ```text
//! // lint:allow(D009) reason why this site is sound
//! ```
//!
//! The reason is mandatory; a reasonless waiver is itself reported.
//! Scoping is exact: a trailing waiver (on a line that carries code)
//! covers only that line; a standalone comment-line waiver covers only
//! the next line. Each waiver is consumed by at most one violation,
//! and a waiver that matches no violation is a **fatal** finding —
//! stale waivers must be deleted, which is what lets the committed
//! `lint_budget.json` ratchet the exception surface (see [`budget`]).
//! Waivers must be plain `//` comments — doc comments (`///`, `//!`)
//! never carry them, so examples like the one above are inert.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod budget;
pub mod index;
pub mod lexer;
pub mod report;
pub mod rules;

pub use report::{render_json, render_report};
pub use rules::{crate_of, PROTOCOL_STATE_CRATES};

use index::FileIndex;
use lexer::LexedLine;

/// The rule set, in the order they are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Wire-schema completeness for `Payload` (cross-file).
    D006,
    /// Counted-set constructors outside deduping protocols.
    D007,
    /// RNG draws inside instrumentation-gated blocks.
    D008,
    /// Allocations inside `// lint:hot` functions.
    D009,
}

/// All rules, in report order.
pub const ALL_RULES: [Rule; 4] = [Rule::D006, Rule::D007, Rule::D008, Rule::D009];

impl Rule {
    /// The rule identifier as written in waivers, e.g. `"D009"`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D006 => "D006",
            Rule::D007 => "D007",
            Rule::D008 => "D008",
            Rule::D009 => "D009",
        }
    }

    /// One-line human summary used in reports.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D006 => {
                "wire-schema completeness: every Payload variant needs codec + handler arms, no wildcards"
            }
            Rule::D007 => {
                "counted-set constructor outside hiergossip/flatgossip/leader (breaks exact dedup)"
            }
            Rule::D008 => {
                "RNG draw inside instrumentation-gated block (tracing must not perturb goldens)"
            }
            Rule::D009 => "allocation inside a `// lint:hot` function",
        }
    }

    /// Parse a rule id (`"D006"`..`"D009"`).
    pub fn parse(s: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// A rule violation at a specific site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Site-specific diagnosis (which pattern/variant/constructor).
    pub detail: String,
}

/// A violation that was suppressed by a `lint:allow` waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waived {
    /// Which rule was waived.
    pub rule: Rule,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number of the suppressed site.
    pub line: usize,
    /// The justification text from the waiver comment.
    pub reason: String,
}

/// A malformed waiver: unknown rule id or missing reason. These count
/// as findings — a waiver must say *why*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadWaiver {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number of the waiver comment.
    pub line: usize,
    /// What is wrong with it.
    pub problem: String,
}

/// A waiver that matched no violation. Fatal: stale waivers hide the
/// real exception surface and defeat the budget ratchet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnusedWaiver {
    /// The rule the waiver named.
    pub rule: Rule,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number of the waiver comment.
    pub line: usize,
}

/// The outcome of linting one file or a whole tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Findings {
    /// Unwaivered violations — these fail the build.
    pub violations: Vec<Violation>,
    /// Violations suppressed by a well-formed waiver.
    pub waived: Vec<Waived>,
    /// Malformed waivers — these also fail the build.
    pub bad_waivers: Vec<BadWaiver>,
    /// Waivers that matched no violation — these also fail the build.
    pub unused_waivers: Vec<UnusedWaiver>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Findings {
    /// Whether the tree is clean: no unwaivered violations, no
    /// malformed waivers, and no stale (unused) waivers.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.bad_waivers.is_empty() && self.unused_waivers.is_empty()
    }

    fn absorb(&mut self, other: Findings) {
        self.violations.extend(other.violations);
        self.waived.extend(other.waived);
        self.bad_waivers.extend(other.bad_waivers);
        self.unused_waivers.extend(other.unused_waivers);
        self.files_scanned += other.files_scanned;
    }

    fn sort(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.waived
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.bad_waivers
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        self.unused_waivers
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }
}

/// A parsed `lint:allow` waiver with its exact target line.
#[derive(Debug, Clone)]
struct WaiverSite {
    rule: Rule,
    /// Line the comment is on.
    line: usize,
    /// The single line this waiver may suppress: its own line for a
    /// trailing comment, the next line for a standalone comment.
    target: usize,
    reason: String,
    used: bool,
}

/// Waiver declaration parsed from a `//` comment.
enum WaiverDecl {
    Ok { rule: Rule, reason: String },
    Bad { problem: String },
}

/// Parse every `lint:allow(D00x) reason` in a comment. A comment may
/// carry several waivers (two rules firing on one line); each reason
/// runs until the next `lint:allow(` or the end of the comment.
fn parse_waivers(comment: &str) -> Vec<WaiverDecl> {
    const NEEDLE: &str = "lint:allow(";
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(idx) = rest.find(NEEDLE) {
        let after = &rest[idx + NEEDLE.len()..];
        let Some(close) = after.find(')') else {
            out.push(WaiverDecl::Bad {
                problem: "unclosed lint:allow(".to_string(),
            });
            return out;
        };
        let id = after[..close].trim();
        let tail = &after[close + 1..];
        let reason_end = tail.find(NEEDLE).unwrap_or(tail.len());
        let reason = tail[..reason_end].trim().to_string();
        match Rule::parse(id) {
            None => out.push(WaiverDecl::Bad {
                problem: format!("unknown rule id {id:?} in lint:allow"),
            }),
            Some(rule) if reason.is_empty() => out.push(WaiverDecl::Bad {
                problem: format!("waiver for {} has no reason", rule.id()),
            }),
            Some(rule) => out.push(WaiverDecl::Ok { rule, reason }),
        }
        rest = tail;
    }
    out
}

/// Everything pass 1 extracts from one file. Pass 2's cross-file rules
/// read the `index`; waiver application then folds raw violations into
/// [`Findings`].
pub(crate) struct FileAnalysis {
    pub(crate) path: String,
    pub(crate) lines: Vec<LexedLine>,
    pub(crate) excerpts: Vec<String>,
    pub(crate) index: FileIndex,
    raw: Vec<Violation>,
    waivers: Vec<WaiverSite>,
    bad_waivers: Vec<BadWaiver>,
}

/// Pass 1 for a single file: lex, build the item index, run the
/// per-file rules, and collect waiver declarations.
fn analyze_file(path: &str, src: &str) -> FileAnalysis {
    let lines = lexer::lex(src);
    let excerpts: Vec<String> = src.lines().map(|l| l.trim().to_string()).collect();
    let index = index::build_index(&lines, rules::GATE_PATTERNS);

    let mut waivers: Vec<WaiverSite> = Vec::new();
    let mut bad_waivers: Vec<BadWaiver> = Vec::new();
    for (idx, lexed) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let Some(comment) = &lexed.comment else {
            continue;
        };
        let trailing = !lexed.code.trim().is_empty();
        for decl in parse_waivers(comment) {
            match decl {
                WaiverDecl::Ok { rule, reason } => waivers.push(WaiverSite {
                    rule,
                    line: lineno,
                    target: if trailing { lineno } else { lineno + 1 },
                    reason,
                    used: false,
                }),
                WaiverDecl::Bad { problem } => bad_waivers.push(BadWaiver {
                    file: path.to_string(),
                    line: lineno,
                    problem,
                }),
            }
        }
    }

    let raw = rules::scan_file(path, &lines, &excerpts, &index);
    FileAnalysis {
        path: path.to_string(),
        lines,
        excerpts,
        index,
        raw,
        waivers,
        bad_waivers,
    }
}

/// Fold one file's raw violations through its waivers. Each waiver
/// suppresses at most one violation, on exactly its target line.
fn apply_waivers(mut a: FileAnalysis) -> Findings {
    let mut findings = Findings {
        files_scanned: 1,
        bad_waivers: std::mem::take(&mut a.bad_waivers),
        ..Findings::default()
    };
    a.raw.sort_by_key(|x| (x.line, x.rule));
    for v in a.raw {
        let w = a
            .waivers
            .iter_mut()
            .find(|w| !w.used && w.rule == v.rule && w.target == v.line);
        match w {
            Some(w) => {
                w.used = true;
                findings.waived.push(Waived {
                    rule: v.rule,
                    file: v.file,
                    line: v.line,
                    reason: w.reason.clone(),
                });
            }
            None => findings.violations.push(v),
        }
    }
    for w in a.waivers {
        if !w.used {
            findings.unused_waivers.push(UnusedWaiver {
                rule: w.rule,
                file: a.path.clone(),
                line: w.line,
            });
        }
    }
    findings
}

/// Lint a set of files given as `(workspace-relative path, source)`
/// pairs: pass 1 per file, then the cross-file pass (D006), then
/// waiver application. Pure function — the unit the fixture tests
/// drive.
pub fn lint_files(files: &[(String, String)]) -> Findings {
    let mut analyses: Vec<FileAnalysis> = files.iter().map(|(p, s)| analyze_file(p, s)).collect();

    for v in rules::check_wire_schema(&analyses) {
        if let Some(a) = analyses.iter_mut().find(|a| a.path == v.file) {
            a.raw.push(v);
        }
    }

    let mut findings = Findings::default();
    for a in analyses {
        findings.absorb(apply_waivers(a));
    }
    findings.sort();
    findings
}

/// Lint a single file. Cross-file rule D006 sees only this file's
/// items (wildcard matches still fire; codec/handler completeness
/// needs the `Payload` definition in scope).
pub fn lint_source(path: &str, src: &str) -> Findings {
    lint_files(&[(path.to_string(), src.to_string())])
}

/// Recursively collect `.rs` files under `dir`, sorted for
/// deterministic report order.
fn rs_files_under(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            rs_files_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every `crates/*/src` tree plus the root `src/` under
/// `workspace_root`. Returns aggregated findings with
/// workspace-relative, forward-slash paths.
pub fn lint_tree(workspace_root: &Path) -> io::Result<Findings> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = workspace_root.join("crates");
    if crates_dir.is_dir() {
        let mut crates: Vec<_> = fs::read_dir(&crates_dir)?.collect::<Result<_, _>>()?;
        crates.sort_by_key(std::fs::DirEntry::file_name);
        for c in crates {
            let src = c.path().join("src");
            if src.is_dir() {
                rs_files_under(&src, &mut files)?;
            }
        }
    }
    let root_src = workspace_root.join("src");
    if root_src.is_dir() {
        rs_files_under(&root_src, &mut files)?;
    }

    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for file in files {
        let rel = file
            .strip_prefix(workspace_root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        sources.push((rel, fs::read_to_string(&file)?));
    }
    Ok(lint_files(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = "\
// lint:hot
fn live() {
    let m: Vec<u32> = Vec::new();
    let _ = m;
}

#[cfg(test)]
mod tests {
    // lint:hot
    fn helper() {
        let m: Vec<u32> = Vec::new();
        let _ = m;
    }
}
";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.violations.len(), 1, "{:?}", f.violations);
        assert_eq!(f.violations[0].line, 3);
    }

    #[test]
    fn waiver_same_line_and_preceding_line() {
        let src = "\
// lint:hot
fn f() {
    // lint:allow(D009) reason one
    let a: Vec<u32> = Vec::new();
    let b: Vec<u32> = Vec::new(); // lint:allow(D009) reason two
    let _ = (a, b);
}
";
        let f = lint_source("crates/core/src/x.rs", src);
        assert!(f.violations.is_empty(), "{:?}", f.violations);
        assert_eq!(f.waived.len(), 2);
        assert_eq!(f.waived[0].reason, "reason one");
        assert_eq!(f.waived[1].reason, "reason two");
        assert!(f.is_clean());
    }

    #[test]
    fn standalone_waiver_covers_only_the_next_line() {
        // Regression: a waiver on line L used to match violations on
        // both L and L+1 and could be reused across sites. It must
        // cover exactly one violation on exactly its target line.
        let src = "\
// lint:hot
fn f() {
    // lint:allow(D009) only the first site is justified
    let a: Vec<u32> = Vec::new();
    let b: Vec<u32> = Vec::new();
    let _ = (a, b);
}
";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.waived.len(), 1);
        assert_eq!(f.waived[0].line, 4);
        assert_eq!(f.violations.len(), 1, "{:?}", f.violations);
        assert_eq!(f.violations[0].line, 5, "second site must not ride along");
    }

    #[test]
    fn trailing_waiver_does_not_leak_to_next_line() {
        let src = "\
// lint:hot
fn f() {
    let a: Vec<u32> = Vec::new(); // lint:allow(D009) this line only
    let b: Vec<u32> = Vec::new();
    let _ = (a, b);
}
";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.waived.len(), 1);
        assert_eq!(f.waived[0].line, 3);
        assert_eq!(f.violations.len(), 1);
        assert_eq!(f.violations[0].line, 4);
    }

    #[test]
    fn two_rules_one_line_need_two_waivers() {
        let src = "\
// lint:hot
fn on_round(&mut self, ctx: &mut Ctx) {
    if self.cfg.phase_trace {
        // lint:allow(D008) draw justified lint:allow(D009) alloc justified
        let v = vec![ctx.rng.unit()];
        self.trace.push(v);
    }
}
";
        let f = lint_source("crates/core/src/x.rs", src);
        assert!(f.violations.is_empty(), "{:?}", f.violations);
        assert_eq!(f.waived.len(), 2);
        let rules: Vec<Rule> = f.waived.iter().map(|w| w.rule).collect();
        assert_eq!(rules, vec![Rule::D008, Rule::D009]);
        assert_eq!(f.waived[0].reason, "draw justified");
        assert_eq!(f.waived[1].reason, "alloc justified");
    }

    #[test]
    fn reasonless_waiver_is_malformed() {
        let src = "\
// lint:hot
fn f() {
    // lint:allow(D009)
    let a: Vec<u32> = Vec::new();
    let _ = a;
}
";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.bad_waivers.len(), 1);
        assert_eq!(f.violations.len(), 1, "violation must survive");
        assert!(!f.is_clean());
    }

    #[test]
    fn unused_waiver_is_fatal() {
        let src = "// lint:allow(D009) nothing here actually uses it\nfn f() {}\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.unused_waivers.len(), 1);
        assert_eq!(f.unused_waivers[0].rule, Rule::D009);
        assert_eq!(f.unused_waivers[0].line, 1);
        assert!(!f.is_clean(), "stale waivers must fail the build");
    }

    #[test]
    fn d006_wildcard_over_payload_fires() {
        let src = "\
fn on_message(&mut self, payload: Payload) {
    match payload {
        Payload::Vote { member, .. } => self.tally(member),
        _ => {}
    }
}
";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.violations.len(), 1, "{:?}", f.violations);
        assert_eq!(f.violations[0].rule, Rule::D006);
        assert_eq!(f.violations[0].line, 4);
        // matches over other enums stay silent
        let other = "\
fn g(x: Mode) -> u32 {
    match x {
        Mode::A => 1,
        _ => 0,
    }
}
";
        assert!(lint_source("crates/core/src/x.rs", other)
            .violations
            .is_empty());
        // and protocol-state scoping applies
        assert!(lint_source("crates/bench/src/x.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn d006_codec_and_handler_completeness() {
        let src = "\
pub enum Payload {
    Vote,
    Agg,
}

pub fn encode(p: &Payload) -> u8 {
    match p {
        Payload::Vote => 1,
        Payload::Agg => 2,
    }
}

pub fn decode(b: u8) -> Payload {
    if b == 1 { Payload::Vote } else { Payload::Vote }
}

impl AggregationProtocol for P {
    fn on_message(&mut self, p: Payload) {
        if let Payload::Vote = p {
            self.n += 1;
        }
    }
}
";
        let f = lint_source("crates/core/src/message.rs", src);
        let details: Vec<&str> = f.violations.iter().map(|v| v.detail.as_str()).collect();
        assert_eq!(f.violations.len(), 2, "{details:?}");
        assert!(f.violations.iter().all(|v| v.rule == Rule::D006));
        assert!(details.iter().any(|d| d.contains("decode")), "{details:?}");
        assert!(
            details.iter().any(|d| d.contains("on_message")),
            "{details:?}"
        );
    }

    #[test]
    fn d007_counted_constructors_scoped_to_deduping_protocols() {
        let src = "\
fn build(n: u32) -> VoteSet {
    VoteSet::for_scale(n)
}
";
        let f = lint_source("crates/core/src/baselines/central.rs", src);
        assert_eq!(f.violations.len(), 1, "{:?}", f.violations);
        assert_eq!(f.violations[0].rule, Rule::D007);
        // allowed in the deduping protocols…
        assert!(lint_source("crates/core/src/hiergossip.rs", src)
            .violations
            .is_empty());
        // …and in the defining crate
        assert!(lint_source("crates/aggregate/src/voteset.rs", src)
            .violations
            .is_empty());
        // `singleton_for_scale` must not fire the `for_scale` pattern
        // twice, and definitions are not calls
        let def = "\
impl VoteSet {
    pub fn for_scale(n: u32) -> VoteSet {
        VoteSet::Counted { count: 0, scale: n }
    }
}
";
        assert!(lint_source("crates/core/src/x.rs", def)
            .violations
            .is_empty());
    }

    #[test]
    fn d008_rng_in_gated_block() {
        let src = "\
fn on_round(&mut self, ctx: &mut Ctx) {
    if self.cfg.phase_trace {
        let j = ctx.rng.unit();
        self.trace.push(j);
    }
    let pick = ctx.rng.below(8);
    let _ = pick;
}
";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.violations.len(), 1, "{:?}", f.violations);
        assert_eq!(f.violations[0].rule, Rule::D008);
        assert_eq!(f.violations[0].line, 3, "ungated draw on line 6 is fine");
        // `rngs` (SoA field) must not word-match `rng`
        let soa = "\
fn drive(&mut self) {
    if S::ENABLED {
        self.trace.emit(&self.rngs_snapshot);
    }
}
";
        assert!(lint_source("crates/core/src/x.rs", soa)
            .violations
            .is_empty());
    }

    #[test]
    fn d009_allocations_only_in_hot_fns() {
        let src = "\
// lint:hot
fn round(&mut self) {
    let scratch = Vec::new();
    self.go(scratch);
}

fn setup(&mut self) {
    let scratch: Vec<u32> = Vec::new();
    self.go(scratch);
}
";
        let f = lint_source("crates/bench/src/x.rs", src);
        assert_eq!(f.violations.len(), 1, "{:?}", f.violations);
        assert_eq!(f.violations[0].rule, Rule::D009);
        assert_eq!(f.violations[0].line, 3);
    }

    #[test]
    fn cross_file_codec_check_spans_files() {
        let message = "\
pub enum Payload {
    Vote,
    Flow,
}

pub fn encode(p: &Payload) -> u8 {
    match p {
        Payload::Vote => 1,
        Payload::Flow => 2,
    }
}

pub fn decode(b: u8) -> Payload {
    match b {
        1 => Payload::Vote,
        _ => Payload::Flow,
    }
}
";
        let proto = "\
impl AggregationProtocol for P {
    fn on_message(&mut self, p: Payload) {
        match p {
            Payload::Vote => self.n += 1,
            Payload::Flow => {}
        }
    }
}
";
        let incomplete_proto = "\
impl AggregationProtocol for Q {
    fn on_message(&mut self, p: Payload) {
        if let Payload::Vote = p {
            self.n += 1;
        }
    }
}
";
        let clean = lint_files(&[
            (
                "crates/core/src/message.rs".to_string(),
                message.to_string(),
            ),
            ("crates/core/src/proto.rs".to_string(), proto.to_string()),
        ]);
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);
        let dirty = lint_files(&[
            (
                "crates/core/src/message.rs".to_string(),
                message.to_string(),
            ),
            (
                "crates/core/src/proto.rs".to_string(),
                incomplete_proto.to_string(),
            ),
        ]);
        assert_eq!(dirty.violations.len(), 1, "{:?}", dirty.violations);
        assert_eq!(dirty.violations[0].rule, Rule::D006);
        assert_eq!(dirty.violations[0].file, "crates/core/src/proto.rs");
        assert!(dirty.violations[0].detail.contains("Payload::Flow"));
    }
}
