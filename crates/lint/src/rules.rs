//! Pass-2 rule implementations.
//!
//! Per-file rules (D007–D009) scan one file's lexed lines against its
//! [`FileIndex`]; the cross-file rule D006 runs over the
//! whole workspace's analyses at once (it needs the `Payload` enum's
//! variant list next to every codec fn and protocol handler).

use crate::index::FileIndex;
use crate::lexer::{contains_word, LexedLine};
use crate::{FileAnalysis, Rule, Violation};

/// Crates whose `Payload` matches may not wildcard (D006) and whose
/// instrumentation may not perturb the RNG stream (D008). The same five
/// carry a `clippy.toml` banning hash collections, clocks and threads,
/// and inherit the workspace `unsafe_code = "deny"`.
pub const PROTOCOL_STATE_CRATES: &[&str] = &["core", "simnet", "hierarchy", "group", "aggregate"];

/// The wire enum whose variants D006 audits for codec and handler
/// completeness.
const WIRE_ENUM: &str = "Payload";

/// D007: the counted-set constructors. They drop contributor identity
/// at every group size in a default build (the exact shadow exists
/// only under `strict-invariants`), which is only sound for protocols
/// that dedupe structurally; flood/centralized rely on exact
/// `DoubleCount` rejection for correctness, so a stray call site is
/// wrong at any N.
const D007_CONSTRUCTORS: &[&str] = &[
    "for_scale",
    "singleton_for_scale",
    "empty_for_scale",
    "from_vote_for_scale",
];

/// Files allowed to call the counted-set constructors: the
/// structurally-deduping protocols.
const D007_ALLOWED_FILES: &[&str] = &[
    "crates/core/src/hiergossip.rs",
    "crates/core/src/baselines/flatgossip.rs",
    "crates/core/src/baselines/leader.rs",
];

/// D008 gate patterns: a line containing one of these that opens a
/// block makes the block an instrumentation-gated region. RNG draws
/// inside mean toggling tracing changes the random stream and breaks
/// byte-identical goldens.
pub const GATE_PATTERNS: &[&str] = &["phase_trace", "S::ENABLED", "is_traced("];

/// D008 RNG-draw patterns. `rng` is word-boundary matched so SoA
/// fields like `rngs` don't fire.
const D008_RNG_WORDS: &[&str] = &["rng", "DetRng"];
const D008_RNG_CALLS: &[&str] = &[
    ".unit()",
    ".chance(",
    ".below(",
    ".choose(",
    ".sample_distinct",
    ".fork(",
    ".next_u64",
];

/// D009 allocation-causing patterns, flagged inside `// lint:hot`
/// functions. `.clone()` is included because heap clones dominate the
/// hazard class; a cheap `Arc` refcount bump is spelled `Arc::clone(&x)`,
/// which says what it is and is not matched (or takes a reasoned waiver).
const D009_ALLOC_PATTERNS: &[&str] = &[
    "Vec::new",
    "vec![",
    "String::new",
    ".to_string()",
    ".to_vec()",
    ".to_owned()",
    "format!(",
    "collect::<Vec",
    "Box::new",
    ".clone()",
];

/// Extract the crate name from a workspace-relative path:
/// `crates/<name>/src/...` → `<name>`; the root `src/` → `"gridagg"`.
pub fn crate_of(path: &str) -> &str {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        _ => "gridagg",
    }
}

/// Run every per-file rule over one analyzed file. Returns raw
/// (pre-waiver) violations; at most one per rule per line.
pub(crate) fn scan_file(
    path: &str,
    lines: &[LexedLine],
    excerpts: &[String],
    ix: &FileIndex,
) -> Vec<Violation> {
    let krate = crate_of(path);
    // The runtime crate hosts protocol state machines on real sockets,
    // so the counted-set constructor restriction applies there too.
    let d007 = (PROTOCOL_STATE_CRATES.contains(&krate) || krate == "runtime")
        && krate != "aggregate"
        && !D007_ALLOWED_FILES.contains(&path);
    let d008 = PROTOCOL_STATE_CRATES.contains(&krate);

    let mut out: Vec<Violation> = Vec::new();
    let fire = |rule: Rule, lineno: usize, detail: String, out: &mut Vec<Violation>| {
        if out.iter().any(|v| v.rule == rule && v.line == lineno) {
            return;
        }
        out.push(Violation {
            rule,
            file: path.to_string(),
            line: lineno,
            excerpt: excerpts.get(lineno - 1).cloned().unwrap_or_default(),
            detail,
        });
    };

    for (idx, lexed) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = lexed.code.as_str();
        if ix.in_test[idx] {
            continue;
        }

        if d008 && ix.gated_for_line[idx] {
            let word_hit = D008_RNG_WORDS.iter().find(|w| contains_word(code, w));
            let call_hit = D008_RNG_CALLS.iter().find(|p| code.contains(*p));
            if let Some(pat) = word_hit.or(call_hit) {
                fire(
                    Rule::D008,
                    lineno,
                    format!("RNG draw (`{pat}`) inside an instrumentation-gated block"),
                    &mut out,
                );
            }
        }
        if ix.hot_for_line[idx] {
            if let Some(pat) = D009_ALLOC_PATTERNS.iter().find(|p| code.contains(*p)) {
                fire(
                    Rule::D009,
                    lineno,
                    format!("allocation (`{pat}`) inside a `// lint:hot` function"),
                    &mut out,
                );
            }
        }
    }

    if d007 {
        for call in &ix.calls {
            if D007_CONSTRUCTORS.contains(&call.name.as_str()) {
                fire(
                    Rule::D007,
                    call.line,
                    format!(
                        "counted-set constructor `{}` outside the structurally-deduping protocols",
                        call.name
                    ),
                    &mut out,
                );
            }
        }
    }

    out.sort_by_key(|a| (a.line, a.rule));
    out
}

/// Cross-file rule D006: wire-schema completeness.
///
/// - every `Payload` variant must appear in an `encode` fn and a
///   `decode` fn in the file that defines the enum;
/// - every protocol's `on_message` must mention every variant (handle
///   it or explicitly ignore it);
/// - a top-level `_ =>` wildcard in a `match` over `Payload` in a
///   protocol-state crate silently drops future variants and is
///   flagged at the wildcard arm.
pub(crate) fn check_wire_schema(analyses: &[FileAnalysis]) -> Vec<Violation> {
    let mut out: Vec<Violation> = Vec::new();

    // Locate the wire enum (first definition wins; the workspace has
    // exactly one).
    let def = analyses.iter().find_map(|a| {
        a.index
            .enums
            .iter()
            .find(|e| e.name == WIRE_ENUM)
            .map(|e| (a, e))
    });
    let Some((def_file, def_enum)) = def else {
        // No Payload in scope (single-file lint of a non-codec file):
        // wildcard checking still applies below.
        wildcard_pass(analyses, &mut out);
        return out;
    };

    // Codec completeness: union of all `encode`/`decode` fn bodies in
    // the defining file must mention each variant.
    for codec_fn in ["encode", "decode"] {
        let spans: Vec<(usize, usize)> = def_file
            .index
            .fns
            .iter()
            .filter(|f| f.name == codec_fn)
            .map(|f| (f.body_open, f.body_close))
            .collect();
        if spans.is_empty() {
            continue; // no codec in this workspace slice; nothing to audit
        }
        for variant in &def_enum.variants {
            let needle = format!("{WIRE_ENUM}::{variant}");
            let mentioned = spans.iter().any(|&(lo, hi)| {
                def_file.lines[lo - 1..hi.min(def_file.lines.len())]
                    .iter()
                    .any(|l| contains_word(&l.code, &needle))
            });
            if !mentioned {
                out.push(Violation {
                    rule: Rule::D006,
                    file: def_file.path.clone(),
                    line: def_enum.line,
                    excerpt: def_file
                        .excerpts
                        .get(def_enum.line - 1)
                        .cloned()
                        .unwrap_or_default(),
                    detail: format!("`{needle}` has no arm in the wire `{codec_fn}` fn"),
                });
            }
        }
    }

    // Handler completeness: every protocol impl's `on_message` must
    // mention every variant.
    for a in analyses {
        if !a.index.has_protocol_impl {
            continue;
        }
        for f in a.index.fns.iter().filter(|f| f.name == "on_message") {
            for variant in &def_enum.variants {
                let needle = format!("{WIRE_ENUM}::{variant}");
                let mentioned = a.lines[f.body_open - 1..f.body_close.min(a.lines.len())]
                    .iter()
                    .any(|l| contains_word(&l.code, &needle));
                if !mentioned {
                    out.push(Violation {
                        rule: Rule::D006,
                        file: a.path.clone(),
                        line: f.body_open,
                        excerpt: a.excerpts.get(f.body_open - 1).cloned().unwrap_or_default(),
                        detail: format!(
                            "`{needle}` is neither handled nor explicitly ignored in `on_message`"
                        ),
                    });
                }
            }
        }
    }

    wildcard_pass(analyses, &mut out);
    out
}

/// The wildcard half of D006: flag `_ =>` arms in matches over the
/// wire enum inside protocol-state crates.
fn wildcard_pass(analyses: &[FileAnalysis], out: &mut Vec<Violation>) {
    for a in analyses {
        if !PROTOCOL_STATE_CRATES.contains(&crate_of(&a.path)) {
            continue;
        }
        for m in &a.index.matches {
            let over_wire = m.pattern_enums.iter().any(|e| e == WIRE_ENUM);
            if let (true, Some(wl)) = (over_wire, m.wildcard_line) {
                out.push(Violation {
                    rule: Rule::D006,
                    file: a.path.clone(),
                    line: wl,
                    excerpt: a.excerpts.get(wl - 1).cloned().unwrap_or_default(),
                    detail: format!(
                        "wildcard `_ =>` arm in a match over `{WIRE_ENUM}` silently drops new variants"
                    ),
                });
            }
        }
    }
}
