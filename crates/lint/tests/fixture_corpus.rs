//! Fixture-corpus harness for `gridagg-lint`.
//!
//! Every `.rs` file under `crates/lint/fixtures/` is a small source
//! file whose first line is a `//@path <pseudo-path>` directive
//! placing it in some rule's scope. Each has a sidecar `.expected`
//! snapshot of the findings it must produce. Run with
//! `UPDATE_EXPECT=1` to regenerate the snapshots after an intentional
//! rule change.
//!
//! The corpus seeds one violation per rule plus the waiver
//! edge cases (exact scoping, stale waivers), so a regression in any
//! rule or in waiver bookkeeping shows up as a snapshot diff in the
//! normal test suite.

use gridagg_lint::{lint_source, lint_tree, Findings, Rule};
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

/// Canonical one-line-per-finding rendering compared against the
/// `.expected` sidecars. Line numbers refer to the fixture file
/// itself (the `//@path` directive is line 1 and is linted too — it
/// is an ordinary comment).
fn render(f: &Findings) -> String {
    let mut out = String::new();
    for v in &f.violations {
        out.push_str(&format!(
            "violation {} line {}: {}\n",
            v.rule.id(),
            v.line,
            v.detail
        ));
    }
    for w in &f.waived {
        out.push_str(&format!(
            "waived {} line {}: {}\n",
            w.rule.id(),
            w.line,
            w.reason
        ));
    }
    for b in &f.bad_waivers {
        out.push_str(&format!("bad-waiver line {}: {}\n", b.line, b.problem));
    }
    for u in &f.unused_waivers {
        out.push_str(&format!("unused-waiver {} line {}\n", u.rule.id(), u.line));
    }
    out
}

/// Load a fixture, returning its pseudo-path and full source.
fn load_fixture(path: &Path) -> (String, String) {
    let src =
        fs::read_to_string(path).unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    let first = src.lines().next().unwrap_or("");
    let pseudo = first
        .strip_prefix("//@path ")
        .unwrap_or_else(|| {
            panic!(
                "{}: first line must be `//@path <pseudo-path>`",
                path.display()
            )
        })
        .trim()
        .to_string();
    (pseudo, src)
}

fn fixture_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(fixtures_dir())
        .expect("read fixtures dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 7,
        "fixture corpus looks incomplete: {files:?}"
    );
    files
}

#[test]
fn fixtures_match_expected_findings() {
    let update = std::env::var("UPDATE_EXPECT").is_ok();
    let mut mismatches = Vec::new();
    for path in fixture_files() {
        let (pseudo, src) = load_fixture(&path);
        let got = render(&lint_source(&pseudo, &src));
        let expected_path = path.with_extension("expected");
        if update {
            fs::write(&expected_path, &got)
                .unwrap_or_else(|e| panic!("write {}: {e}", expected_path.display()));
            continue;
        }
        let want = fs::read_to_string(&expected_path).unwrap_or_default();
        if got != want {
            mismatches.push(format!(
                "== {} ==\n-- expected --\n{want}-- got --\n{got}",
                path.display()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "fixture snapshots out of date (rerun with UPDATE_EXPECT=1 after \
         verifying the new findings are intended):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn each_rule_fixture_fires_its_own_rule_exactly_once() {
    // Beyond snapshot equality: the dNNN fixtures each seed exactly
    // one violation of their namesake rule, so the snapshots cannot
    // silently drift to a different rule or to zero findings.
    for path in fixture_files() {
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let Some(rule) = Rule::parse(&stem.to_uppercase()) else {
            continue; // waiver fixtures are checked by their snapshots
        };
        let (pseudo, src) = load_fixture(&path);
        let f = lint_source(&pseudo, &src);
        assert_eq!(
            f.violations.len(),
            1,
            "{stem} must produce exactly one violation, got {:?}",
            f.violations
        );
        assert_eq!(f.violations[0].rule, rule, "{stem} fired the wrong rule");
        assert!(f.bad_waivers.is_empty(), "{stem}: {:?}", f.bad_waivers);
        assert!(
            f.unused_waivers.is_empty(),
            "{stem}: {:?}",
            f.unused_waivers
        );
    }
}

#[test]
fn fixtures_only_fire_in_scope() {
    // The same sources are clean when placed in crates the rules
    // don't cover: crate scoping, not pattern luck, drives the rules.
    let reloc = [
        ("d006.rs", "crates/runtime/src/fixture.rs"),
        ("d007.rs", "crates/core/src/hiergossip.rs"),
        ("d008.rs", "crates/runtime/src/fixture.rs"),
    ];
    for (name, out_of_scope) in reloc {
        let (_, src) = load_fixture(&fixtures_dir().join(name));
        let f = lint_source(out_of_scope, &src);
        assert!(
            f.violations.is_empty(),
            "{name} relocated to {out_of_scope} must be clean, got {:?}",
            f.violations
        );
    }
}

#[test]
fn d007_covers_the_runtime_crate() {
    // The runtime crate hosts protocol state machines on real sockets,
    // so the counted-set constructor restriction extends there: the
    // same fixture that fires in `crates/core` fires when relocated
    // into `crates/runtime` too.
    let (_, src) = load_fixture(&fixtures_dir().join("d007.rs"));
    let f = lint_source("crates/runtime/src/fixture.rs", &src);
    assert_eq!(
        f.violations.len(),
        1,
        "d007.rs relocated into the runtime crate must fire, got {:?}",
        f.violations
    );
    assert_eq!(f.violations[0].rule, Rule::D007);
}

#[test]
fn workspace_tree_lints_clean() {
    // The acceptance gate: `cargo run -p gridagg-lint` over the real
    // tree reports zero unwaivered violations, zero malformed waivers
    // and zero stale waivers.
    let f = lint_tree(&workspace_root()).expect("scan workspace");
    assert!(f.files_scanned > 30, "scan looks too small: {f:?}");
    assert!(
        f.is_clean(),
        "workspace must lint clean; found:\n{}",
        gridagg_lint::render_report(&f)
    );
    assert!(
        !f.waived.is_empty(),
        "the audited hot-path waivers should appear in the tally"
    );
}

#[test]
fn workspace_json_is_byte_identical_across_runs() {
    let root = workspace_root();
    let a = gridagg_lint::render_json(&lint_tree(&root).expect("scan 1"));
    let b = gridagg_lint::render_json(&lint_tree(&root).expect("scan 2"));
    assert_eq!(a, b, "JSON findings must be deterministic");
    assert!(a.ends_with('\n'), "JSON artifact ends with a newline");
}

#[test]
fn workspace_fits_committed_budget() {
    // The ratchet: the committed per-rule waiver budget in
    // lint_budget.json must cover exactly the waivers in the tree.
    // Raising it is a reviewed diff; lowering it is encouraged.
    let root = workspace_root();
    let text = fs::read_to_string(root.join("lint_budget.json")).expect("read lint_budget.json");
    let budget = gridagg_lint::budget::parse_budget(&text).expect("parse lint_budget.json");
    let f = lint_tree(&root).expect("scan workspace");
    let check = gridagg_lint::budget::check(&budget, &f);
    assert!(
        check.ok(),
        "waivers exceed the committed budget:\n{}",
        gridagg_lint::budget::render_check(&check)
    );
}
