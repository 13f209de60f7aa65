//! The benchmark's own helpers: quartiles, outcome checks, the compare
//! verdict, and agreement between `spec.rs` and `BENCHMARK.json`.

use gridagg_benchmark::compare::{judge, Verdict};
use gridagg_benchmark::spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use gridagg_benchmark::stats::Summary;
use gridagg_benchmark::verify::{check_report, estimate_is_valid, Hull};
use gridagg_core::json::Json;
use gridagg_core::{MemberOutcome, RunReport};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    let s = Summary::of(&ten);
    assert!(
        close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25),
        "{s:?}"
    );
    assert_eq!(s.samples, 10);
    // statistics.quantiles([2.79, 2.11, 2.3], n=4) == [2.11, 2.3, 2.79]
    let s = Summary::of(&[2.79, 2.11, 2.3]);
    assert!(
        close(s.q1, 2.11) && close(s.median, 2.3) && close(s.q3, 2.79),
        "{s:?}"
    );
    // statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]: the
    // exclusive method extrapolates past the ends of a tiny sample
    let s = Summary::of(&[2.0, 1.0]);
    assert!(
        close(s.q1, 0.75) && close(s.median, 1.5) && close(s.q3, 2.25),
        "{s:?}"
    );
    let s = Summary::of(&[7.0]);
    assert_eq!((s.q1, s.median, s.q3, s.samples), (7.0, 7.0, 7.0, 1));
}

#[test]
fn invalid_outcomes_count_as_failed() {
    let hull = Hull { lo: 0.0, hi: 100.0 };
    assert!(estimate_is_valid(0.5, 40.0, Some(50.0), hull));
    assert!(estimate_is_valid(1.0, 50.0, Some(50.0), hull));
    assert!(
        !estimate_is_valid(1.5, 50.0, Some(50.0), hull),
        "completeness above 1"
    );
    assert!(
        !estimate_is_valid(-0.1, 50.0, Some(50.0), hull),
        "negative completeness"
    );
    assert!(
        !estimate_is_valid(0.5, 100.5, Some(50.0), hull),
        "value above every vote"
    );
    assert!(
        !estimate_is_valid(0.5, f64::NAN, Some(50.0), hull),
        "NaN value"
    );
    assert!(
        !estimate_is_valid(1.0, 49.0, Some(50.0), hull),
        "complete but not the truth"
    );
    assert!(
        estimate_is_valid(1.0, 49.0, None, hull),
        "a converging protocol owes no exact value"
    );

    let done = |completeness, value| MemberOutcome::Completed {
        completeness,
        value,
        at: 9,
    };
    let report = RunReport {
        n: 6,
        rounds: 10,
        outcomes: vec![
            done(1.0, 50.0),
            done(0.5, 42.0),
            done(1.5, 50.0),  // seeded: completeness above 1
            done(0.5, 130.0), // seeded: outside the vote hull
            MemberOutcome::TimedOut,
            MemberOutcome::Crashed,
        ],
        true_value: 50.0,
        net: Default::default(),
        protocol_steps: 0,
    };
    let ops = check_report(&report, hull);
    assert_eq!(
        (ops.attempted, ops.failed),
        (5, 3),
        "crashed members are not attempts"
    );
    assert!(close(ops.ok_frac(), 0.4));
}

#[test]
fn compare_verdicts() {
    let run_s = END_TO_END
        .iter()
        .find(|m| m.name == "run_s")
        .expect("run_s");
    let b = run_s.bound;
    assert_eq!(
        judge(run_s, 2.0, 0.01, 2.0 * (1.0 + b / 2.0), 0.01).1,
        Verdict::Ok
    );
    assert_eq!(
        judge(run_s, 2.0, 0.01, 2.0 * (1.0 + 2.0 * b), 0.01).1,
        Verdict::Regressed
    );
    assert_eq!(
        judge(run_s, 2.0, 0.01, 1.0, 0.01).1,
        Verdict::Ok,
        "faster is never a regression"
    );
    assert_eq!(
        judge(run_s, 2.0, 2.0 * 2.0 * b, 2.1, 0.01).1,
        Verdict::Unresolved,
        "spread wider than the bound"
    );
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!(
        judge(setup, 0.002, 0.0, 0.004, 0.0).1,
        Verdict::Ok,
        "2 ms is under the timing floor"
    );
    let completeness = END_TO_END
        .iter()
        .find(|m| m.name == "completeness")
        .expect("metric");
    let (worse, verdict) = judge(completeness, 0.99, 0.0, 0.90, 0.0);
    assert!(
        worse > 0.0 && verdict == Verdict::Regressed,
        "higher is better"
    );
}

fn names_ok(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// `BENCHMARK.json` is what the gating driver reads; `spec.rs` is what
/// the benchmark prints. They must say the same thing.
#[test]
fn benchmark_json_agrees_with_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    let json = Json::parse(&text).expect("valid JSON");
    let Json::Obj(fields) = &json else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let arr = |key: &str| match json.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("{key}: {other:?}"),
    };
    let text_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).expect(key).to_string();

    assert_eq!(
        json.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS as f64)
    );
    assert_eq!(arr("paths"), [Json::Str("benchmark".into())]);
    let command: Vec<String> = arr("command")
        .iter()
        .map(|c| c.as_str().expect("string").to_string())
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(command.iter().any(|c| c == "benchmark/Cargo.toml"));

    let workloads = arr("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (got, want) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text_of(got, "name"), want.name);
        assert_eq!(text_of(got, "why"), want.why);
        assert!(names_ok(want.name) && want.why.len() <= 200 && !want.why.contains('\n'));
    }

    let end_to_end = arr("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (got, want) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text_of(got, "name"), want.name);
        assert_eq!(text_of(got, "unit"), want.unit);
        assert_eq!(text_of(got, "better"), want.better.as_str());
        assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
        assert!(names_ok(want.name) && want.bound > 0.0 && want.bound <= 0.25);
    }
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(END_TO_END[0].name, "setup_s");
    assert_eq!(
        END_TO_END[0].bound, largest,
        "set-up time has the largest bound"
    );

    let per_layer = arr("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(PER_LAYER.len() <= 128);
    for (got, want) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text_of(got, "name"), want.name);
        assert_eq!(text_of(got, "unit"), want.unit);
        assert_eq!(text_of(got, "better"), want.better.as_str());
        assert!(names_ok(want.name) && want.unit.len() <= 16);
    }

    let mut all: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "every name is used once");
}
