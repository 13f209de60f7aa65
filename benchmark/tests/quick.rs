//! Every workload at its `--quick` size produces every named metric.

use std::path::PathBuf;
use std::process::Command;

use gridagg_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use gridagg_benchmark::workloads::{self, Params};
use gridagg_core::json::Json;

fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn params(traced: bool, out: &str) -> Params {
    Params {
        seed: 2001,
        seconds: 1.0,
        traced,
        quick: true,
        out_dir: out_dir(out),
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    for w in &WORKLOADS {
        let outcome = workloads::run(w.name, &params(false, "quick-e2e")).expect(w.name);
        let got: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        assert_eq!(got, want, "{}", w.name);
        assert!(outcome.correct(), "{}: {:?}", w.name, outcome.problems);
        assert!(
            outcome.ops.attempted > 0 && outcome.ops.failed == 0,
            "{}",
            w.name
        );
        for m in &outcome.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}: end-to-end metrics are never 0",
                w.name,
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    let cores = gridagg_benchmark::host::cores();
    let mut measured_somewhere = std::collections::BTreeSet::new();
    for w in &WORKLOADS {
        let outcome = workloads::run(w.name, &params(true, "quick-layers")).expect(w.name);
        let got: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        assert_eq!(got, want, "{}", w.name);
        assert!(outcome.correct(), "{}: {:?}", w.name, outcome.problems);
        for m in &outcome.metrics {
            let omitted = outcome.omitted.iter().any(|(name, _)| *name == m.name);
            assert!(m.value.is_finite(), "{} {}", w.name, m.name);
            if omitted {
                assert_eq!(
                    m.value, 0.0,
                    "{} {}: an omitted metric reads 0",
                    w.name, m.name
                );
            }
            if !omitted {
                measured_somewhere.insert(m.name);
            }
        }
        // the trace file is there and parses
        let path = out_dir("quick-layers").join(format!("trace-{}.json", w.name));
        let trace =
            Json::parse(&std::fs::read_to_string(&path).expect("trace file")).expect("JSON");
        let Some(Json::Arr(spans)) = trace.get("spans") else {
            panic!("{}: no spans", w.name)
        };
        assert!(!spans.is_empty());
        for span in spans {
            for key in ["name", "parent", "start_s", "end_s", "busy_s", "calls"] {
                assert!(span.get(key).is_some(), "{}: span without {key}", w.name);
            }
        }
    }
    // every layer metric is measured by at least one workload, the two
    // parallel speed-ups only on a host that can show them
    for name in want {
        let host_gated = name == "engine.forkjoin_speedup_j2" || name == "runtime.w2_speedup";
        assert_eq!(
            measured_somewhere.contains(name),
            !host_gated || cores >= 2,
            "{name} on {cores} cores"
        );
    }
}

/// The binary, as the driver calls it: the last line of standard
/// output is one JSON object with exactly the agreed keys.
#[test]
fn driver_line_has_exactly_the_agreed_keys() {
    for (trace, names) in [
        ("0", END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
        ("1", PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_gridagg-benchmark"))
            .args([
                "--workload",
                "sim-exact-16k",
                "--seed",
                "7",
                "--seconds",
                "1",
            ])
            .args(["--trace", trace, "--quick", "--out"])
            .arg(out_dir("quick-bin"))
            .output()
            .expect("run the benchmark binary");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let line = Json::parse(stdout.lines().last().expect("a last line")).expect("JSON");
        let Json::Obj(fields) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(
            line.get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0
        );
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics")
        };
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, names);
        for (name, m) in metrics {
            let Json::Obj(parts) = m else {
                panic!("{name}")
            };
            let keys: Vec<&str> = parts.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"], "{name}");
        }
    }
}
