//! `compare <a.json> <b.json>`: two set files, metric by metric.
//!
//! For every workload × end-to-end metric: both reported values, both
//! inter-quartile ranges of the reps behind them, the relative
//! difference of `b` against `a` (positive = worse), and a verdict
//! against the metric's bound — `ok`, `regressed`, or `unresolved` when
//! either side's spread is wider than the bound, so that a difference
//! within it could not be told from noise.

use gridagg_core::json::Json;

use crate::report::fmt_value;
use crate::set::end_to_end;
use crate::spec::{Better, EndToEnd, END_TO_END, TIMING_FLOOR_S, WORKLOADS};

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// The spread of `a` or `b` is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge values `a` → `b` with inter-quartile ranges `iqr_a`, `iqr_b`
/// against `metric`'s bound. Returns the relative worsening and the
/// verdict. A timing that differs by less than [`TIMING_FLOOR_S`] is
/// never a regression, whatever share of a tiny median that is.
pub fn judge(metric: &EndToEnd, a: f64, iqr_a: f64, b: f64, iqr_b: f64) -> (f64, Verdict) {
    let scale = a.abs().max(f64::MIN_POSITIVE);
    let worse = match metric.better {
        Better::Lower => (b - a) / scale,
        Better::Higher => (a - b) / scale,
    };
    let below_floor = metric.unit == "s" && (b - a).abs() < TIMING_FLOOR_S;
    let verdict = if iqr_a.max(iqr_b) / scale > metric.bound && !below_floor {
        Verdict::Unresolved
    } else if worse > metric.bound && !below_floor {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Print the comparison of two set files; returns how many rows were
/// `regressed` and how many `unresolved`.
///
/// # Errors
///
/// A message when a file cannot be read or lacks a metric.
pub fn run(path_a: &str, path_b: &str) -> Result<(usize, usize), String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (label, path, set) in [("a", path_a, &a), ("b", path_b, &b)] {
        let host = set.get("host").map_or_else(String::new, Json::to_string);
        println!("{label}: {path} host {host}");
    }
    println!(
        "{:<16} {:<17} {:>14} {:>12} {:>14} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "value a", "iqr a", "value b", "iqr b", "worse", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let get = |set: &Json, path: &str| {
                end_to_end(set, w.name, m.name)
                    .ok_or_else(|| format!("{path}: no {} for {}", m.name, w.name))
            };
            let (med_a, q1_a, q3_a, _) = get(&a, path_a)?;
            let (med_b, q1_b, q3_b, _) = get(&b, path_b)?;
            let (worse, verdict) = judge(m, med_a, q3_a - q1_a, med_b, q3_b - q1_b);
            match verdict {
                Verdict::Ok => {}
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            println!(
                "{:<16} {:<17} {:>14} {:>12} {:>14} {:>12} {:>+8.2}% {:>6.1}%  {}",
                w.name,
                m.name,
                fmt_value(med_a),
                fmt_value(q3_a - q1_a),
                fmt_value(med_b),
                fmt_value(q3_b - q1_b),
                worse * 100.0,
                m.bound * 100.0,
                verdict.as_str()
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok((regressed, unresolved))
}
