//! What one run of one workload reports, printed and as JSON.

use gridagg_core::json::Json;

use crate::host::Host;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Summary;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// A name from [`crate::spec`].
    pub name: &'static str,
    /// The reported value: what the driver line carries and `compare`
    /// judges. The lower quartile of the reps for host time (see
    /// [`crate::workloads::Run::timed`]), the median otherwise.
    pub value: f64,
    /// Median, quartiles and count of the reps behind it (a value the
    /// program computes, such as a round count, is a sample of one).
    pub summary: Summary,
}

/// Member outcomes checked against the paper's guarantees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Alive members that owed an estimate.
    pub attempted: u64,
    /// Those with no estimate, or one that breaks a guarantee.
    pub failed: u64,
}

impl Ops {
    /// Add another tally.
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of attempted operations that did not fail (1 if none were
    /// attempted, which the caller reports as a problem of its own).
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }
}

/// The result of `--workload W --trace T`.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    /// Operation tally over every rep.
    pub ops: Ops,
    /// Why the program's outputs are wrong, if they are.
    pub problems: Vec<String>,
    /// Per-layer metrics reported as 0, and why.
    pub omitted: Vec<(&'static str, String)>,
    /// Every end-to-end metric (untraced) or per-layer metric (traced),
    /// in [`crate::spec`] order.
    pub metrics: Vec<Measured>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.ops.failed == 0 && self.ops.attempted > 0
    }

    /// The one line the driver reads: `{correct, attempted, failed,
    /// metrics: {name: {value, unit}}}`.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(unit_of(m.name).into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.ops.attempted as f64)),
            ("failed".into(), Json::Num(self.ops.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// Everything, for `out/result-*.json` and the set file.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("unit".into(), Json::Str(unit_of(m.name).into())),
                        ("value".into(), Json::Num(m.value)),
                        ("median".into(), Json::Num(m.summary.median)),
                        ("q1".into(), Json::Num(m.summary.q1)),
                        ("q3".into(), Json::Num(m.summary.q3)),
                        ("samples".into(), Json::Num(m.summary.samples as f64)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("traced".into(), Json::Bool(self.traced)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.ops.attempted as f64)),
            ("failed".into(), Json::Num(self.ops.failed as f64)),
            (
                "problems".into(),
                Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "omitted".into(),
                Json::Obj(
                    self.omitted
                        .iter()
                        .map(|(name, why)| ((*name).to_string(), Json::Str(why.clone())))
                        .collect(),
                ),
            ),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Print every metric by name with its unit, the checks, the host.
    pub fn print(&self, host: &Host) {
        println!(
            "== {} seed {} ({}) on {host}",
            self.workload,
            self.seed,
            if self.traced {
                "traced rep: per-layer metrics"
            } else {
                "untraced reps: end-to-end metrics"
            }
        );
        for m in &self.metrics {
            if let Some((_, why)) = self.omitted.iter().find(|(name, _)| *name == m.name) {
                println!("  {:<34} omitted (reported as 0): {why}", m.name);
                continue;
            }
            let s = m.summary;
            print!(
                "  {:<34} {:>16} {:<8}",
                m.name,
                fmt_value(m.value),
                unit_of(m.name)
            );
            if s.samples > 1 {
                print!(
                    " median {} q1 {} q3 {}",
                    fmt_value(s.median),
                    fmt_value(s.q1),
                    fmt_value(s.q3)
                );
            }
            println!(" n={}", s.samples);
        }
        println!(
            "  operations: attempted {} failed {} (ok_frac {})",
            self.ops.attempted,
            self.ops.failed,
            self.ops.ok_frac()
        );
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
    }
}

/// Unit of a metric name from [`crate::spec`].
///
/// # Panics
///
/// Panics on a name the spec does not define: metric names are fixed.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the spec"))
}

/// Enough digits to tell two runs apart, without exponent noise.
pub fn fmt_value(x: f64) -> String {
    if x == 0.0 || (x.abs() >= 0.001 && x.abs() < 1e9) {
        let s = format!("{x:.6}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        format!("{x:.4e}")
    }
}
