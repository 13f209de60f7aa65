//! The five workloads. Each module runs its workload twice over: the
//! untraced reps that give the end-to-end metrics, and the traced rep
//! that gives the per-layer ones.

use std::path::PathBuf;
use std::time::Instant;

use crate::report::{Measured, Ops, Outcome};
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::Summary;
use crate::trace::Trace;

pub mod churn;
pub mod sim;
pub mod sweep;
pub mod udp;

/// How one workload is to be run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed: same seed, same inputs.
    pub seed: u64,
    /// Seconds to keep starting reps for.
    pub seconds: f64,
    /// Traced rep (per-layer metrics) instead of untraced reps
    /// (end-to-end metrics).
    pub traced: bool,
    /// Shrink every workload to N ≤ 256 and one rep: the test size.
    pub quick: bool,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// The benchmark itself is broken (as opposed to the program giving a
/// wrong answer): same-seed reps disagreed, or the wrapper perturbed
/// the run. No result is printed; the process exits non-zero.
#[derive(Debug)]
pub struct Broken(pub String);

impl std::fmt::Display for Broken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "benchmark broken: {}", self.0)
    }
}

impl std::error::Error for Broken {}

/// Hold `now` against the first rep's value: same-seed reps do identical
/// work, so a rep that disagrees with its siblings is a bug in the
/// benchmark (or non-determinism in the program), not noise.
///
/// # Errors
///
/// [`Broken`] when `now` differs from the value recorded in `first`.
pub fn same_as_first<T: PartialEq + std::fmt::Debug>(
    first: &mut Option<T>,
    now: T,
) -> Result<(), Broken> {
    match first {
        Some(first) if *first != now => Err(Broken(format!(
            "same-seed reps differ: {first:?} vs {now:?}"
        ))),
        Some(_) => Ok(()),
        None => {
            *first = Some(now);
            Ok(())
        }
    }
}

/// Run one workload by name.
///
/// # Errors
///
/// [`Broken`] when the benchmark's own invariants fail, or the name is
/// not one of [`WORKLOADS`].
pub fn run(workload: &str, params: &Params) -> Result<Outcome, Broken> {
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .ok_or_else(|| Broken(format!("unknown workload `{workload}`")))?;
    let mut run = Run::new(spec.name, params);
    match spec.name {
        "sim-exact-16k" => sim::run(&mut run, sim::EXACT_16K)?,
        "sim-counted-32k" => sim::run(&mut run, sim::COUNTED_32K)?,
        "sweep-small" => sweep::run(&mut run)?,
        "churn-2k" => churn::run(&mut run)?,
        "udp-sat-4k" => udp::run(&mut run)?,
        other => unreachable!("workload `{other}` is in the spec but has no runner"),
    }
    run.finish()
}

/// One workload run in progress: the parameters in, the measurements
/// and check results out.
#[derive(Debug)]
pub struct Run<'a> {
    /// Workload name.
    pub name: &'static str,
    /// How to run.
    pub params: &'a Params,
    /// Spans and counts of the traced rep (records nothing untraced).
    pub trace: Trace,
    /// Operation tally so far.
    pub ops: Ops,
    /// Wrong program outputs found so far.
    pub problems: Vec<String>,
    values: Vec<Measured>,
    omitted: Vec<(&'static str, String)>,
    started: Instant,
}

impl<'a> Run<'a> {
    fn new(name: &'static str, params: &'a Params) -> Self {
        Run {
            name,
            params,
            trace: if params.traced {
                Trace::on()
            } else {
                Trace::off()
            },
            ops: Ops::default(),
            problems: Vec::new(),
            values: Vec::new(),
            omitted: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Whether another rep may start: always until `min` reps are done,
    /// then while the run's seconds last. Quick runs do one rep.
    pub fn another_rep(&self, done: usize, min: usize) -> bool {
        if self.params.quick {
            return done == 0;
        }
        done < min || self.started.elapsed().as_secs_f64() < self.params.seconds
    }

    /// Report host time measured once per rep. The reported value is
    /// the reps' *lower quartile*, not their median: on a shared host
    /// other tenants only ever add time to a rep, and over 15-second
    /// windows of identical reps the lower quartile varied a third to a
    /// half less than the median did (README.md, "Noise"). Median and
    /// both quartiles are printed beside it.
    pub fn timed(&mut self, name: &'static str, per_rep: &[f64]) {
        let summary = Summary::of(per_rep);
        self.values.push(Measured {
            name,
            value: summary.q1,
            summary,
        });
    }

    /// Report a value the program computes that differs from rep to rep
    /// (a socket run's frame count): the reps' median.
    pub fn sampled(&mut self, name: &'static str, per_rep: &[f64]) {
        let summary = Summary::of(per_rep);
        self.values.push(Measured {
            name,
            value: summary.median,
            summary,
        });
    }

    /// Report a value that is the same on every same-seed rep.
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.values.push(Measured {
            name,
            value,
            summary: Summary::exact(value),
        });
    }

    /// Report several exact values.
    pub fn values(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in values {
            self.value(name, value);
        }
    }

    /// Leave a per-layer metric out (it is reported as 0) and say why.
    pub fn omit(&mut self, name: &'static str, why: impl Into<String>) {
        self.omitted.push((name, why.into()));
    }

    /// Record a wrong program output.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Check the run reported exactly the metrics its mode owes, fill
    /// in the per-layer metrics this workload does not exercise, write
    /// the trace file, and hand the outcome over.
    fn finish(mut self) -> Result<Outcome, Broken> {
        let owed: Vec<&'static str> = if self.params.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        if let Some(stray) = self.values.iter().find(|m| !owed.contains(&m.name)) {
            return Err(Broken(format!(
                "`{}` reported in the wrong mode",
                stray.name
            )));
        }
        let mut metrics = Vec::with_capacity(owed.len());
        for name in owed {
            let measured = match self.values.iter().find(|m| m.name == name) {
                Some(measured) => measured.clone(),
                None if self.params.traced => {
                    if !self.omitted.iter().any(|(n, _)| *n == name) {
                        self.omitted
                            .push((name, format!("{} does not run this layer", self.name)));
                    }
                    Measured {
                        name,
                        value: 0.0,
                        summary: Summary::exact(0.0),
                    }
                }
                None => return Err(Broken(format!("`{name}` was not measured"))),
            };
            metrics.push(measured);
        }
        if self.ops.attempted == 0 {
            self.problems.push("no operation was attempted".to_string());
        }
        if self.params.traced {
            let path = self
                .params
                .out_dir
                .join(format!("trace-{}.json", self.name));
            let json = self.trace.to_json(self.name, self.params.seed);
            std::fs::create_dir_all(&self.params.out_dir)
                .and_then(|()| std::fs::write(&path, json.to_string_pretty()))
                .map_err(|e| Broken(format!("cannot write {}: {e}", path.display())))?;
        }
        Ok(Outcome {
            workload: self.name,
            seed: self.params.seed,
            traced: self.params.traced,
            ops: self.ops,
            problems: self.problems,
            omitted: self.omitted,
            metrics,
        })
    }
}
