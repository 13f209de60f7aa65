//! A full set: every workload, untraced then traced, each in a child
//! process of its own so that `peak_rss_mb` is that workload's alone.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use gridagg_core::json::Json;

use crate::host::Host;
use crate::report::fmt_value;
use crate::spec::{END_TO_END, WORKLOADS};

/// How to run a set.
#[derive(Debug, Clone)]
pub struct SetArgs {
    /// Workload seed handed to every child.
    pub seed: u64,
    /// `--seconds` handed to every child.
    pub seconds: f64,
    /// Hand `--quick` to every child.
    pub quick: bool,
    /// Where children write their results and the set file goes.
    pub out_dir: PathBuf,
    /// The set file is `set-<label>.json`.
    pub label: String,
}

/// File a child leaves its full result in.
pub fn result_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(format!("result-{workload}-trace{}.json", u8::from(traced)))
}

/// Run every workload through `exe` (this binary) and write the set
/// file. Returns whether every child's checks passed.
///
/// # Errors
///
/// A message when a child cannot be started, exits non-zero, or leaves
/// no readable result.
pub fn run(exe: &Path, args: &SetArgs) -> Result<bool, String> {
    let host = Host::probe();
    println!("gridagg benchmark: full set, seed {}, on {host}", args.seed);
    let started = Instant::now();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for spec in &WORKLOADS {
        let mut modes = Vec::new();
        for traced in [false, true] {
            let mut cmd = Command::new(exe);
            cmd.args(["--workload", spec.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out_dir);
            if args.quick {
                cmd.arg("--quick");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!(
                    "{} (trace {traced}) exited with {status}",
                    spec.name
                ));
            }
            let path = result_path(&args.out_dir, spec.name, traced);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let result = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            let key = if traced { "per_layer" } else { "end_to_end" };
            modes.push((key.to_string(), result));
        }
        workloads.push((spec.name.to_string(), Json::Obj(modes)));
    }
    let total_s = started.elapsed().as_secs_f64();

    let set = Json::Obj(vec![
        ("host".into(), host.to_json()),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("quick".into(), Json::Bool(args.quick)),
        ("total_s".into(), Json::Num(total_s)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    print_summary(&set);
    println!("full set took {total_s:.1} s on {host}");
    let path = args.out_dir.join(format!("set-{}.json", args.label));
    std::fs::write(&path, set.to_string_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// One end-to-end metric of one workload of a set file: `(value, q1,
/// q3, samples)`.
pub fn end_to_end(set: &Json, workload: &str, metric: &str) -> Option<(f64, f64, f64, f64)> {
    let m = set
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?;
    Some((
        m.get("value")?.as_f64()?,
        m.get("q1")?.as_f64()?,
        m.get("q3")?.as_f64()?,
        m.get("samples")?.as_f64()?,
    ))
}

fn print_summary(set: &Json) {
    println!();
    println!("end-to-end values (medians, quartiles and sample counts are in the per-workload reports above)");
    print!("{:<26}", "metric");
    for w in &WORKLOADS {
        print!(" {:>16}", w.name);
    }
    println!();
    for m in &END_TO_END {
        print!("{:<26}", format!("{} [{}]", m.name, m.unit));
        for w in &WORKLOADS {
            let cell = end_to_end(set, w.name, m.name)
                .map_or_else(|| "-".to_string(), |(value, ..)| fmt_value(value));
            print!(" {cell:>16}");
        }
        println!();
    }
}
