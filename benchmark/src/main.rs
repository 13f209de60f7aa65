//! Command line of the gridagg benchmark.
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — one
//!   workload in this process: the untraced reps and the end-to-end
//!   metrics (`--trace 0`), or the traced rep and the per-layer
//!   metrics (`--trace 1`). The last line of standard output is the
//!   result as one JSON object.
//! * no `--workload` — the full set: every workload, untraced then
//!   traced, each in a child process; writes `out/set-<label>.json`.
//! * `compare <a.json> <b.json>` — two set files against the bounds.

use std::path::PathBuf;
use std::process::ExitCode;

use gridagg_benchmark::compare;
use gridagg_benchmark::host::Host;
use gridagg_benchmark::set::{self, SetArgs};
use gridagg_benchmark::spec::{RUN_SECONDS, WORKLOADS};
use gridagg_benchmark::workloads::{self, Params};
use gridagg_core::json::Json;

const USAGE: &str = "usage:
  gridagg-benchmark [--seed N] [--seconds S] [--quick] [--out DIR] [--label L]
  gridagg-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
  gridagg-benchmark compare A.json B.json";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out_dir: PathBuf,
    label: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2001,
        seconds: RUN_SECONDS as f64,
        traced: false,
        quick: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        label: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(format!("--seconds {} is not in (0, 3600]", args.seconds));
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--quick" => args.quick = true,
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--label" => args.label = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn one_workload(workload: &str, args: &Args) -> Result<(), String> {
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        quick: args.quick,
        out_dir: args.out_dir.clone(),
    };
    let host = Host::probe();
    let outcome = workloads::run(workload, &params).map_err(|e| e.to_string())?;
    outcome.print(&host);
    let mut full = match outcome.to_json() {
        Json::Obj(fields) => fields,
        other => unreachable!("an outcome serializes to an object, not {other}"),
    };
    full.insert(0, ("host".into(), host.to_json()));
    let path = set::result_path(&args.out_dir, outcome.workload, outcome.traced);
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, Json::Obj(full).to_string_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{}", outcome.driver_line());
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let rest: Vec<String> = argv.skip(1).collect();
        let [a, b] = rest.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(a, b) {
            Ok((0, 0)) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            eprintln!("workloads: {}", WORKLOADS.map(|w| w.name).join(", "));
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        // a wrong answer from the program is reported in the result
        // line (`correct: false`), not by the exit code
        Some(workload) => one_workload(workload, &args).map(|()| true),
        None => {
            let exe = match std::env::current_exe() {
                Ok(exe) => exe,
                Err(e) => {
                    eprintln!("cannot find this executable to re-run it: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let set_args = SetArgs {
                seed: args.seed,
                seconds: args.seconds,
                quick: args.quick,
                out_dir: args.out_dir.clone(),
                label: args
                    .label
                    .clone()
                    .unwrap_or_else(|| format!("seed{}", args.seed)),
            };
            set::run(&exe, &set_args)
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
