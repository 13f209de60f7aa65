//! `figures` — regenerate the evaluation: every figure, the complexity
//! table and every ablation of EXPERIMENTS.md, or the ones named.
//!
//! ```console
//! $ figures                     # all 18, in EXPERIMENTS.md order
//! $ figures fig06 ablation_k    # only these
//! $ GRIDAGG_RUNS=4 figures --jobs 2
//! ```
//!
//! Honours `GRIDAGG_RUNS` / `GRIDAGG_SEED` / `GRIDAGG_OUT` and `--jobs`
//! / `GRIDAGG_JOBS` (see the crate docs); the specs and the driver are
//! [`gridagg_bench::figures`]. A figure whose shape check fails still
//! writes its files, the others still run, and the failures are listed
//! at the end with exit status 1. An unknown name lists the valid ones
//! and exits with status 2.

use gridagg_bench::figures::{names, run};

fn main() {
    let mut wanted = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // the worker count is read by the sweep executor, which
        // re-reads argv (and rejects a malformed one)
        if arg == "--jobs" {
            args.next();
        } else if !arg.starts_with("--jobs=") {
            wanted.push(arg);
        }
    }
    let failed = run(&wanted, gridagg_bench::runs()).unwrap_or_else(|unknown| {
        eprintln!(
            "figures: no figure `{unknown}`; valid: {}",
            names().join(" ")
        );
        std::process::exit(2);
    });
    if !failed.is_empty() {
        eprintln!("\nfailed: {failed:?}");
        std::process::exit(1);
    }
    let all = if wanted.is_empty() {
        names().len()
    } else {
        wanted.len()
    };
    println!("\nall {all} figures completed");
}
