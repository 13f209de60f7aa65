//! The `figures` binary end to end: the same files and the same
//! transcript at any worker count, and bad input refused with status 2.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Run `figures` with `args`, `GRIDAGG_RUNS=runs` and output under `out`.
fn figures(args: &[&str], runs: &str, out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env("GRIDAGG_RUNS", runs)
        .env("GRIDAGG_OUT", out)
        .env_remove("GRIDAGG_SEED")
        .env_remove("GRIDAGG_JOBS")
        .output()
        .expect("figures binary runs")
}

/// A fresh scratch directory for this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridagg-figures-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir`, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let entry = |e: std::io::Result<std::fs::DirEntry>| {
        let path = e.expect("directory entry").path();
        let name = path.file_name().expect("file name").to_string_lossy();
        (name.into_owned(), std::fs::read(&path).expect("readable"))
    };
    std::fs::read_dir(dir)
        .expect("output directory")
        .map(entry)
        .collect()
}

#[test]
fn same_bytes_at_any_worker_count() {
    // the three shapes: analytic, sweep + plot + config, three series
    // per point
    let subset = ["fig04", "fig07", "ablation_leader"];
    let run = |jobs: &str| {
        let dir = scratch(&format!("jobs{jobs}"));
        let out = figures(&[&subset[..], &["--jobs", jobs]].concat(), "2", &dir);
        let written = files(&dir);
        std::fs::remove_dir_all(&dir).expect("scratch removed");
        (out.status.code(), out.stdout, written)
    };
    let (serial, parallel) = (run("1"), run("4"));
    assert_eq!(serial.0, Some(0));
    assert_eq!(
        serial.2.keys().collect::<Vec<_>>(),
        [
            "ablation_leader.csv",
            "fig04.csv",
            "fig04.svg",
            "fig07.config.json",
            "fig07.csv",
            "fig07.svg"
        ]
    );
    let transcript = String::from_utf8_lossy(&serial.1);
    for name in subset {
        assert!(transcript.contains(&format!("########## {name} ##########")));
    }
    assert!(serial == parallel, "--jobs 1 and --jobs 4 differ");
}

#[test]
fn bad_input_exits_2_naming_what_is_wrong() {
    let dir = scratch("bad");
    let unknown = figures(&["no_such_figure"], "2", &dir);
    let said = String::from_utf8_lossy(&unknown.stderr);
    assert_eq!(unknown.status.code(), Some(2), "{said}");
    for name in gridagg_bench::figures::names() {
        assert!(said.contains(name), "{name} not listed in: {said}");
    }
    let garbage = figures(&["fig04"], "4x", &dir);
    let said = String::from_utf8_lossy(&garbage.stderr);
    assert_eq!(garbage.status.code(), Some(2), "{said}");
    assert!(said.contains("GRIDAGG_RUNS"), "{said}");
    assert!(!dir.exists(), "refused input must write nothing");
}
