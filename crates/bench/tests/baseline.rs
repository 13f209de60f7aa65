//! The `bench_baseline` binary end to end: the same bytes at any worker
//! count, a `--check` that passes on its own output and fails on a
//! doctored copy, and removed options refused with status 2.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use gridagg_core::json::Json;

/// The keys of one cell, in the order the binary writes them.
const CELL_KEYS: [&str; 10] = [
    "protocol",
    "n",
    "seed",
    "rounds",
    "messages_sent",
    "bytes_sent",
    "peak_in_flight",
    "delivered",
    "allocs_single_run",
    "peak_heap_bytes",
];

/// Run `bench_baseline` with `args` and output under `out`.
fn bench_baseline(args: &[&str], out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_baseline"))
        .args(args)
        .env("GRIDAGG_OUT", out)
        .env_remove("GRIDAGG_SEED")
        .env_remove("GRIDAGG_JOBS")
        .output()
        .expect("bench_baseline binary runs")
}

/// A fresh scratch directory for this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridagg-baseline-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `BENCH_protocols.json` of the N = 256 rung measured on `jobs`
/// workers.
fn rung_256(jobs: &str) -> String {
    let dir = scratch(&format!("jobs{jobs}"));
    let out = bench_baseline(&["--max-n", "256", "--jobs", jobs], &dir);
    let said = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{said}");
    let text = std::fs::read_to_string(dir.join("BENCH_protocols.json")).expect("baseline written");
    std::fs::remove_dir_all(&dir).expect("scratch removed");
    text
}

/// `text` with every cell's `allocs_single_run` halved.
fn halve_allocs(text: &str) -> String {
    let mut json = Json::parse(text).expect("baseline is JSON");
    let Json::Obj(top) = &mut json else {
        panic!("baseline is not an object");
    };
    let Some((_, Json::Arr(cells))) = top.iter_mut().find(|(key, _)| key == "cells") else {
        panic!("baseline has no cells array");
    };
    for cell in cells {
        let Json::Obj(fields) = cell else {
            panic!("cell is not an object");
        };
        for (key, value) in fields {
            if let ("allocs_single_run", Json::Num(allocs)) = (key.as_str(), value) {
                *allocs = (*allocs / 2.0).floor();
            }
        }
    }
    json.to_string_pretty()
}

#[test]
fn same_bytes_at_any_worker_count_and_counters_only() {
    let serial = rung_256("1");
    assert!(serial == rung_256("4"), "--jobs 1 and --jobs 4 differ");
    let json = Json::parse(&serial).expect("baseline is JSON");
    let Some(Json::Arr(cells)) = json.get("cells") else {
        panic!("baseline has no cells array");
    };
    assert_eq!(cells.len(), 5, "one cell per protocol at N = 256");
    for cell in cells {
        let Json::Obj(fields) = cell else {
            panic!("cell is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, CELL_KEYS);
    }
}

#[test]
fn check_passes_on_its_own_output_and_fails_on_halved_allocations() {
    let dir = scratch("check");
    std::fs::create_dir_all(&dir).expect("scratch created");
    let fresh = rung_256("2");
    let (own, halved) = (dir.join("own.json"), dir.join("halved.json"));
    std::fs::write(&own, &fresh).expect("own baseline written");
    std::fs::write(&halved, halve_allocs(&fresh)).expect("halved baseline written");
    let check = |path: &Path| {
        let path = path.to_str().expect("utf-8 path");
        bench_baseline(&["--max-n", "256", "--check", path], &dir.join("out"))
    };

    let pass = check(&own);
    let said = String::from_utf8_lossy(&pass.stderr);
    assert_eq!(pass.status.code(), Some(0), "{said}");

    let fail = check(&halved);
    let said = String::from_utf8_lossy(&fail.stderr);
    assert_eq!(fail.status.code(), Some(1), "{said}");
    assert!(
        said.contains("REGRESSION") && said.contains("allocs_single_run"),
        "{said}"
    );
    std::fs::remove_dir_all(&dir).expect("scratch removed");
}

#[test]
fn removed_options_exit_2_naming_the_argument() {
    let dir = scratch("removed");
    for args in [
        &["--proxies-only"][..],
        &["--threads-ladder"],
        &["--engine-jobs", "2"],
    ] {
        let out = bench_baseline(args, &dir);
        let said = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {said}");
        assert!(said.contains(args[0]), "{args:?}: {said}");
    }
    assert!(!dir.exists(), "refused input must write nothing");
}
