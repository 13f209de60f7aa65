//! Real-socket scale benchmark: a multiplexed loopback cluster driven
//! to convergence under injected loss, reported next to the simulator
//! at matching loss.
//!
//! Three presets ride the same harness:
//!
//! * `smoke` — 512 members over 16 sockets (the CI smoke rung);
//! * `full` — 10,000 members over 64 sockets and ≤ `num_cpus` worker
//!   threads (the nightly rung);
//! * `full-mw4` — the same 10,000-member grid pinned to **4 worker
//!   threads**, exercising the sharded multi-worker event loop at
//!   scale regardless of how many cores the measuring box exposes.
//!
//! Each preset runs the cluster once, then runs the **simulator** on
//! the same protocol at the same group size and loss probability — the
//! in-run reference that makes the headline claim checkable: the
//! real-socket runtime, with retry-on-silence at the socket boundary,
//! must reach completeness at least the simulator's.
//!
//! No host time is recorded: the `udp-sat-4k` workload of the
//! `benchmark/` package times the runtime. The `--check` gate holds the
//! *structural* results: every member reports, completeness does not
//! fall below the committed baseline (minus a small noise margin), the
//! runtime stays ≥ the in-run simulator reference, a wire frame stays
//! within a constant of the simulator's bytes per message, and datagram
//! coalescing does not regress.
//!
//! Usage:
//!
//! * `cluster_10k` — run every preset, write
//!   `results/BENCH_runtime.json` (`GRIDAGG_OUT` overrides the
//!   directory, `GRIDAGG_SEED` the seed).
//! * `cluster_10k --preset smoke|full|full-mw4` — run one preset.
//! * `cluster_10k --check <path>` — additionally compare against a
//!   committed baseline JSON and exit non-zero on a regression.
//!   Baseline cells whose preset this run did not measure are skipped,
//!   so the CI smoke job checks only the smoke cell; so is a cell
//!   recorded on more workers than this host has cores, and
//!   `frames_per_datagram` is compared only at equal worker counts.

use std::time::Duration;

use gridagg_aggregate::Average;
use gridagg_bench::{base_seed, host_cores, host_json, print_table, write_json};
use gridagg_core::config::ExperimentConfig;
use gridagg_core::hiergossip::HierGossipConfig;
use gridagg_core::json::{Json, ToJson};
use gridagg_core::runner::run_hiergossip;
use gridagg_core::scope::ScopeIndex;
use gridagg_group::view::View;
use gridagg_hierarchy::{FairHashPlacement, Hierarchy};
use gridagg_runtime::endpoint::FRAME_HEADER_LEN;
use gridagg_runtime::{run_cluster, RuntimeConfig};

/// Grid-box fan-in `K` of the hierarchy every preset runs on.
const K: u8 = 4;

/// Sim-vs-wire byte parity: a frame is the demux header plus what the
/// simulator charges (`Payload::wire_size`) plus a constant of the
/// message's shape — at most a batch of `K` aggregates, each carrying a
/// presence flag and a contributor count (9 B), plus the batch's reply
/// flag — plus one byte of slack for the means' different message mix.
const WIRE_OVER_SIM_BYTES: f64 = (FRAME_HEADER_LEN + 9 * K as usize + 2) as f64;

/// Noise margin for the completeness-vs-baseline gate: loopback runs
/// are wall-clock scheduled, so completeness varies run to run.
const COMPLETENESS_MARGIN: f64 = 0.05;

/// Margin for the runtime-vs-simulator gate (the acceptance claim).
const SIM_MARGIN: f64 = 0.02;

/// The coalescing gate: frames-per-datagram may not fall below this
/// fraction of the committed baseline.
const COALESCE_RATIO_FLOOR: f64 = 0.7;

struct Preset {
    name: &'static str,
    n: usize,
    sockets: usize,
    /// Worker threads driving the member shards; 0 means the
    /// [`RuntimeConfig`] default (one per available core).
    workers: usize,
    round_interval: Duration,
    loss: f64,
}

const PRESETS: [Preset; 3] = [
    Preset {
        name: "smoke",
        n: 512,
        sockets: 16,
        workers: 0,
        round_interval: Duration::from_millis(5),
        loss: 0.10,
    },
    // The full round interval is sized so one worker core can tick all
    // 10,000 members (plus deliveries) inside a round: a too-short
    // interval makes rounds fire back-to-back, messages straddle round
    // boundaries, and members finalize before their aggregates fill.
    Preset {
        name: "full",
        n: 10_000,
        sockets: 64,
        workers: 0,
        round_interval: Duration::from_millis(100),
        loss: 0.10,
    },
    // Same grid, pinned to 4 workers: each worker owns 16 of the 64
    // sockets, so the sharded event loop's cross-worker handoff paths
    // run at scale even on a box whose core count would otherwise
    // collapse the pool to one worker.
    Preset {
        name: "full-mw4",
        n: 10_000,
        sockets: 64,
        workers: 4,
        round_interval: Duration::from_millis(100),
        loss: 0.10,
    },
];

/// One preset's measurement: the cluster run plus its simulator
/// reference at matching loss.
struct Cell {
    preset: &'static str,
    n: usize,
    sockets: usize,
    workers: usize,
    loss: f64,
    seed: u64,
    // Structural (gated):
    reported: usize,
    mean_completeness: f64,
    min_completeness: f64,
    frames_per_datagram: f64,
    bytes_per_frame: f64,
    // Simulator reference at matching n and loss:
    sim_mean_completeness: f64,
    sim_rounds: u64,
    sim_bytes_per_msg: f64,
    // Context (informational):
    mean_rounds: f64,
    max_rounds_seen: u64,
    frames_sent: u64,
    datagrams_sent: u64,
    batched_sends: u64,
    bytes_sent: u64,
    retries: u64,
    injected_drops: u64,
    decode_errors: u64,
    wakeups: u64,
    backpressure_drains: u64,
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("preset".into(), Json::Str(self.preset.into())),
            ("n".into(), Json::Num(self.n as f64)),
            ("sockets".into(), Json::Num(self.sockets as f64)),
            ("workers".into(), Json::Num(self.workers as f64)),
            ("loss".into(), Json::Num(self.loss)),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("reported".into(), Json::Num(self.reported as f64)),
            (
                "mean_completeness".into(),
                Json::Num(self.mean_completeness),
            ),
            ("min_completeness".into(), Json::Num(self.min_completeness)),
            (
                "frames_per_datagram".into(),
                Json::Num(self.frames_per_datagram),
            ),
            ("bytes_per_frame".into(), Json::Num(self.bytes_per_frame)),
            (
                "sim_mean_completeness".into(),
                Json::Num(self.sim_mean_completeness),
            ),
            ("sim_rounds".into(), Json::Num(self.sim_rounds as f64)),
            (
                "sim_bytes_per_msg".into(),
                Json::Num(self.sim_bytes_per_msg),
            ),
            ("mean_rounds".into(), Json::Num(self.mean_rounds)),
            (
                "max_rounds_seen".into(),
                Json::Num(self.max_rounds_seen as f64),
            ),
            ("frames_sent".into(), Json::Num(self.frames_sent as f64)),
            (
                "datagrams_sent".into(),
                Json::Num(self.datagrams_sent as f64),
            ),
            ("batched_sends".into(), Json::Num(self.batched_sends as f64)),
            ("bytes_sent".into(), Json::Num(self.bytes_sent as f64)),
            ("retries".into(), Json::Num(self.retries as f64)),
            (
                "injected_drops".into(),
                Json::Num(self.injected_drops as f64),
            ),
            ("decode_errors".into(), Json::Num(self.decode_errors as f64)),
            ("wakeups".into(), Json::Num(self.wakeups as f64)),
            (
                "backpressure_drains".into(),
                Json::Num(self.backpressure_drains as f64),
            ),
        ])
    }
}

struct Runtime {
    cells: Vec<Cell>,
}

impl ToJson for Runtime {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "schema".into(),
                Json::Str("gridagg-bench-runtime-v1".into()),
            ),
            ("host".into(), host_json()),
            (
                "cells".into(),
                Json::Arr(self.cells.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

fn measure(preset: &Preset, seed: u64) -> Cell {
    let n = preset.n;
    eprintln!(
        "cluster_10k: running preset {} — {n} members over {} sockets, {:.0}% loss ...",
        preset.name,
        preset.sockets,
        preset.loss * 100.0
    );

    let h = Hierarchy::for_group(K, n).expect("hierarchy shape");
    let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, seed));
    let votes: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut rt_cfg = RuntimeConfig {
        sockets: preset.sockets,
        round_interval: preset.round_interval,
        seed,
        ..Default::default()
    }
    .with_uniform_loss(preset.loss);
    if preset.workers > 0 {
        rt_cfg.workers = preset.workers;
    }
    let run = run_cluster::<Average>(votes, index, HierGossipConfig::default(), rt_cfg)
        .unwrap_or_else(|e| panic!("cluster_10k: preset {} failed: {e}", preset.name));
    let r = &run.report;

    // Simulator reference: same protocol, same N, same loss, no
    // process failures (the loopback cluster has none).
    let mut sim_cfg = ExperimentConfig::paper_defaults()
        .with_n(n)
        .with_ucastl(preset.loss)
        .with_pf(0.0);
    sim_cfg.phase_trace = false;
    sim_cfg.validate().expect("sim reference config is valid");
    let sim = run_hiergossip::<Average>(&sim_cfg, seed);

    Cell {
        preset: preset.name,
        n,
        sockets: r.sockets,
        workers: r.workers,
        loss: preset.loss,
        seed,
        reported: r.reported,
        mean_completeness: r.mean_completeness,
        min_completeness: r.min_completeness,
        frames_per_datagram: r.frames_per_datagram(),
        bytes_per_frame: r.stats.bytes_sent as f64 / r.stats.frames_sent.max(1) as f64,
        sim_mean_completeness: sim.mean_completeness().unwrap_or(0.0),
        sim_rounds: sim.rounds,
        sim_bytes_per_msg: sim.net.bytes_sent as f64 / sim.net.sent.max(1) as f64,
        mean_rounds: r.mean_rounds,
        max_rounds_seen: r.max_rounds_seen,
        frames_sent: r.stats.frames_sent,
        datagrams_sent: r.stats.datagrams_sent,
        batched_sends: r.stats.batched_sends,
        bytes_sent: r.stats.bytes_sent,
        retries: r.stats.retries,
        injected_drops: r.stats.injected_drops,
        decode_errors: r.stats.decode_errors,
        wakeups: r.stats.wakeups,
        backpressure_drains: r.stats.backpressure_drains,
    }
}

fn report_table(cells: &[Cell]) {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.preset.to_string(),
                c.n.to_string(),
                format!("{}/{}", c.sockets, c.workers),
                format!("{:.4}", c.mean_completeness),
                format!("{:.4}", c.sim_mean_completeness),
                format!("{:.2}", c.frames_per_datagram),
                format!("{:.1}", c.bytes_per_frame),
                format!("{:.1}", c.sim_bytes_per_msg),
                c.retries.to_string(),
                c.injected_drops.to_string(),
                c.backpressure_drains.to_string(),
            ]
        })
        .collect();
    print_table(
        "Loopback cluster vs simulator at matching loss",
        &[
            "preset",
            "N",
            "socks/wrk",
            "completeness",
            "sim ref",
            "frames/dgram",
            "B/frame",
            "sim B/msg",
            "retries",
            "drops",
            "bp drains",
        ],
        &rows,
    );
}

/// Gate this run's cells: in-run simulator comparison plus regression
/// checks against the committed baseline. Returns the failure count.
fn check_against(cells: &[Cell], path: &str) -> usize {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cluster_10k: cannot read baseline {path}: {e}"));
    let json = Json::parse(&text)
        .unwrap_or_else(|e| panic!("cluster_10k: malformed baseline {path}: {e}"));
    let Some(Json::Arr(base_cells)) = json.get("cells") else {
        panic!("cluster_10k: baseline {path} has no `cells` array");
    };

    let num = |obj: &Json, key: &str| -> f64 {
        obj.get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("cluster_10k: baseline cell missing `{key}`"))
    };

    let cores = host_cores();
    let mut failures = 0;

    // In-run structural gates: these hold for every measured cell
    // regardless of the baseline's contents.
    for c in cells {
        if c.reported != c.n {
            eprintln!(
                "REGRESSION {}: only {}/{} members reported an outcome",
                c.preset, c.reported, c.n
            );
            failures += 1;
        }
        if c.mean_completeness + SIM_MARGIN < c.sim_mean_completeness {
            eprintln!(
                "REGRESSION {}: cluster completeness {:.4} fell below the simulator's \
                 {:.4} at matching loss (margin {SIM_MARGIN})",
                c.preset, c.mean_completeness, c.sim_mean_completeness
            );
            failures += 1;
        }
        if c.bytes_per_frame > c.sim_bytes_per_msg + WIRE_OVER_SIM_BYTES {
            eprintln!(
                "REGRESSION {}: {:.1} B per wire frame against {:.1} B per simulated message \
                 (allowed gap {WIRE_OVER_SIM_BYTES} B: frames must stay constant in N)",
                c.preset, c.bytes_per_frame, c.sim_bytes_per_msg
            );
            failures += 1;
        }
    }

    for base in base_cells {
        let preset = base
            .get("preset")
            .and_then(Json::as_str)
            .expect("baseline cell has a preset");
        let Some(cur) = cells.iter().find(|c| c.preset == preset) else {
            eprintln!("skipping baseline cell {preset}: not measured by this run");
            continue;
        };
        // A workers-scaled row is only comparable on a host that can
        // run that many workers in parallel.
        let base_workers = num(base, "workers") as usize;
        if base_workers > cores {
            eprintln!(
                "skipping baseline cell {preset}: recorded on {base_workers} workers, \
                 this host has {cores} core(s)"
            );
            continue;
        }
        let base_completeness = num(base, "mean_completeness");
        if cur.mean_completeness < base_completeness - COMPLETENESS_MARGIN {
            eprintln!(
                "REGRESSION {preset}: mean_completeness {base_completeness:.4} -> {:.4} \
                 (margin {COMPLETENESS_MARGIN})",
                cur.mean_completeness
            );
            failures += 1;
        }
        // Coalescing falls with worker count (fewer frames share a
        // destination socket per worker), so the floor only means
        // something against a row with the same number of workers.
        let base_coalesce = num(base, "frames_per_datagram");
        if cur.workers != base_workers {
            eprintln!(
                "note {preset}: frames_per_datagram {base_coalesce:.2} ({base_workers} workers) \
                 vs {:.2} ({} workers) — not compared",
                cur.frames_per_datagram, cur.workers
            );
        } else if cur.frames_per_datagram < base_coalesce * COALESCE_RATIO_FLOOR {
            eprintln!(
                "REGRESSION {preset}: frames_per_datagram {base_coalesce:.2} -> {:.2} \
                 (floor x{COALESCE_RATIO_FLOOR})",
                cur.frames_per_datagram
            );
            failures += 1;
        }
    }
    failures
}

fn main() {
    let mut check_path = None;
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {
                check_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("cluster_10k: expected a path after --check");
                    std::process::exit(2);
                }));
            }
            "--preset" => {
                let name = args.next().unwrap_or_else(|| {
                    eprintln!("cluster_10k: expected a preset name after --preset");
                    std::process::exit(2);
                });
                if !PRESETS.iter().any(|p| p.name == name) {
                    eprintln!(
                        "cluster_10k: unknown preset {name:?} \
                         (expected smoke, full, or full-mw4)"
                    );
                    std::process::exit(2);
                }
                only = Some(name);
            }
            other => {
                eprintln!(
                    "cluster_10k: unknown argument {other:?} \
                     (expected --preset <smoke|full|full-mw4>, --check <path>)"
                );
                std::process::exit(2);
            }
        }
    }

    let seed = base_seed();
    let runtime = Runtime {
        cells: PRESETS
            .iter()
            .filter(|p| only.as_deref().is_none_or(|o| o == p.name))
            .map(|p| measure(p, seed))
            .collect(),
    };
    report_table(&runtime.cells);
    write_json("BENCH_runtime.json", &runtime);

    if let Some(path) = check_path {
        let failures = check_against(&runtime.cells, &path);
        if failures > 0 {
            eprintln!("cluster_10k: {failures} regression(s) vs {path}");
            std::process::exit(1);
        }
        println!("cluster_10k: completeness, byte parity and coalescing hold against {path}");
    }
}
