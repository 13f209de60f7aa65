//! Deterministic benchmark baseline for the five protocols.
//!
//! Runs one simulated run of each protocol per group size and records
//! only what `(protocol, N, seed)` decides: messages sent, bytes
//! encoded on the wire, peak in-flight envelopes, deliveries, rounds,
//! and the heap-allocation count and peak heap of that run (measured
//! with a counting global allocator). Host time is not measured here;
//! the `benchmark/` package owns every wall-clock number.
//!
//! The message and byte counters are pure functions of
//! `(protocol, N, seed)`, so any change in them is a behavior or
//! efficiency change, never noise — which is what lets CI gate on them
//! with a 0% tolerance.
//!
//! Cells execute on the [`gridagg_bench::sweep`] worker pool, each on
//! the serial round engine. The allocation counter is **per-thread**
//! and a cell runs wholly on one worker, so `allocs_single_run` and
//! `peak_heap_bytes` see the whole run at any `--jobs`, and the output
//! cells are merged in declaration order, so the JSON is byte-identical
//! whether one worker ran or eight did.
//!
//! The grid is a **scale ladder**: N ∈ {256, …, 1048576}. Every
//! protocol declares the largest N it is benchmarked at (`max_n` in
//! [`PROTOCOLS`]) with a stated reason; cells above a protocol's cap
//! are skipped with that reason logged. On top of that, a run carries
//! its own `--min-n`/`--max-n` window — the default window tops out at
//! N = 16384 so an ordinary CI run stays cheap, while the scale-smoke
//! and nightly jobs select the big cells explicitly.
//!
//! `peak_heap_bytes` is the high-water mark of live heap bytes over the
//! run. It and `allocs_single_run` are reproducible for a given
//! toolchain but drift across toolchains, so `--check` gates them with
//! a ×1.25 ratio tolerance instead of exactly.
//!
//! Usage:
//!
//! * `bench_baseline` — measure and write `results/BENCH_protocols.json`
//!   (`GRIDAGG_OUT` overrides the directory; `GRIDAGG_SEED` sets the
//!   seed).
//! * `bench_baseline --jobs <J>` — run cells on `J` workers
//!   (`GRIDAGG_JOBS` works too; default: all cores).
//! * `bench_baseline --min-n <N>` / `--max-n <N>` — bound the grid
//!   sizes this run measures (defaults: 0 and 16384). Baseline cells
//!   outside the window are skipped by `--check`, not failed.
//! * `bench_baseline --check <path>` — additionally compare the
//!   counters against a committed baseline JSON and exit 1 if
//!   `messages_sent` or `bytes_sent` increased — or `peak_heap_bytes`
//!   or `allocs_single_run` grew by more than 25% — for any compared
//!   cell.
//!
//! Any other argument exits with status 2.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as StdCell;

use gridagg_aggregate::Average;
use gridagg_bench::sweep::Sweep;
use gridagg_bench::{base_seed, host_json, print_table, write_json};
use gridagg_core::config::ExperimentConfig;
use gridagg_core::json::{Json, ToJson};
use gridagg_core::runner::Protocol;

/// Counts every allocation (and reallocation) on top of the system
/// allocator. The count is a deterministic proxy for hot-path churn:
/// two binaries built from the same tree report the same number for the
/// same `(protocol, N, seed)` cell.
///
/// The counter is per-thread so concurrent sweep cells never bleed into
/// each other's counts: a cell runs start-to-finish on one worker, and
/// [`allocs_now`] reads that worker's own tally. `const`-initialized
/// `Cell<u64>` TLS performs no lazy allocation and has no destructor,
/// so touching it inside the allocator cannot recurse.
struct CountingAlloc;

thread_local! {
    static ALLOCS: StdCell<u64> = const { StdCell::new(0) };
    /// Live heap bytes this thread has allocated minus freed.
    static CUR_BYTES: StdCell<u64> = const { StdCell::new(0) };
    /// High-water mark of `CUR_BYTES` since the last [`heap_mark`].
    static PEAK_BYTES: StdCell<u64> = const { StdCell::new(0) };
}

/// This thread's allocation count so far.
fn allocs_now() -> u64 {
    ALLOCS.try_with(StdCell::get).unwrap_or(0)
}

/// Start a peak-memory measurement window: returns the current live
/// byte count and resets the peak to it.
fn heap_mark() -> u64 {
    let cur = CUR_BYTES.try_with(StdCell::get).unwrap_or(0);
    let _ = PEAK_BYTES.try_with(|c| c.set(cur));
    cur
}

/// Peak live bytes since `mark` was taken, relative to the mark: the
/// high-water mark of heap growth inside the window.
fn heap_peak_since(mark: u64) -> u64 {
    PEAK_BYTES
        .try_with(StdCell::get)
        .unwrap_or(0)
        .saturating_sub(mark)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = CUR_BYTES.try_with(|c| {
            let cur = c.get() + layout.size() as u64;
            c.set(cur);
            let _ = PEAK_BYTES.try_with(|p| p.set(p.get().max(cur)));
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // saturating: memory allocated on another thread (or before the
        // counters existed) may be freed here
        let _ = CUR_BYTES.try_with(|c| c.set(c.get().saturating_sub(layout.size() as u64)));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = CUR_BYTES.try_with(|c| {
            let cur = c
                .get()
                .saturating_sub(layout.size() as u64)
                .saturating_add(new_size as u64);
            c.set(cur);
            let _ = PEAK_BYTES.try_with(|p| p.set(p.get().max(cur)));
        });
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The full scale ladder. A run measures the slice selected by its
/// `--min-n`/`--max-n` window intersected with each protocol's own
/// `max_n` cap.
const SIZES: [usize; 7] = [256, 1024, 4096, 16384, 65536, 262144, 1048576];

/// Default `--max-n`: the top of the frozen golden/proxy grid. Cells
/// above it are the scale ladder, selected explicitly by the
/// scale-smoke and nightly jobs. Runs at larger N also disable
/// hiergossip's per-phase trace recording (pure instrumentation,
/// O(phases) heap per member).
const DEFAULT_MAX_N: usize = 16384;

/// Per-protocol scale policy: the largest N each protocol is
/// benchmarked at, and why bigger grids are skipped. Skips are logged
/// uniformly with the reason so a grid change never silently narrows
/// coverage.
struct ProtocolSpec {
    protocol: Protocol,
    max_n: usize,
    cap_reason: &'static str,
}

const PROTOCOLS: [ProtocolSpec; 5] = [
    ProtocolSpec {
        protocol: Protocol::HierGossip,
        max_n: 1_048_576,
        cap_reason: "top of the ladder",
    },
    ProtocolSpec {
        protocol: Protocol::FlatGossip,
        max_n: 65_536,
        cap_reason: "per-member known-vote lists are O(coverage) and message volume O(N*rounds)",
    },
    ProtocolSpec {
        protocol: Protocol::Flood,
        max_n: 4_096,
        cap_reason: "O(N^2) messages is pathological at larger sizes",
    },
    ProtocolSpec {
        protocol: Protocol::Centralized,
        max_n: 16_384,
        cap_reason:
            "duplicate-vote rejection at the leader requires exact, O(N)-bit contributor sets",
    },
    ProtocolSpec {
        protocol: Protocol::Leader { committee: 1 },
        max_n: 262_144,
        cap_reason: "peak heap is already ~455 MB at N=262144: every member keeps \
                     depth*K + 1 aggregate slots, so the next rung needs about 1.8 GB",
    },
];

/// One `(protocol, N)` measurement: every field is decided by
/// `(protocol, n, seed)` and the toolchain.
struct Cell {
    protocol: &'static str,
    n: usize,
    seed: u64,
    rounds: u64,
    messages_sent: u64,
    bytes_sent: u64,
    peak_in_flight: u64,
    delivered: u64,
    allocs_single_run: u64,
    /// High-water mark of live heap bytes over the run
    /// (counting-allocator delta, relative to the pre-run mark).
    peak_heap_bytes: u64,
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("protocol".into(), Json::Str(self.protocol.into())),
            ("n".into(), Json::Num(self.n as f64)),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("rounds".into(), Json::Num(self.rounds as f64)),
            ("messages_sent".into(), Json::Num(self.messages_sent as f64)),
            ("bytes_sent".into(), Json::Num(self.bytes_sent as f64)),
            (
                "peak_in_flight".into(),
                Json::Num(self.peak_in_flight as f64),
            ),
            ("delivered".into(), Json::Num(self.delivered as f64)),
            (
                "allocs_single_run".into(),
                Json::Num(self.allocs_single_run as f64),
            ),
            (
                "peak_heap_bytes".into(),
                Json::Num(self.peak_heap_bytes as f64),
            ),
        ])
    }
}

struct Baseline {
    cells: Vec<Cell>,
}

impl ToJson for Baseline {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "schema".into(),
                Json::Str("gridagg-bench-baseline-v1".into()),
            ),
            ("host".into(), host_json()),
            (
                "cells".into(),
                Json::Arr(self.cells.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

fn measure(protocol: Protocol, cfg: &ExperimentConfig, seed: u64) -> Cell {
    // The whole run happens on this worker thread, so the per-thread
    // counters see all of it at any `--jobs`.
    let before = allocs_now();
    let mark = heap_mark();
    let report = protocol.run::<Average>(cfg, seed);
    let allocs_single_run = allocs_now() - before;
    let peak_heap_bytes = heap_peak_since(mark);
    Cell {
        protocol: protocol.name(),
        n: cfg.n,
        seed,
        rounds: report.rounds,
        messages_sent: report.net.sent,
        bytes_sent: report.net.bytes_sent,
        peak_in_flight: report.net.peak_in_flight,
        delivered: report.net.delivered,
        allocs_single_run,
        peak_heap_bytes,
    }
}

/// Queue every protocol's `(protocol, n)` cell, honoring each
/// protocol's `max_n` cap with a logged reason.
fn queue_cells(sweep: &mut Sweep<Cell>, n: usize, seed: u64) {
    let mut cfg = ExperimentConfig::paper_defaults().with_n(n);
    // Above the frozen grid, per-phase trace recording is pure memory
    // overhead (it never draws randomness or sends): turn it off so
    // the peak-heap ceiling reflects protocol state, not telemetry.
    cfg.phase_trace = n <= DEFAULT_MAX_N;
    cfg.validate().expect("paper defaults are valid");
    for spec in &PROTOCOLS {
        if n > spec.max_n {
            eprintln!(
                "skipping {}/N={n}: max N is {} ({})",
                spec.protocol.name(),
                spec.max_n,
                spec.cap_reason
            );
            continue;
        }
        let protocol = spec.protocol;
        sweep.push(format!("{}/n={n}", protocol.name()), move || {
            measure(protocol, &cfg, seed)
        });
    }
}

fn measure_all(seed: u64, min_n: usize, max_n: usize) -> Vec<Cell> {
    let mut sweep = Sweep::new();
    for n in SIZES {
        if n < min_n || n > max_n {
            eprintln!("skipping N={n} cells: outside this run's --min-n/--max-n window");
            continue;
        }
        queue_cells(&mut sweep, n, seed);
    }
    eprintln!(
        "measuring {} cells on {} worker(s) ...",
        sweep.len(),
        gridagg_bench::sweep::jobs()
    );
    sweep.run_or_exit("bench_baseline")
}

fn report_table(cells: &[Cell]) {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.protocol.to_string(),
                c.n.to_string(),
                c.rounds.to_string(),
                c.messages_sent.to_string(),
                c.bytes_sent.to_string(),
                c.peak_in_flight.to_string(),
                c.allocs_single_run.to_string(),
                c.peak_heap_bytes.to_string(),
            ]
        })
        .collect();
    print_table(
        "Protocol baseline (one run per cell, deterministic per seed)",
        &[
            "protocol",
            "N",
            "rounds",
            "msgs sent",
            "bytes sent",
            "peak in-flight",
            "allocs/run",
            "peak heap B",
        ],
        &rows,
    );
}

/// Ratio tolerance for the `peak_heap_bytes` and `allocs_single_run`
/// gates: both are deterministic for one toolchain but drift across
/// compiler and standard-library versions, so the gates fire only on
/// an increase above 25% — one stray allocation per message is ×3.7
/// on hiergossip at N = 4096, one per member-round ×2.4.
const HEAP_TOLERANCE: f64 = 1.25;

/// Compare `cells` against a committed baseline file. Returns the
/// number of regressions: a cell whose `messages_sent` or `bytes_sent`
/// *increased* over the baseline, whose `peak_heap_bytes` or
/// `allocs_single_run` grew by more than [`HEAP_TOLERANCE`], or a
/// baseline cell that this run should have measured but did not.
/// Baseline cells outside the run's
/// `--min-n`/`--max-n` window (or a protocol's `max_n` cap) are
/// skipped with a logged reason, so a windowed run can still check
/// against the full committed ladder.
fn check_against(cells: &[Cell], path: &str, min_n: usize, max_n: usize) -> usize {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_baseline: cannot read baseline {path}: {e}"));
    let json = Json::parse(&text)
        .unwrap_or_else(|e| panic!("bench_baseline: malformed baseline {path}: {e}"));
    let Some(Json::Arr(base_cells)) = json.get("cells") else {
        panic!("bench_baseline: baseline {path} has no `cells` array");
    };

    let counter = |obj: &Json, key: &str| -> u64 {
        obj.get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("bench_baseline: baseline cell missing `{key}`"))
            as u64
    };

    let mut regressions = 0;
    for base in base_cells {
        let proto = base
            .get("protocol")
            .and_then(Json::as_str)
            .expect("baseline cell has a protocol");
        let n = counter(base, "n") as usize;
        if n < min_n || n > max_n {
            eprintln!(
                "skipping baseline cell {proto}/N={n}: outside this run's \
                 --min-n/--max-n window"
            );
            continue;
        }
        if let Some(spec) = PROTOCOLS.iter().find(|s| s.protocol.name() == proto) {
            if n > spec.max_n {
                eprintln!(
                    "skipping baseline cell {proto}/N={n}: above the protocol's \
                     max N of {} ({})",
                    spec.max_n, spec.cap_reason
                );
                continue;
            }
        }
        let Some(cur) = cells.iter().find(|c| c.protocol == proto && c.n == n) else {
            eprintln!("REGRESSION {proto}/N={n}: cell missing from this run");
            regressions += 1;
            continue;
        };
        // Gated counters: any increase fails the run, and the failure
        // names the counter and both values so the log alone localizes
        // the regression.
        for (key, base_v, cur_v) in [
            (
                "messages_sent",
                counter(base, "messages_sent"),
                cur.messages_sent,
            ),
            ("bytes_sent", counter(base, "bytes_sent"), cur.bytes_sent),
        ] {
            if cur_v > base_v {
                eprintln!(
                    "REGRESSION {proto}/N={n}: {key} {base_v} -> {cur_v} (+{:.2}%)",
                    (cur_v as f64 / base_v as f64 - 1.0) * 100.0
                );
                regressions += 1;
            } else if cur_v < base_v {
                // An improvement is worth noticing too: refresh the
                // committed baseline so the gate tightens.
                eprintln!(
                    "improved {proto}/N={n}: {key} {base_v} -> {cur_v} \
                     (consider refreshing the baseline)"
                );
            }
        }
        // Heap gates: ratio-tolerant (see HEAP_TOLERANCE). Baselines
        // recorded before a field existed are reported, not failed.
        for (key, cur_v) in [
            ("peak_heap_bytes", cur.peak_heap_bytes),
            ("allocs_single_run", cur.allocs_single_run),
        ] {
            match base.get(key).and_then(Json::as_f64) {
                Some(base_v) if base_v > 0.0 => {
                    let ratio = cur_v as f64 / base_v;
                    if ratio > HEAP_TOLERANCE {
                        eprintln!(
                            "REGRESSION {proto}/N={n}: {key} {base_v:.0} -> {cur_v} \
                             (x{ratio:.2}, tolerance x{HEAP_TOLERANCE})"
                        );
                        regressions += 1;
                    } else if ratio < 1.0 / HEAP_TOLERANCE {
                        eprintln!(
                            "improved {proto}/N={n}: {key} {base_v:.0} -> {cur_v} \
                             (consider refreshing the baseline)"
                        );
                    }
                }
                _ => {
                    eprintln!(
                        "note {proto}/N={n}: baseline has no {key} \
                         (this run: {cur_v}) — not compared"
                    );
                }
            }
        }
        // Informational counters: also deterministic, but not gated
        // (a rounds or delivery-count shift may be a deliberate
        // protocol change). Any drift is still printed with both
        // values — a silent divergence here usually foreshadows a
        // gated one.
        for (key, base_v, cur_v) in [
            ("rounds", counter(base, "rounds"), cur.rounds),
            ("delivered", counter(base, "delivered"), cur.delivered),
            (
                "peak_in_flight",
                counter(base, "peak_in_flight"),
                cur.peak_in_flight,
            ),
        ] {
            if cur_v != base_v {
                eprintln!("note {proto}/N={n}: {key} {base_v} -> {cur_v} (not gated)");
            }
        }
    }
    regressions
}

fn main() {
    let mut check_path = None;
    let mut min_n: usize = 0;
    let mut max_n: usize = DEFAULT_MAX_N;
    let mut args = std::env::args().skip(1);
    let parse_n = |args: &mut dyn Iterator<Item = String>, flag: &str| -> usize {
        args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("bench_baseline: expected a group size after {flag}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {
                check_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("bench_baseline: expected a path after --check");
                    std::process::exit(2);
                }));
            }
            "--min-n" => min_n = parse_n(&mut args, "--min-n"),
            "--max-n" => max_n = parse_n(&mut args, "--max-n"),
            // consumed here; the sweep executor re-reads it from argv
            "--jobs" => {
                if args.next().is_none() {
                    eprintln!("bench_baseline: expected a count after --jobs");
                    std::process::exit(2);
                }
            }
            other if other.starts_with("--jobs=") => {}
            other => {
                eprintln!(
                    "bench_baseline: unknown argument {other:?} \
                     (expected --check <path>, --jobs <J>, --min-n <N>, --max-n <N>)"
                );
                std::process::exit(2);
            }
        }
    }
    if min_n > max_n {
        eprintln!("bench_baseline: --min-n {min_n} exceeds --max-n {max_n}");
        std::process::exit(2);
    }

    let baseline = Baseline {
        cells: measure_all(base_seed(), min_n, max_n),
    };
    report_table(&baseline.cells);
    write_json("BENCH_protocols.json", &baseline);

    if let Some(path) = check_path {
        let regressions = check_against(&baseline.cells, &path, min_n, max_n);
        if regressions > 0 {
            eprintln!("bench_baseline: {regressions} regression(s) vs {path}");
            std::process::exit(1);
        }
        println!("bench_baseline: deterministic counters match or improve on {path}");
    }
}
