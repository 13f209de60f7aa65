//! Trace profile — what does one run actually *do*, round by round?
//!
//! Runs hierarchical gossip with the [`RunTrace`] recorder attached and
//! renders the derived views: per-phase transition statistics (entry
//! rounds, early bump-ups), the per-round message histogram, and the
//! mean incompleteness-over-time curve. The full trace summary is
//! written as JSON (and the curves as CSV) under `results/`, so the
//! observability layer's output is a first-class artifact next to the
//! figure CSVs.
//!
//! Usage: `trace_profile [--n <size>]... [--bytes]` — each `--n` adds a
//! group size; with no sizes the paper-bracketing pair 64 and 1024 runs.
//! `--bytes` replaces the trace with a byte census of an untraced run:
//! messages and bytes by payload kind and field (see
//! [`gridagg_bench::census`]), checked to sum to the run's
//! `bytes_sent`; it writes no file. `GRIDAGG_SEED` sets the seed.
//!
//! [`RunTrace`]: gridagg_core::trace::RunTrace

use gridagg_aggregate::Average;
use gridagg_bench::census::{self, FIELDS, KINDS};
use gridagg_bench::{base_seed, print_table, sci, write_csv, write_json};
use gridagg_core::config::ExperimentConfig;
use gridagg_core::runner::Protocol;
use gridagg_core::trace::RunTrace;
use gridagg_core::RunReport;

/// The group sizes asked for, and whether `--bytes` was.
fn parse_args() -> (Vec<usize>, bool) {
    let (mut sizes, mut bytes) = (Vec::new(), false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" => {
                let v = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("expected a group size after --n"));
                sizes.push(v);
            }
            "--bytes" => bytes = true,
            other => die(&format!(
                "unknown argument {other:?} (expected --n <size> or --bytes)"
            )),
        }
    }
    if sizes.is_empty() {
        sizes = vec![64, 1024];
    }
    (sizes, bytes)
}

fn die(msg: &str) -> ! {
    eprintln!("trace_profile: {msg}");
    std::process::exit(2);
}

fn config(n: usize) -> ExperimentConfig {
    let cfg = ExperimentConfig::paper_defaults().with_n(n);
    if let Err(e) = cfg.validate() {
        die(&format!("invalid --n {n}: {e}"));
    }
    cfg
}

fn profile(n: usize, seed: u64) -> (RunReport, RunTrace) {
    Protocol::HierGossip.run_traced::<Average>(&config(n), seed)
}

/// Print one run's bytes by payload kind and field, the kinds it never
/// sent left out, with each field's share of the whole.
fn byte_census(n: usize, seed: u64) {
    let (report, census) = census::run::<Average>(&config(n), seed);
    let total = census.total();
    let row = |name: &str, messages: u64, bytes: &[u64]| {
        let sum = bytes.iter().sum::<u64>();
        let cells = bytes.iter().chain([&sum]).map(u64::to_string);
        [name.to_string(), messages.to_string()]
            .into_iter()
            .chain(cells)
            .collect::<Vec<_>>()
    };
    let mut rows: Vec<Vec<String>> = KINDS
        .iter()
        .zip(census.messages.iter().zip(&census.bytes))
        .filter(|(_, (&messages, _))| messages > 0)
        .map(|(kind, (&messages, bytes))| row(kind, messages, bytes))
        .collect();
    let by_field: Vec<u64> = (0..FIELDS.len())
        .map(|f| census.bytes.iter().map(|kind| kind[f]).sum())
        .collect();
    rows.push(row("all", report.net.sent, &by_field));
    let share = by_field.iter().chain([&total]);
    let share = share.map(|&b| format!("{:.1} %", 100.0 * b as f64 / total as f64));
    rows.push(
        ["share".to_string(), String::new()]
            .into_iter()
            .chain(share)
            .collect(),
    );
    let header: Vec<&str> = ["kind", "messages"]
        .into_iter()
        .chain(FIELDS)
        .chain(["bytes"])
        .collect();
    print_table(
        &format!("Bytes by payload kind and field (N={n}, seed {seed})"),
        &header,
        &rows,
    );
    println!(
        "census sum {total} B = bytes_sent {} B over {} messages",
        report.net.bytes_sent, report.net.sent
    );
}

fn phase_table(n: usize, trace: &RunTrace) {
    let timelines = trace.phase_timelines();
    let max_phase = timelines
        .iter()
        .flat_map(|t| t.iter().map(|p| p.phase))
        .max()
        .unwrap_or(0);
    let mut rows = Vec::new();
    for phase in 1..=max_phase {
        let entries: Vec<&gridagg_core::trace::PhasePoint> = timelines
            .iter()
            .flat_map(|t| t.iter().filter(|p| p.phase == phase))
            .collect();
        if entries.is_empty() {
            continue;
        }
        let first = entries.iter().map(|p| p.at).min().unwrap();
        let last = entries.iter().map(|p| p.at).max().unwrap();
        let mean = entries.iter().map(|p| p.at as f64).sum::<f64>() / entries.len() as f64;
        let early = entries.iter().filter(|p| p.early).count();
        rows.push(vec![
            phase.to_string(),
            entries.len().to_string(),
            first.to_string(),
            format!("{mean:.1}"),
            last.to_string(),
            early.to_string(),
        ]);
    }
    print_table(
        &format!("Phase transitions (N={n})"),
        &[
            "phase",
            "members entered",
            "first round",
            "mean round",
            "last round",
            "early bump-ups",
        ],
        &rows,
    );
}

fn round_table(n: usize, trace: &RunTrace) {
    let messages = trace.per_round_messages();
    let curve = trace.incompleteness_over_time();
    let rows: Vec<Vec<String>> = messages
        .iter()
        .enumerate()
        .map(|(round, m)| {
            vec![
                round.to_string(),
                m.sent.to_string(),
                m.delivered.to_string(),
                m.dropped_loss.to_string(),
                sci(curve.get(round).copied().unwrap_or(f64::NAN)),
            ]
        })
        .collect();
    // A 1024-member run has hundreds of rounds; print a readable slice
    // and leave the full series to the CSV.
    let shown: Vec<Vec<String>> = if rows.len() > 24 {
        let mut s: Vec<Vec<String>> = rows.iter().take(12).cloned().collect();
        s.push(vec!["...".into(); 5]);
        s.extend(rows.iter().skip(rows.len() - 12).cloned());
        s
    } else {
        rows.clone()
    };
    print_table(
        &format!("Per-round messages and incompleteness (N={n})"),
        &[
            "round",
            "sent",
            "delivered",
            "dropped loss",
            "mean incompleteness",
        ],
        &shown,
    );
    write_csv(
        &format!("trace_profile_n{n}_rounds.csv"),
        &[
            "round",
            "sent",
            "delivered",
            "dropped_loss",
            "mean_incompleteness",
        ],
        &rows,
    );
}

fn main() {
    let seed = base_seed();
    let (sizes, bytes) = parse_args();
    for n in sizes {
        if bytes {
            byte_census(n, seed);
            continue;
        }
        let (report, trace) = profile(n, seed);
        println!(
            "\n#### N={n}: {} rounds, {} messages sent, {} trace events",
            report.rounds,
            report.net.sent,
            trace.len()
        );
        phase_table(n, &trace);
        round_table(n, &trace);

        let done = trace.terminations().iter().filter(|t| t.is_some()).count();
        println!(
            "terminated members   : {done}/{n}\n\
             final incompleteness : {}",
            sci(report.mean_incompleteness()),
        );
        write_json(&format!("trace_profile_n{n}.json"), &trace);
    }
}
