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
//! Usage: `trace_profile [--n <size>]...` — each `--n` adds a group
//! size; with no arguments the paper-bracketing pair 64 and 1024 runs.
//!
//! [`RunTrace`]: gridagg_core::trace::RunTrace

use gridagg_aggregate::Average;
use gridagg_bench::{base_seed, print_table, sci, write_csv, write_json};
use gridagg_core::config::ExperimentConfig;
use gridagg_core::runner::Protocol;
use gridagg_core::trace::RunTrace;
use gridagg_core::RunReport;

fn parse_sizes() -> Vec<usize> {
    let mut sizes = Vec::new();
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
            other => die(&format!("unknown argument {other:?} (expected --n <size>)")),
        }
    }
    if sizes.is_empty() {
        sizes = vec![64, 1024];
    }
    sizes
}

fn die(msg: &str) -> ! {
    eprintln!("trace_profile: {msg}");
    std::process::exit(2);
}

fn profile(n: usize, seed: u64) -> (RunReport, RunTrace) {
    let cfg = ExperimentConfig::paper_defaults().with_n(n);
    if let Err(e) = cfg.validate() {
        die(&format!("invalid --n {n}: {e}"));
    }
    Protocol::HierGossip.run_traced::<Average>(&cfg, seed)
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
                m.dropped_bandwidth.to_string(),
                sci(curve.get(round).copied().unwrap_or(f64::NAN)),
            ]
        })
        .collect();
    // A 1024-member run has hundreds of rounds; print a readable slice
    // and leave the full series to the CSV.
    let shown: Vec<Vec<String>> = if rows.len() > 24 {
        let mut s: Vec<Vec<String>> = rows.iter().take(12).cloned().collect();
        s.push(vec!["...".into(); 6]);
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
            "dropped bw",
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
            "dropped_bandwidth",
            "mean_incompleteness",
        ],
        &rows,
    );
}

fn main() {
    let seed = base_seed();
    for n in parse_sizes() {
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
