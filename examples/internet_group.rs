//! Internet-scale process group: protocol shoot-out.
//!
//! The §4–§6 comparison as a single runnable scenario: N processes over
//! a lossy wide-area network, one composable query ("how many members
//! are up, and what is the p50 load?"), every protocol implemented by
//! this repository.
//!
//! Run with: `cargo run --release --example internet_group`

use gridagg::prelude::*;

fn main() {
    let n = 1024;
    let cfg = ExperimentConfig::paper_defaults().with_n(n);
    println!("N={n} processes, ucastl=0.25, pf=0.001 per round\n");

    let runs = 5;
    println!(
        "{:<12} {:>15} {:>10} {:>10} {:>12}",
        "protocol", "incompleteness", "msgs/N", "rounds", "rel. error"
    );
    for p in Protocol::ALL {
        let reports: Vec<_> = (1..=runs)
            .map(|seed| p.run::<Average>(&cfg, seed))
            .collect();
        let s = summarize(&reports);
        println!(
            "{:<12} {:>15.3e} {:>10.1} {:>10.1} {:>12.2e}",
            p.name(),
            s.mean_incompleteness,
            s.mean_messages / n as f64,
            s.mean_rounds,
            s.mean_value_error
        );
    }

    // A second query over the same machinery: median load via the
    // constant-size histogram aggregate.
    let hist = run_hiergossip::<Histogram16>(&cfg, 9);
    println!(
        "\nmedian load (histogram aggregate): ≈{:.1} (completeness {:.4})",
        hist.outcomes
            .iter()
            .find_map(|o| match o {
                MemberOutcome::Completed { value, .. } => Some(*value),
                _ => None,
            })
            .unwrap_or(f64::NAN),
        hist.mean_completeness().unwrap_or(0.0)
    );
    println!(
        "\ntakeaway (paper §§4-6): only the hierarchical gossip protocol is\n\
         simultaneously complete under loss, polylog in time, and O(N·polylog)\n\
         in messages; each baseline sacrifices at least one of the three."
    );
}
