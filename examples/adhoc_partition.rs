//! Smart dust under a soft partition (§7, Figure 9).
//!
//! "A few hundred thousand smart dust computers might be randomly
//! dropped on an inhospitable terrain" — and terrain means correlated
//! failures: the group splits into two halves with heavy cross-half
//! loss. The paper's Figure 9 shows completeness degrades *gracefully*
//! rather than collapsing. This example sweeps the partition severity
//! and also shows the failure mode of the centralized baseline on the
//! same network.
//!
//! Run with: `cargo run --release --example adhoc_partition`

use gridagg::prelude::*;

fn main() {
    println!("200 dust motes, background loss 25%, partition at the ravine\n");
    println!(
        "{:>8} {:>18} {:>18}",
        "partl", "hiergossip inc.", "centralized inc."
    );
    for partl in [0.3, 0.5, 0.7, 0.9] {
        let cfg = ExperimentConfig::paper_defaults().with_partl(partl);
        let runs = 10;
        let seeds = 100..100 + runs;
        let hier: Vec<_> = seeds
            .clone()
            .map(|seed| run_hiergossip::<Average>(&cfg, seed))
            .collect();
        let central: Vec<_> = seeds
            .map(|seed| Protocol::Centralized.run::<Average>(&cfg, seed))
            .collect();
        let (hier, central) = (summarize(&hier), summarize(&central));
        println!(
            "{:>8} {:>18.4e} {:>18.4e}",
            partl, hier.mean_incompleteness, central.mean_incompleteness
        );
    }
    println!(
        "\nhierarchical gossip degrades gracefully; the centralized leader\n\
         loses roughly the whole far half of the group (its gather and\n\
         dissemination both cross the partition once, with no redundancy)."
    );
}
