//! Real network, real sockets: the same protocol state machine that the
//! simulator evaluates, running as a *multiplexed* cluster — 64 members
//! sharing 8 UDP sockets and a couple of worker threads on localhost,
//! with 20% injected message loss at the socket boundary.
//!
//! This is the deployment shape of the paper's system: each member has
//! only the well-known hash and an approximate `N` — here many members
//! share each endpoint, demultiplexed by a per-frame member-id header.
//!
//! Run with: `cargo run --release --example real_network`

use gridagg::aggregate::Aggregate;
use gridagg::core::scope::ScopeIndex;
use gridagg::prelude::*;
use gridagg_runtime::{Cluster, RuntimeConfig, RuntimeError};

fn main() -> Result<(), RuntimeError> {
    let n = 64;
    let hierarchy = Hierarchy::for_group(4, n).unwrap();
    let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(hierarchy, 2001));
    // sensor readings around 70°
    let votes: Vec<f64> = (0..n)
        .map(|i| 70.0 + ((i * 37) % 11) as f64 - 5.0)
        .collect();
    let truth = votes.iter().sum::<f64>() / n as f64;

    // The multiplexing budget is enforced, not discovered by hanging:
    // ask for more members than `sockets x members_per_socket` allows
    // and the launch fails loudly with the arithmetic in the message.
    let starved = RuntimeConfig {
        sockets: 2,
        members_per_socket: 16,
        ..Default::default()
    };
    match Cluster::<Average>::launch(
        votes.clone(),
        index.clone(),
        HierGossipConfig::default(),
        starved,
    ) {
        Err(e @ RuntimeError::BudgetExceeded { .. }) => {
            println!("over-budget launch refused as expected:\n  {e}\n");
        }
        Err(e) => return Err(e),
        Ok(_) => unreachable!("64 members cannot fit a 32-member budget"),
    }

    let cfg = RuntimeConfig {
        sockets: 8,
        ..Default::default()
    }
    .with_uniform_loss(0.20);
    println!(
        "{n} members multiplexed over {} localhost sockets, 20% injected loss, 5ms rounds\n",
        cfg.sockets
    );
    let run = Cluster::<Average>::launch(votes, index, HierGossipConfig::default(), cfg)?.join();
    let outcomes = &run.outcomes;
    let r = &run.report;

    let finished = outcomes.iter().filter(|o| o.estimate.is_some()).count();
    let sample = outcomes
        .iter()
        .find_map(|o| o.estimate.as_ref())
        .map_or(f64::NAN, |e| {
            e.aggregate().map_or(f64::NAN, Aggregate::summary)
        });

    println!("finished members    : {finished}/{n}");
    println!("mean completeness   : {:.4}", r.mean_completeness);
    println!("true average        : {truth:.4}");
    println!("sample estimate     : {sample:.4}");
    println!("slowest member      : {} rounds", r.max_rounds_seen);
    println!("wall clock          : {:?}", r.wall);
    println!(
        "wire traffic        : {} frames in {} datagrams ({:.2} frames/datagram, {} batched)",
        r.stats.frames_sent,
        r.stats.datagrams_sent,
        r.frames_per_datagram(),
        r.stats.batched_sends
    );
    println!(
        "fault injection     : {} frames dropped at the socket boundary",
        r.stats.injected_drops
    );
    println!(
        "\nthe exact state machine the simulator benchmarks — `HierGossip` —\n\
         just aggregated a real group over a shared socket pool."
    );
    Ok(())
}
