//! The socket runtime against the simulator, at matching shape.
//!
//! The paper's claim (§2, §7) is that the gossip evaluated in
//! simulation is what runs on a real network, with every message
//! constant size. Each test here runs Hierarchical Gossiping on a
//! multiplexed loopback cluster with 10 % injected loss, then
//! `run_hiergossip` at the same N, loss and seed, and asserts:
//!
//! * every member reports, no frame fails to decode, and the send path
//!   loses nothing;
//! * cluster completeness is at least the simulator's less
//!   [`SIM_MARGIN`], and at least [`COMPLETENESS_FLOOR`], so a
//!   simulator regression cannot pull the cluster gate down with it;
//! * a wire frame is at most the simulator's bytes per message plus
//!   the frame header and [`MIX_SLACK_BYTES`]: the simulator charges
//!   each message its encoded length, so no contributor set or other
//!   N-sized field rides in a frame (with N/8-byte bitmaps in every
//!   aggregate the smoke shape averaged 165 B a frame);
//! * a worker answers decoded aggregates from its shared table, so
//!   members that keep the same aggregate keep one copy of it;
//! * datagram coalescing stays at or above [`COALESCE_RATIO_FLOOR`] of
//!   the frames per datagram recorded for the same worker count on a
//!   2-core Xeon @ 2.10 GHz.
//!
//! Workers are pinned, so the coalescing floor does not depend on the
//! host's core count. The smoke shape runs with every `cargo test`; the
//! two 10,000-member shapes are `#[ignore]`d and run in release:
//! `cargo test --release -p gridagg --test sockets_match_simulator --
//! --ignored --nocapture --test-threads 1`. Each run prints one line
//! of its counters.

use std::time::Duration;

use gridagg::core::scope::ScopeIndex;
use gridagg::group::view::View;
use gridagg::hierarchy::{FairHashPlacement, Hierarchy};
use gridagg::prelude::*;
use gridagg::runtime::endpoint::FRAME_HEADER_LEN;
use gridagg::runtime::{Cluster, RuntimeConfig};

/// Grid-box fan-in `K` of the hierarchy every shape runs on.
const K: u8 = 4;
const LOSS: f64 = 0.10;
const SEED: u64 = 2001;

/// Slack for the two runs' different message mixes in the byte gate:
/// the cluster's mean payload per frame read from 0.9 to 1.7 B over the
/// simulator's mean message in release and 0.5–0.8 B over it in a debug
/// build, whose slower ticks resend and batch more aggregates. It read
/// 0.3 B under to 0.6 B over in release while a reply carried the whole
/// row; a reply that carries only what its pusher lacks is shorter than
/// the mean message, so the mixes differ by more bytes.
const MIX_SLACK_BYTES: f64 = 3.0;

/// Margin for the cluster-vs-simulator completeness gate.
const SIM_MARGIN: f64 = 0.02;

/// Absolute completeness floor: every shape reached 1.0 on the 2-core
/// Xeon, less a noise margin for wall-clock scheduling.
const COMPLETENESS_FLOOR: f64 = 0.95;

/// Frames per datagram may not fall below this fraction of the
/// recorded figure for the same worker count.
const COALESCE_RATIO_FLOOR: f64 = 0.7;

/// Runs `n` members over `sockets` sockets and `workers` workers and
/// holds the run to the simulator; `recorded_frames_per_datagram` is
/// what this shape read on the 2-core Xeon.
fn check(
    n: usize,
    sockets: usize,
    workers: usize,
    round_ms: u64,
    recorded_frames_per_datagram: f64,
) {
    let h = Hierarchy::for_group(K, n).expect("hierarchy shape");
    let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, SEED));
    let votes: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let cfg = RuntimeConfig {
        sockets,
        workers,
        round_interval: Duration::from_millis(round_ms),
        seed: SEED,
        ..Default::default()
    }
    .with_uniform_loss(LOSS);
    let run = Cluster::<Average>::launch(votes, index, HierGossipConfig::default(), cfg)
        .expect("cluster launches")
        .join();
    let r = &run.report;
    let bytes_per_frame = r.stats.bytes_sent as f64 / r.stats.frames_sent.max(1) as f64;

    // Same protocol, N, loss and seed; no process failures, as the
    // loopback cluster has none.
    let sim_cfg = ExperimentConfig::paper_defaults()
        .with_n(n)
        .with_ucastl(LOSS)
        .with_pf(0.0);
    sim_cfg.validate().expect("simulator config is valid");
    let sim = run_hiergossip::<Average>(&sim_cfg, SEED);
    let sim_completeness = sim.mean_completeness().unwrap_or(0.0);
    let sim_bytes_per_msg = sim.net.bytes_sent as f64 / sim.net.sent.max(1) as f64;

    println!(
        "N={n} sockets={} workers={}: completeness {:.4} (sim {sim_completeness:.4}), \
         {bytes_per_frame:.1} B/frame (sim {sim_bytes_per_msg:.1} B/msg), \
         {:.2} frames/datagram, {} retries, {} wakeups, {} mid-burst drains, \
         {} aggregates decoded, {} shared, {} send errors",
        r.sockets,
        r.workers,
        r.mean_completeness,
        r.frames_per_datagram(),
        r.stats.retries,
        r.stats.wakeups,
        r.stats.backpressure_drains,
        r.stats.aggregates_decoded,
        r.stats.aggregates_shared,
        r.stats.send_errors,
    );

    assert_eq!(r.workers, workers, "worker count is pinned");
    assert_eq!(r.reported, n, "every member reports an outcome");
    assert_eq!(r.stats.decode_errors, 0, "every frame decodes");
    assert_eq!(r.stats.send_errors, 0, "every frame is sent");
    assert!(
        r.stats.aggregates_shared > 0,
        "members share the aggregates they keep"
    );
    assert!(
        r.mean_completeness + SIM_MARGIN >= sim_completeness,
        "cluster completeness {:.4} below the simulator's {sim_completeness:.4} \
         (margin {SIM_MARGIN})",
        r.mean_completeness
    );
    assert!(
        r.mean_completeness >= COMPLETENESS_FLOOR,
        "cluster completeness {:.4} below {COMPLETENESS_FLOOR}",
        r.mean_completeness
    );
    assert!(
        bytes_per_frame <= sim_bytes_per_msg + FRAME_HEADER_LEN as f64 + MIX_SLACK_BYTES,
        "{bytes_per_frame:.1} B per wire frame against {sim_bytes_per_msg:.1} B per \
         simulated message, a {FRAME_HEADER_LEN}-B header and {MIX_SLACK_BYTES} B of \
         slack: frames must stay constant in N"
    );
    let floor = COALESCE_RATIO_FLOOR * recorded_frames_per_datagram;
    assert!(
        r.frames_per_datagram() >= floor,
        "{:.2} frames per datagram, floor {floor:.2} ({COALESCE_RATIO_FLOOR} x {:.2})",
        r.frames_per_datagram(),
        recorded_frames_per_datagram
    );
}

#[test]
fn smoke_512_members_over_16_sockets() {
    check(512, 16, 2, 5, 20.19);
}

// The 10k round interval is sized so one worker core can tick all
// 10,000 members (plus deliveries) inside a round: a too-short interval
// makes rounds fire back to back, messages straddle round boundaries,
// and members finalize before their aggregates fill.

#[test]
#[ignore = "10,000 members: run in release with --ignored"]
fn full_10k_members_over_64_sockets_and_2_workers() {
    check(10_000, 64, 2, 100, 29.81);
}

/// Each of 4 workers owns 16 of the 64 sockets: the sharded event
/// loop's cross-worker handoff paths at scale.
#[test]
#[ignore = "10,000 members: run in release with --ignored"]
fn full_10k_members_over_64_sockets_and_4_workers() {
    check(10_000, 64, 4, 100, 25.23);
}
