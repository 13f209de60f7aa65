//! Wire-path robustness under real-channel faults.
//!
//! Two properties the multiplexed runtime must hold on a live socket
//! pool: convergence survives injected loss *and* reorder together, and
//! hostile datagrams (truncated, out-of-group headers, junk payloads,
//! forged contributor counts, votes of members outside the group, NaN
//! votes) are rejected through the `DecodeError` path — counted, never
//! a panic and never a wedge. What a payload may hold once decoded is
//! `tests/hostile_frames.rs`' generator, which needs no sockets; that
//! frames stay constant-size is `tests/sockets_match_simulator.rs`.

use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Duration;

use gridagg_aggregate::{Aggregate, Average, Tagged, VoteSet};
use gridagg_core::hiergossip::HierGossipConfig;
use gridagg_core::message::codec;
use gridagg_core::scope::ScopeIndex;
use gridagg_core::Payload;
use gridagg_group::view::View;
use gridagg_group::MemberId;
use gridagg_hierarchy::{Addr, FairHashPlacement, Hierarchy};
use gridagg_runtime::endpoint::push_frame;
use gridagg_runtime::{Cluster, RuntimeConfig};

fn index(n: usize) -> Arc<ScopeIndex> {
    let h = Hierarchy::for_group(4, n).expect("shape");
    ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, 11))
}

#[test]
fn converges_under_loss_and_reorder_together() {
    let n = 32;
    let votes: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let cfg = RuntimeConfig {
        sockets: 8,
        workers: 2,
        reorder: 0.25,
        seed: 5,
        ..Default::default()
    }
    .with_uniform_loss(0.15);
    let run = Cluster::<Average>::launch(votes, index(n), HierGossipConfig::default(), cfg)
        .expect("cluster launches")
        .join();
    let r = &run.report;
    assert!(r.stats.injected_drops > 0, "loss model never fired");
    assert!(r.stats.reordered > 0, "reorder pocket never fired");
    assert_eq!(r.reported, n, "every member must still report");
    assert!(
        r.mean_completeness > 0.7,
        "faulty-channel run collapsed: {}",
        r.mean_completeness
    );
}

#[test]
fn hostile_datagrams_rejected_via_decode_error_not_panic() {
    let n = 16;
    let votes: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let cfg = RuntimeConfig {
        sockets: 4,
        workers: 2,
        seed: 9,
        ..Default::default()
    };
    let index = index(n);
    let cluster =
        Cluster::<Average>::launch(votes, index.clone(), HierGossipConfig::default(), cfg)
            .expect("launch");
    let targets: Vec<_> = cluster.addrs().to_vec();

    let encode = |payload: Payload<Average>| {
        let mut bytes = Vec::new();
        codec::encode(&payload, &mut bytes);
        bytes
    };

    // (d) well-formed `Agg` frames claiming `usize::MAX` contributors
    // (written as `u32::MAX`, the count their value is of), one per
    // child of the root, so every member finds one relevant: "whichever
    // covers more votes" would let it displace the real subtree
    // aggregate.
    let value = Average::from_parts(1e9, u64::from(u32::MAX));
    let agg =
        Tagged::from_parts(Some(value), VoteSet::counted(usize::MAX)).expect("value with count");
    let agg = Arc::new(agg);
    let forged: Vec<Vec<u8>> = (0..4u8)
        .map(|d| {
            let subtree = Addr::from_digits(4, &[d]).expect("root child");
            let agg = agg.clone();
            encode(Payload::Agg { subtree, agg })
        })
        .collect();

    // (e) `Vote` and `VoteBatch` frames naming a member outside the
    // group: a member that looks an owner up indexes past its tables.
    let forged_votes: Vec<Vec<u8>> = [u32::MAX, n as u32]
        .into_iter()
        .flat_map(|owner| {
            let (member, value) = (MemberId(owner), 1e9);
            let votes = [(member, value)].into();
            [
                Payload::<Average>::Vote { member, value },
                Payload::VoteBatch {
                    votes,
                    skip: 0,
                    reply: false,
                },
            ]
        })
        .map(encode)
        .collect();

    // (f) a NaN vote of the receiver's box-mate: a member of the group
    // whose vote the receiver would fold into its box aggregate.
    let nan_vote = |member: u32| {
        let mates = index.members_in(&index.box_of(MemberId(member)));
        let mate = mates.iter().find(|m| m.0 != member).copied();
        let member = mate.unwrap_or(MemberId(member));
        encode(Payload::Vote {
            member,
            value: f64::NAN,
        })
    };

    // An outsider throws garbage at every pool socket while the
    // cluster is live: truncated headers, out-of-range member ids,
    // well-framed junk payloads the codec must reject, (d) forged
    // contributor counts and (e) forged votes, each carrying 1e9, and
    // (f) NaN votes. Forged addresses and batches, and every relation
    // of an address to its receiver, are `tests/hostile_frames.rs`'
    // generated frames.
    let attacker = UdpSocket::bind(("127.0.0.1", 0)).expect("attacker socket");
    let (mut garbage, mut forged_sent) = (0u64, 0u64);
    for burst in 0..5 {
        for member in 0..n as u32 {
            let mut framed = Vec::new();
            for bytes in forged
                .iter()
                .chain(&forged_votes)
                .chain([&nan_vote(member)])
            {
                push_frame(&mut framed, member, 0, bytes);
                forged_sent += 1;
            }
            let _ = attacker.send_to(&framed, targets[member as usize % targets.len()]);
        }
        for addr in &targets {
            // (a) shorter than one frame header
            let _ = attacker.send_to(&[0xAA; 5], addr);
            // (b) header whose dst/src are far outside the group
            let _ = attacker.send_to(&[0xFF; 23], addr);
            // (c) valid demux header, junk payload for the codec
            let mut framed = Vec::new();
            push_frame(&mut framed, burst % n as u32, 0, &[0xEE; 9]);
            let _ = attacker.send_to(&framed, addr);
            garbage += 3;
        }
        std::thread::sleep(Duration::from_millis(3));
    }

    let run = cluster.join();
    let r = &run.report;
    assert!(
        r.stats.decode_errors > 0,
        "hostile datagrams must surface as counted DecodeErrors"
    );
    assert!(
        r.stats.decode_errors > garbage && forged_sent > garbage,
        "forged counts must be counted too: {} errors for {garbage} garbage datagrams \
         and {forged_sent} forged frames",
        r.stats.decode_errors
    );
    assert_eq!(r.reported, n, "garbage must not wedge the cluster");
    for o in &run.outcomes {
        assert!(
            o.completeness(n) <= 1.0,
            "member {:?} reports completeness {}",
            o.member,
            o.completeness(n)
        );
        // every forged value was 1e9; the votes are 0..16
        let value = o.estimate.as_ref().and_then(|e| e.aggregate());
        let value = value.expect("a reported estimate").summary();
        assert!(
            (0.0..n as f64).contains(&value),
            "member {:?} adopted a forged value: {value}",
            o.member
        );
    }
    assert!(
        r.mean_completeness > 0.9,
        "garbage disturbed convergence: {}",
        r.mean_completeness
    );
}
