//! Wire-path robustness under real-channel faults.
//!
//! Three properties the multiplexed runtime must hold on a live socket
//! pool: convergence survives injected loss *and* reorder together,
//! hostile datagrams (truncated, malformed, junk-payload, forged
//! contributor counts, forged addresses, forged aggregate batches,
//! votes of members outside the group) are
//! rejected through the `DecodeError` path or dropped as irrelevant (an
//! address deeper than the receiver's box, a row of another base) —
//! counted, never a panic and never a wedge — and frames stay
//! constant-size: no contributor set rides in them.

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
use gridagg_runtime::{run_cluster, Cluster, RuntimeConfig};

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
    let run = run_cluster::<Average>(votes, index(n), HierGossipConfig::default(), cfg)
        .expect("cluster runs");
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
fn frames_carry_no_contributor_sets() {
    // the `cluster_10k` smoke shape; with N/8-byte bitmaps in every
    // aggregate this run averaged 165 B a frame
    let n = 512;
    let votes: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let cfg = RuntimeConfig {
        sockets: 16,
        seed: 2001,
        ..Default::default()
    }
    .with_uniform_loss(0.10);
    let run = run_cluster::<Average>(votes, index(n), HierGossipConfig::default(), cfg)
        .expect("cluster runs");
    let r = &run.report;
    assert_eq!(r.reported, n);
    let per_frame = r.stats.bytes_sent as f64 / r.stats.frames_sent as f64;
    assert!(
        per_frame < 110.0,
        "{per_frame:.1} B per frame ({} B / {} frames)",
        r.stats.bytes_sent,
        r.stats.frames_sent
    );
}

/// Well-framed `Agg` payloads whose subtree address no `Addr` can
/// hold: 16 digits in base 255 (past the `u32` index), and a digit that
/// is not below its base.
fn forged_addresses() -> [Vec<u8>; 2] {
    let mut valid = Vec::new();
    let subtree = Addr::from_digits(4, &[3, 3]).expect("address");
    let agg = Arc::new(Tagged::<Average>::from_vote(1, 1.0, 16));
    codec::encode(&Payload::Agg { subtree, agg }, &mut valid);
    assert_eq!(valid[1..5], [4, 2, 3, 3], "tag, then base, len, digits");
    let mut too_wide = vec![valid[0], 255, 16];
    too_wide.extend([254; 16]);
    too_wide.extend(&valid[5..]);
    let mut bad_digit = valid;
    bad_digit[4] = 4;
    [too_wide, bad_digit]
}

/// `AggBatch` frames no honest member writes, as `(decodes, bytes)`:
/// entries under two parents, a repeated digit, a digit that is not
/// below its base and an empty batch are malformed; a batch of another
/// base decodes (to a row that is not the receiver's `K` wide, under a
/// parent of another base) and the member must ignore it.
fn forged_batches() -> [(bool, Vec<u8>); 5] {
    let agg = Arc::new(Tagged::<Average>::from_vote(1, 1e9, 16));
    let entry = |base: u8, digits: &[u8]| {
        let mut bytes = Vec::new();
        let subtree = Addr::from_digits(base, digits).expect("address");
        let agg = agg.clone();
        codec::encode(&Payload::Agg { subtree, agg }, &mut bytes);
        bytes.split_off(1) // the tag goes, address and aggregate stay
    };
    let batch = |entries: &[Vec<u8>]| {
        let row = (0..4).map(|d| (d == 0).then(|| agg.clone())).collect();
        let mut bytes = Vec::new();
        let one = Payload::agg_batch(Addr::root(4).expect("root"), row, false);
        codec::encode(&one, &mut bytes);
        assert_eq!(bytes[1..4], [0, 0, 1], "tag, then reply flag and u16 count");
        assert_eq!(
            bytes[4..],
            entry(4, &[0]),
            "then the entries, as `Agg` writes them"
        );
        bytes.truncate(3);
        bytes.push(entries.len() as u8);
        bytes.extend(entries.concat());
        bytes
    };
    let mut bad_digit = entry(4, &[3]);
    bad_digit[2] = 4;
    [
        (false, batch(&[entry(4, &[0]), entry(4, &[1, 1])])),
        (false, batch(&[entry(4, &[2]), entry(4, &[2])])),
        (false, batch(&[entry(4, &[0]), bad_digit])),
        (false, batch(&[])),
        (true, batch(&[entry(2, &[0]), entry(2, &[1])])),
    ]
}

#[test]
fn forged_batches_decode_to_malformed_or_to_a_row_of_another_base() {
    for (decodes, bytes) in forged_batches() {
        match codec::decode::<Average, _>(&mut bytes.as_slice()) {
            Ok(Payload::AggBatch { parent, slots, .. }) => {
                assert!(decodes, "{bytes:?}");
                assert_eq!((parent.base(), slots.len()), (2, 2));
            }
            other => {
                let variant = "agg-batch";
                assert_eq!(other, Err(codec::DecodeError::Malformed { variant }));
                assert!(!decodes, "{bytes:?}");
            }
        }
    }
}

#[test]
fn forged_addresses_decode_to_malformed() {
    for bytes in forged_addresses() {
        assert_eq!(
            codec::decode::<Average, _>(&mut bytes.as_slice()),
            Err(codec::DecodeError::Malformed { variant: "agg" }),
            "{bytes:?}"
        );
    }
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

    // (d) well-formed `Agg` frames claiming `u64::MAX` contributors,
    // one per child of the root, so every member finds one relevant:
    // "whichever covers more votes" would let it displace the real
    // subtree aggregate.
    let agg = Tagged::from_parts(Some(Average::from_vote(1e9)), VoteSet::counted(usize::MAX))
        .expect("value with count");
    let agg = Arc::new(agg);
    let forged: Vec<Vec<u8>> = (0..4u8)
        .map(|d| {
            let subtree = Addr::from_digits(4, &[d]).expect("root child");
            let agg = agg.clone();
            let mut bytes = Vec::new();
            codec::encode(&Payload::Agg { subtree, agg }, &mut bytes);
            bytes
        })
        .collect();

    // (f) a decodable `Agg` whose subtree is the receiver's own grid
    // box plus one digit: its parent contains the box, yet it is deeper
    // than anything the member stores — dropped as irrelevant.
    let too_long = |member: u32| {
        let subtree = index.box_of(MemberId(member)).child(0).expect("child");
        let agg = Arc::new(Tagged::<Average>::from_vote(1, 1.0, n));
        let mut bytes = Vec::new();
        codec::encode(&Payload::Agg { subtree, agg }, &mut bytes);
        bytes
    };

    // (h) `Vote` and `VoteBatch` frames naming a member outside the
    // group: the codec takes any `u32` as a vote's owner, and a member
    // that looks an owner up indexes past its tables.
    let forged_votes: Vec<Vec<u8>> = [u32::MAX, n as u32]
        .into_iter()
        .flat_map(|owner| {
            let (member, value) = (MemberId(owner), 1e9);
            let votes = [(member, value)].into();
            [
                Payload::<Average>::Vote { member, value },
                Payload::VoteBatch {
                    votes,
                    reply: false,
                },
            ]
        })
        .map(|payload| {
            let mut bytes = Vec::new();
            codec::encode(&payload, &mut bytes);
            bytes
        })
        .collect();

    // An outsider throws garbage at every pool socket while the
    // cluster is live: truncated headers, out-of-range member ids,
    // well-framed junk payloads the codec must reject, forged
    // addresses, too-long addresses, forged contributor counts,
    // (g) forged batches and (h) forged votes, each carrying 1e9.
    let attacker = UdpSocket::bind(("127.0.0.1", 0)).expect("attacker socket");
    let batches = forged_batches();
    let (mut garbage, mut forged_sent) = (0u64, 0u64);
    for burst in 0..5 {
        for member in 0..n as u32 {
            let mut framed = Vec::new();
            for bytes in forged.iter().chain(&forged_votes) {
                push_frame(&mut framed, member, 0, bytes);
                forged_sent += 1;
            }
            push_frame(&mut framed, member, 0, &too_long(member));
            for (decodes, bytes) in &batches {
                push_frame(&mut framed, member, 0, bytes);
                forged_sent += u64::from(!decodes);
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
            // (e) valid demux header, an address no `Addr` can hold
            for bytes in forged_addresses() {
                let mut framed = Vec::new();
                push_frame(&mut framed, burst % n as u32, 0, &bytes);
                let _ = attacker.send_to(&framed, addr);
            }
            garbage += 5;
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
