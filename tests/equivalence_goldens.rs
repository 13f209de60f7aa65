//! Golden-run equivalence: the optimized hot path must be
//! *byte-identical* in behavior to the pre-optimization tree.
//!
//! The numbers below were captured from the seed implementation (before
//! buffer pooling, `Arc`-shared payloads, and cached gossip bodies were
//! introduced) at three group sizes. Every optimization since must
//! preserve the exact RNG draw sequence and message flow, so any drift
//! in rounds, message counts, byte counts, or the *bit patterns* of the
//! derived metrics is a behavior change, not noise — this suite is the
//! proof the optimizations are pure.
//!
//! Floats are compared as `u64` bit patterns (`f64::to_bits`), so even
//! a last-ulp difference from a reordered fold fails loudly.

use gridagg::core::trace::TraceEvent;
use gridagg::core::RunReport;
use gridagg::prelude::*;

/// One frozen run outcome from the seed tree.
struct Golden {
    rounds: Round,
    sent: u64,
    delivered: u64,
    bytes_sent: u64,
    dropped_loss: u64,
    completed: usize,
    mean_completeness_bits: u64,
    mean_value_bits: u64,
}

fn check(label: &str, n: usize, seed: u64, report: &RunReport, golden: &Golden) {
    assert_eq!(
        report.rounds, golden.rounds,
        "{label} n={n} s={seed}: rounds"
    );
    assert_eq!(report.net.sent, golden.sent, "{label} n={n} s={seed}: sent");
    assert_eq!(
        report.net.delivered, golden.delivered,
        "{label} n={n} s={seed}: delivered"
    );
    assert_eq!(
        report.net.bytes_sent, golden.bytes_sent,
        "{label} n={n} s={seed}: bytes"
    );
    assert_eq!(
        report.net.dropped_loss, golden.dropped_loss,
        "{label} n={n} s={seed}: dropped"
    );
    assert_eq!(
        report.completed(),
        golden.completed,
        "{label} n={n} s={seed}: completed"
    );
    assert_eq!(
        report.mean_completeness().unwrap_or(-1.0).to_bits(),
        golden.mean_completeness_bits,
        "{label} n={n} s={seed}: mean completeness bits"
    );
    assert_eq!(
        report.mean_value_error().unwrap_or(-1.0).to_bits(),
        golden.mean_value_bits,
        "{label} n={n} s={seed}: mean value-error bits"
    );
}

fn cfg(n: usize) -> ExperimentConfig {
    ExperimentConfig::paper_defaults().with_n(n)
}

#[test]
fn hiergossip_matches_seed_behavior() {
    for (n, seed, golden) in [
        (
            64,
            3,
            Golden {
                rounds: 16,
                sent: 2105,
                delivered: 1568,
                bytes_sent: 55026,
                dropped_loss: 537,
                completed: 64,
                mean_completeness_bits: 0x3ff0000000000000,
                mean_value_bits: 0x3cb4c076cde21a9c,
            },
        ),
        (
            256,
            7,
            Golden {
                rounds: 22,
                sent: 11102,
                delivered: 8348,
                bytes_sent: 305922,
                dropped_loss: 2754,
                completed: 251,
                mean_completeness_bits: 0x3fefa00000000000,
                mean_value_bits: 0x3f6a16edb50d6c6b,
            },
        ),
        (
            1024,
            11,
            Golden {
                rounds: 30,
                sent: 65664,
                delivered: 49117,
                bytes_sent: 1933869,
                dropped_loss: 16547,
                completed: 997,
                mean_completeness_bits: 0x3fef122a9fb60cd7,
                mean_value_bits: 0x3f62791a9741e598,
            },
        ),
    ] {
        let report = run_hiergossip::<Average>(&cfg(n), seed);
        check("hier", n, seed, &report, &golden);
    }
}

#[test]
fn event_driven_engine_trace_is_byte_identical() {
    // The struct-of-arrays engine rewrite (event-driven round loop,
    // bitset vote sets, ring-buffered message queue) must not move a
    // single event: these are FNV-1a fingerprints over the debug
    // rendering of the *complete* trace stream, frozen from the dense
    // per-member scan. Any reordering, added, or dropped event — even
    // two swapped deliveries inside one round — changes the hash.
    //
    // Beside each, the same hash with every `Send`'s byte count zeroed:
    // the message flow alone. A change to what a payload costs on the
    // wire moves the first fingerprint and must leave the second.
    for (n, seed, events, fingerprint, flow) in [
        (
            64usize,
            3u64,
            5345usize,
            0x57f9_5a6b_c832_a228u64,
            0x45a1_2424_b0aa_0842u64,
        ),
        (256, 7, 27990, 0xa843_768c_96a0_b69c, 0x1366_a8f7_89db_1abb),
        (
            1024,
            11,
            159848,
            0xe777_b0a9_dec8_4029,
            0x64c7_5281_fde1_b198,
        ),
    ] {
        let (_, trace) = Protocol::HierGossip.run_traced::<Average>(&cfg(n), seed);
        assert_eq!(trace.len(), events, "n={n}: trace event count");
        let hash = fnv(trace.events.iter().copied());
        assert_eq!(hash, fingerprint, "n={n}: trace fingerprint {hash:#x}");
        let hash = fnv(trace.events.iter().map(|&event| match event {
            TraceEvent::Send {
                from, to, round, ..
            } => TraceEvent::Send {
                from,
                to,
                round,
                bytes: 0,
            },
            other => other,
        }));
        assert_eq!(hash, flow, "n={n}: message-flow fingerprint {hash:#x}");
    }
}

#[test]
fn staggered_start_trace_is_byte_identical() {
    // The §2 multicast initiation: members start over 8 rounds, gossip
    // wakes the late ones earlier, and 2 % crash per round, so starts
    // land at official rounds, on deliveries and on dead members. Pins
    // the engine's start schedule to its exact event stream.
    let mut c = cfg(256);
    c.start_spread = Some(8);
    c.pf = 0.02;
    let (_, trace) = Protocol::HierGossip.run_traced::<Average>(&c, 13);
    let late = trace
        .events
        .iter()
        .filter(|event| matches!(event, TraceEvent::Start { round, .. } if *round > 0));
    assert!(late.count() > 100, "most members start late");
    assert_eq!(trace.len(), 23277, "trace event count");
    let hash = fnv(trace.events.iter().copied());
    assert_eq!(hash, 0xda5b_d3ac_6880_2d13, "trace fingerprint {hash:#x}");
}

/// FNV-1a over the debug rendering of `events`.
fn fnv(events: impl Iterator<Item = TraceEvent>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for event in events {
        for byte in format!("{event:?}").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

#[test]
fn counted_vote_sets_track_exact_cardinality_under_dedup_merges() {
    use gridagg::aggregate::VoteSet;

    // Mirror the merge discipline of the gossip protocols: every member
    // contributes exactly once (the protocols dedup on first reception
    // before touching the set), and partial aggregates from disjoint
    // subgroups are unioned upward. Under that discipline the counted
    // representation — which the engine switches to above
    // `EXACT_TRACK_MAX` — must report the same cardinality as the exact
    // bitset at every step of the merge tree.
    let scale = 1 << 20; // forces the counted representation
    for group_size in [256usize, 1024] {
        let mut exact_root = VoteSet::new(group_size);
        let mut counted_root = VoteSet::for_scale(scale);
        for chunk_base in (0..group_size).step_by(64) {
            let mut exact_part = VoteSet::new(group_size);
            let mut counted_part = VoteSet::for_scale(scale);
            for member in chunk_base..(chunk_base + 64).min(group_size) {
                exact_part.union_with(&VoteSet::singleton(member, group_size));
                counted_part.union_with(&VoteSet::singleton_for_scale(member, scale));
                assert_eq!(exact_part.len(), counted_part.len());
            }
            assert!(exact_root.is_disjoint(&exact_part));
            assert!(counted_root.is_disjoint(&counted_part));
            exact_root.union_with(&exact_part);
            counted_root.union_with(&counted_part);
            assert_eq!(exact_root.len(), counted_root.len());
        }
        assert_eq!(exact_root.len(), group_size);
        assert_eq!(counted_root.len(), group_size);
        assert!(exact_root.is_exact());
        assert!(!counted_root.is_exact());
    }
}

#[test]
fn flatgossip_matches_seed_behavior() {
    for (n, seed, golden) in [
        (
            64,
            3,
            Golden {
                rounds: 20,
                sent: 2294,
                delivered: 1710,
                bytes_sent: 22940,
                dropped_loss: 584,
                completed: 62,
                mean_completeness_bits: 0x3fd5210842108421,
                mean_value_bits: 0x3fb4a30fd594062f,
            },
        ),
        (
            1024,
            11,
            Golden {
                rounds: 52,
                sent: 99924,
                delivered: 74888,
                bytes_sent: 1085326,
                dropped_loss: 25036,
                completed: 978,
                mean_completeness_bits: 0x3fb1a871146acc2c,
                mean_value_bits: 0x3fab131c23a5bd29,
            },
        ),
    ] {
        let report = Protocol::FlatGossip.run::<Average>(&cfg(n), seed);
        check("flat", n, seed, &report, &golden);
    }
}

#[test]
fn flood_matches_seed_behavior() {
    for (n, seed, golden) in [
        (
            64,
            3,
            Golden {
                rounds: 12,
                sent: 4032,
                delivered: 3024,
                bytes_sent: 40320,
                dropped_loss: 1008,
                completed: 64,
                mean_completeness_bits: 0x3fe8200000000000,
                mean_value_bits: 0x3fa07f1a5dc6dc4b,
            },
        ),
        (
            256,
            7,
            Golden {
                rounds: 36,
                sent: 63935,
                delivered: 47835,
                bytes_sent: 671226,
                dropped_loss: 16100,
                completed: 249,
                mean_completeness_bits: 0x3fe77cea68de1282,
                mean_value_bits: 0x3f90bcd02eb735ed,
            },
        ),
    ] {
        let report = Protocol::Flood.run::<Average>(&cfg(n), seed);
        check("flood", n, seed, &report, &golden);
    }
}

#[test]
fn centralized_matches_seed_behavior() {
    for (n, seed, golden) in [
        (
            64,
            3,
            Golden {
                rounds: 16,
                sent: 189,
                delivered: 148,
                bytes_sent: 1890,
                dropped_loss: 41,
                completed: 63,
                mean_completeness_bits: 0x3fe930c30c30c30c,
                mean_value_bits: 0x3fb737b0b33d4144,
            },
        ),
        (
            1024,
            11,
            Golden {
                rounds: 106,
                sent: 3007,
                delivered: 2234,
                bytes_sent: 32827,
                dropped_loss: 773,
                completed: 944,
                mean_completeness_bits: 0x3fe528e5f75270d0,
                mean_value_bits: 0x3fc110b072b89b78,
            },
        ),
    ] {
        let report = Protocol::Centralized.run::<Average>(&cfg(n), seed);
        check("central", n, seed, &report, &golden);
    }
}

#[test]
fn leader_election_matches_seed_behavior() {
    for (n, seed, golden) in [
        (
            64,
            3,
            Golden {
                rounds: 14,
                sent: 252,
                delivered: 193,
                bytes_sent: 2576,
                dropped_loss: 59,
                completed: 64,
                mean_completeness_bits: 0x3febb00000000000,
                mean_value_bits: 0x3fa696a9bde22121,
            },
        ),
        (
            256,
            7,
            Golden {
                rounds: 18,
                sent: 1000,
                delivered: 762,
                bytes_sent: 10930,
                dropped_loss: 238,
                completed: 251,
                mean_completeness_bits: 0x3fe96f0b38187a64,
                mean_value_bits: 0x3f9f0b7220423b8d,
            },
        ),
    ] {
        let report = Protocol::Leader { committee: 1 }.run::<Average>(&cfg(n), seed);
        check("leader", n, seed, &report, &golden);
    }
}

#[test]
fn flow_updating_continuous_matches_seed_behavior() {
    // One fingerprint over every epoch's report pins a whole continuous
    // run: churn between epochs, crashes inside them, and the
    // completeness tally over both. One row per driver: Flow-Updating,
    // which persists across epochs, and the §2 restart driver on the
    // `churn` grid's harshest cell (high churn, within-epoch crashes
    // with recovery). The strict build runs the restart driver on exact
    // contributor sets and the default build on counts; both must read
    // the same fingerprint.
    let mut fu_cfg = cfg(96);
    fu_cfg.pf = 0.01;
    let mut fu = ContinuousOptions::new(ContinuousProtocol::FlowUpdating);
    fu.churn = ChurnModel {
        join_rate: 1.5,
        leave_prob: 0.02,
        crash_prob: 0.03,
        recover_prob: 0.3,
    };
    fu.votes = VoteProcess::RandomWalk { sigma: 0.5 };
    let mut hier_cfg = cfg(96);
    hier_cfg.pf = 0.002;
    let mut hier = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
    hier.churn = ChurnModel {
        join_rate: 2.0,
        leave_prob: 0.02,
        crash_prob: 0.05,
        recover_prob: 0.5,
    };
    hier.votes = VoteProcess::RandomWalk { sigma: 0.5 };
    hier.recovery = 0.3;
    for (c, opts, fingerprint) in [
        (fu_cfg, fu, 0xf083_4825_d8ac_05f6),
        (hier_cfg, hier, 0x32ef_d246_d0fe_f942),
    ] {
        let name = opts.protocol;
        let out = run_continuous(&c, &opts, 5);
        assert_eq!(out.epochs.len(), 8, "{name:?}");
        // members that went down inside an epoch: the next epoch's up
        // count less what the churn step between them explains
        let mid_epoch_crashes: usize = out
            .epochs
            .windows(2)
            .map(|w| w[0].up + w[1].joins + w[1].recoveries - w[1].leaves - w[1].crashes - w[1].up)
            .sum();
        assert!(
            mid_epoch_crashes > 0,
            "{name:?}: no member crashed mid-epoch"
        );
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for e in &out.epochs {
            for word in [
                e.up as u64,
                e.messages,
                e.rounds,
                e.published as u64,
                e.completeness.to_bits(),
                e.estimate.to_bits(),
            ] {
                for byte in word.to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        assert_eq!(hash, fingerprint, "{name:?}: epoch fingerprint {hash:#x}");
    }
}
