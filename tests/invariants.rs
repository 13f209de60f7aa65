//! Property-style tests of the system's core invariants, driven by a
//! seeded [`DetRng`] instead of an external fuzzing framework: every
//! case is deterministic and reproducible from the loop index while
//! still sweeping a wide randomized input space per test.

use std::num::NonZeroU32;

use gridagg::aggregate::wire::WireAggregate;
use gridagg::analysis;
use gridagg::prelude::*;
use gridagg::simnet::rng::{splitmix64, unit_interval, DetRng};

/// Cases per randomized test (cheap structural checks).
const CASES: usize = 64;
/// Cases per full-simulation test (each case is an entire run).
const SIM_CASES: usize = 12;

fn rng_for(label: u64) -> DetRng {
    DetRng::seeded(0xC0FF_EE00 ^ label)
}

fn random_votes(rng: &mut DetRng) -> Vec<f64> {
    let len = 2 + rng.below(38);
    (0..len).map(|_| (rng.unit() - 0.5) * 2e6).collect()
}

fn fold<A: Aggregate>(votes: &[f64]) -> A {
    let mut acc = A::from_vote(votes[0]);
    for &v in &votes[1..] {
        acc.merge(&A::from_vote(v));
    }
    acc
}

// ---------------------------------------------------------------------
// Aggregate laws: merge is commutative and grouping-insensitive (the
// composability property the whole protocol rests on).
// ---------------------------------------------------------------------

macro_rules! aggregate_law_tests {
    ($name:ident, $agg:ty, $tol:expr, $label:expr) => {
        mod $name {
            use super::*;

            #[test]
            fn merge_commutes() {
                let mut rng = rng_for($label);
                for case in 0..CASES {
                    let a = random_votes(&mut rng);
                    let b = random_votes(&mut rng);
                    let mut ab: $agg = fold(&a);
                    ab.merge(&fold::<$agg>(&b));
                    let mut ba: $agg = fold(&b);
                    ba.merge(&fold::<$agg>(&a));
                    assert!(
                        (ab.summary() - ba.summary()).abs() <= $tol * ab.summary().abs().max(1.0),
                        "case {case}: {} vs {}",
                        ab.summary(),
                        ba.summary()
                    );
                }
            }

            #[test]
            fn grouping_is_irrelevant() {
                let mut rng = rng_for($label ^ 0xFF);
                for case in 0..CASES {
                    let votes = random_votes(&mut rng);
                    let split = 1 + rng.below(votes.len() - 1);
                    let flat: $agg = fold(&votes);
                    let mut grouped: $agg = fold(&votes[..split]);
                    grouped.merge(&fold::<$agg>(&votes[split..]));
                    assert!(
                        (flat.summary() - grouped.summary()).abs()
                            <= $tol * flat.summary().abs().max(1.0),
                        "case {case} at split {split}"
                    );
                }
            }
        }
    };
}

aggregate_law_tests!(average_laws, Average, 1e-9, 1);
aggregate_law_tests!(sum_laws, Sum, 1e-9, 2);
aggregate_law_tests!(count_laws, Count, 0.0, 3);
aggregate_law_tests!(min_laws, Min, 0.0, 4);
aggregate_law_tests!(max_laws, Max, 0.0, 5);
aggregate_law_tests!(meanvar_laws, MeanVar, 1e-6, 6);
aggregate_law_tests!(topk_laws, TopK, 0.0, 7);

// ---------------------------------------------------------------------
// No-double-counting: Tagged::try_merge must reject overlap and must
// leave the receiver unchanged on failure.
// ---------------------------------------------------------------------

#[test]
fn tagged_rejects_any_overlap() {
    let mut rng = rng_for(10);
    let sample = |rng: &mut DetRng| -> std::collections::BTreeSet<usize> {
        let len = 1 + rng.below(29);
        (0..len).map(|_| rng.below(128)).collect()
    };
    let build = |members: &std::collections::BTreeSet<usize>| {
        let mut acc = Tagged::<Average>::empty(128);
        for &m in members {
            acc.try_merge(&Tagged::from_vote(m, m as f64, 128)).unwrap();
        }
        acc
    };
    for case in 0..CASES {
        let left = sample(&mut rng);
        let right = sample(&mut rng);
        let mut a = build(&left);
        let b = build(&right);
        let before = a.clone();
        let overlaps = left.intersection(&right).next().is_some();
        let result = a.try_merge(&b);
        if overlaps {
            assert!(result.is_err(), "case {case}: overlap must be rejected");
            assert_eq!(a, before, "case {case}: failed merge must not mutate");
        } else {
            assert!(result.is_ok(), "case {case}");
            assert_eq!(a.vote_count(), left.len() + right.len());
        }
    }
}

/// `try_add_vote(m, v)` is `try_merge(&Tagged::from_vote(m, v, n))`
/// without the singleton: same float operations in the same order, so
/// the summaries agree to the bit, on exact and counted sets alike.
#[test]
fn add_vote_is_bit_identical_to_merging_a_singleton() {
    fn check<A: Aggregate>(label: u64) {
        let mut rng = rng_for(label);
        for case in 0..CASES {
            let votes = random_votes(&mut rng);
            let n = votes.len();
            for for_scale in [false, true] {
                let empty = || {
                    if for_scale {
                        Tagged::<A>::empty_for_scale(n)
                    } else {
                        Tagged::<A>::empty(n)
                    }
                };
                let (mut added, mut merged) = (empty(), empty());
                for (m, &v) in votes.iter().enumerate() {
                    let single = if for_scale {
                        Tagged::from_vote_for_scale(m, v, n)
                    } else {
                        Tagged::from_vote(m, v, n)
                    };
                    added.try_add_vote(m, v).unwrap();
                    merged.try_merge(&single).unwrap();
                    assert_eq!(
                        added.aggregate().unwrap().summary().to_bits(),
                        merged.aggregate().unwrap().summary().to_bits(),
                        "case {case}, vote {m}"
                    );
                    assert_eq!(added.vote_count(), merged.vote_count());
                }
                assert_eq!(added, merged, "case {case}");
            }
        }
    }
    check::<Average>(12);
    check::<MeanVar>(13);
    check::<TopK>(14);
}

#[test]
fn voteset_union_is_idempotent_and_monotone() {
    let mut rng = rng_for(11);
    let sample = |rng: &mut DetRng| -> Vec<usize> {
        let len = rng.below(64);
        (0..len).map(|_| rng.below(512)).collect()
    };
    for _ in 0..CASES {
        let xs = sample(&mut rng);
        let ys = sample(&mut rng);
        let a: VoteSet = xs.iter().copied().collect();
        let b: VoteSet = ys.iter().copied().collect();
        let mut u = a.clone();
        u.union_with(&b);
        // union contains both operands
        for &x in &xs {
            assert!(u.contains(x));
        }
        for &y in &ys {
            assert!(u.contains(y));
        }
        // idempotent
        let mut uu = u.clone();
        uu.union_with(&b);
        assert_eq!(&uu, &u);
        // cardinality bounds
        assert!(u.len() >= a.len().max(b.len()));
        assert!(u.len() <= a.len() + b.len());
    }
}

// ---------------------------------------------------------------------
// Hierarchy address algebra.
// ---------------------------------------------------------------------

#[test]
fn addr_index_roundtrip() {
    let mut rng = rng_for(20);
    for _ in 0..CASES {
        let base = 2 + rng.below(6) as u8;
        let len = 1 + rng.below(5);
        let boxes = (base as u64).pow(len as u32);
        let idx = splitmix64(rng.raw().next_u64()) % boxes;
        let a = Addr::from_index(base, len, idx).unwrap();
        assert_eq!(a.index(), idx);
        assert_eq!(a.len(), len);
    }
}

#[test]
fn prefix_containment_is_transitive() {
    let mut rng = rng_for(21);
    for _ in 0..CASES {
        let base = 2 + rng.below(3) as u8;
        let len = 4usize;
        let boxes = (base as u64).pow(len as u32);
        let a = Addr::from_index(base, len, splitmix64(rng.raw().next_u64()) % boxes).unwrap();
        for l1 in 0..=len {
            for l2 in 0..=l1 {
                let p1 = a.prefix(l1);
                let p2 = a.prefix(l2);
                assert!(p2.contains(&p1), "{p2} should contain {p1}");
                assert!(p1.contains(&a));
                assert!(p2.contains(&a));
            }
        }
    }
}

#[test]
fn scopes_grow_with_phase() {
    let mut rng = rng_for(22);
    for _ in 0..CASES {
        let k = 2 + rng.below(4) as u8;
        let n = 16 + rng.below(1984);
        let h = Hierarchy::for_group(k, n).unwrap();
        let boxes = h.num_boxes();
        let b = h.box_at(splitmix64(rng.raw().next_u64()) % boxes);
        let mut prev_len = h.depth() + 1;
        for phase in 1..=h.phases() {
            let scope = h.scope(&b, phase);
            assert!(scope.len() < prev_len, "scopes must strictly widen");
            assert!(scope.contains(&b));
            prev_len = scope.len();
        }
        assert_eq!(h.scope(&b, h.phases()).len(), 0, "final scope is the root");
    }
}

#[test]
fn fair_hash_is_total_and_in_range() {
    let mut rng = rng_for(23);
    for _ in 0..CASES {
        let k = 2 + rng.below(4) as u8;
        let n = 16 + rng.below(1984);
        let salt = rng.raw().next_u64();
        let h = Hierarchy::for_group(k, n).unwrap();
        let p = FairHashPlacement::new(h, salt);
        for i in (0..n as u32).step_by(17) {
            let a = p.place(MemberId(i));
            assert_eq!(a.len(), h.depth());
            assert!(a.index() < h.num_boxes());
        }
    }
}

#[test]
fn unit_interval_is_in_range() {
    let mut rng = rng_for(24);
    for _ in 0..4096 {
        let u = unit_interval(rng.raw().next_u64());
        assert!((0.0..1.0).contains(&u));
    }
    // edge inputs
    assert!((0.0..1.0).contains(&unit_interval(0)));
    assert!((0.0..1.0).contains(&unit_interval(u64::MAX)));
}

// ---------------------------------------------------------------------
// Analysis: bounds stay within [0, 1] and respect monotonicity.
// ---------------------------------------------------------------------

#[test]
fn completeness_bounds_are_probabilities() {
    let mut rng = rng_for(30);
    for _ in 0..CASES {
        let n = 10 + rng.below(4990) as u64;
        let k = 2.0 + rng.unit() * 14.0;
        let b = 0.25 + rng.unit() * 5.75;
        let c1 = analysis::c1(n, k, b);
        let ci = analysis::ci_lower_bound(n as f64, k, b);
        let inc = analysis::c1_incompleteness(n, k, b);
        assert!((0.0..=1.0).contains(&c1));
        assert!((0.0..=1.0).contains(&ci));
        assert!((0.0..=1.0).contains(&inc));
        assert!((c1 + inc - 1.0).abs() < 1e-9 || inc < 1e-12);
    }
}

#[test]
fn epidemic_noninfected_decreases() {
    let mut rng = rng_for(31);
    for _ in 0..CASES {
        let m = 2.0 + rng.unit() * 9998.0;
        let b = 0.1 + rng.unit() * 7.9;
        let mut prev = analysis::noninfected(m, b, 0.0);
        for t in 1..10 {
            let x = analysis::noninfected(m, b, t as f64);
            assert!(x <= prev + 1e-12);
            assert!(x >= 0.0);
            prev = x;
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end protocol invariants (small groups; randomized parameters
// with a reduced case count because each case is a full simulation).
// ---------------------------------------------------------------------

#[test]
fn protocol_never_double_counts_and_stays_in_unit_range() {
    let mut rng = rng_for(40);
    for case in 0..SIM_CASES {
        let n = 8 + rng.below(112);
        let k = 2 + rng.below(4) as u8;
        let ucastl = rng.unit() * 0.6;
        let seed = rng.raw().next_u64() % 1_000_003;
        let mut cfg = ExperimentConfig::paper_defaults()
            .with_n(n)
            .with_ucastl(ucastl);
        cfg.k = k;
        cfg.pf = 0.0;
        // Tagged::try_merge panics inside the protocol if a vote would
        // be double counted, so simply completing the run checks the
        // invariant; completeness is additionally a probability.
        let report = run_hiergossip::<Average>(&cfg, seed);
        for o in &report.outcomes {
            if let MemberOutcome::Completed { completeness, .. } = o {
                assert!(
                    (0.0..=1.0).contains(completeness),
                    "case {case}: completeness {completeness}"
                );
            }
        }
        assert!(report.mean_incompleteness() >= 0.0);
        assert!(report.messages() > 0, "case {case}");
    }
}

#[test]
fn estimates_bounded_by_vote_range() {
    let mut rng = rng_for(41);
    for case in 0..SIM_CASES {
        // Average of votes in [lo, hi] must stay inside [lo, hi] for
        // every member, complete or not (no-double-counting implies the
        // estimate is a true average of a vote subset).
        let n = 8 + rng.below(92);
        let seed = rng.raw().next_u64() % 1_000_003;
        let mut cfg = ExperimentConfig::paper_defaults().with_n(n);
        cfg.vote = VoteSpec::Uniform { lo: 40.0, hi: 60.0 };
        let report = run_hiergossip::<Average>(&cfg, seed);
        for o in &report.outcomes {
            if let MemberOutcome::Completed { value, .. } = o {
                assert!(
                    (40.0..=60.0).contains(value),
                    "case {case}: estimate {value} out of range"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Wire codec fuzz: decoding arbitrary bytes must never panic, and
// encode→decode must round-trip.
// ---------------------------------------------------------------------

#[test]
fn wire_decode_never_panics() {
    let mut rng = rng_for(50);
    for _ in 0..256 {
        let len = rng.below(64);
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let count = NonZeroU32::new(1 + rng.below(1 << 20) as u32).unwrap();
        let _ = Average::decode(count, &mut bytes.as_slice());
        let _ = Sum::decode(count, &mut bytes.as_slice());
        let _ = Min::decode(count, &mut bytes.as_slice());
        let _ = Max::decode(count, &mut bytes.as_slice());
        let _ = Count::decode(count, &mut bytes.as_slice());
        let _ = Histogram16::decode(count, &mut bytes.as_slice());
        let _ = TopK::decode(count, &mut bytes.as_slice());
        let _ = MeanVar::decode(count, &mut bytes.as_slice());
    }
}

#[test]
fn wire_roundtrip_average() {
    let mut rng = rng_for(51);
    for _ in 0..CASES {
        let votes = random_votes(&mut rng);
        let a: Average = fold(&votes);
        let mut buf = Vec::new();
        a.encode(&mut buf);
        assert_eq!(buf.len(), a.wire_size());
        let count = NonZeroU32::new(votes.len() as u32).unwrap();
        let d = Average::decode(count, &mut buf.as_slice()).unwrap();
        assert_eq!(d, a);
    }
}

#[test]
fn wire_roundtrip_topk() {
    let mut rng = rng_for(52);
    for _ in 0..CASES {
        let votes = random_votes(&mut rng);
        let t: TopK = fold(&votes);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let count = NonZeroU32::new(votes.len() as u32).unwrap();
        let d = TopK::decode(count, &mut buf.as_slice()).unwrap();
        assert_eq!(d, t);
    }
}
