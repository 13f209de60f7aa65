//! Cross-crate integration tests: full protocol runs assembled from the
//! public API, exercising every aggregate type, every loss model, and
//! every protocol.

use gridagg::prelude::*;

fn perfect(n: usize) -> ExperimentConfig {
    let mut c = ExperimentConfig::paper_defaults()
        .with_n(n)
        .with_ucastl(0.0);
    c.pf = 0.0;
    c
}

#[test]
fn every_aggregate_type_runs_hierarchically() {
    let mut cfg = perfect(64);
    cfg.vote = VoteSpec::Uniform { lo: 10.0, hi: 90.0 };
    macro_rules! check {
        ($agg:ty) => {
            let report = run_hiergossip::<$agg>(&cfg, 11);
            assert!(
                report.mean_completeness().unwrap() > 0.95,
                concat!(stringify!($agg), " incomplete")
            );
        };
    }
    check!(Average);
    check!(Sum);
    check!(Count);
    check!(Min);
    check!(Max);
    check!(MeanVar);
    check!(Histogram16);
    check!(TopK);
}

#[test]
fn min_max_match_ground_truth_exactly_when_complete() {
    let mut cfg = perfect(128);
    cfg.vote = VoteSpec::Index;
    let min_report = run_hiergossip::<Min>(&cfg, 3);
    let max_report = run_hiergossip::<Max>(&cfg, 3);
    // index votes: min 0, max 127
    assert_eq!(min_report.true_value, 0.0);
    assert_eq!(max_report.true_value, 127.0);
    for report in [min_report, max_report] {
        for o in &report.outcomes {
            if let MemberOutcome::Completed {
                completeness,
                value,
                ..
            } = o
            {
                if *completeness == 1.0 {
                    assert_eq!(*value, report.true_value);
                }
            }
        }
    }
}

#[test]
fn count_aggregate_counts_members() {
    let cfg = perfect(100);
    let report = run_hiergossip::<Count>(&cfg, 5);
    assert_eq!(report.true_value, 100.0);
    let complete_and_right = report
        .outcomes
        .iter()
        .filter(|o| {
            matches!(o, MemberOutcome::Completed { completeness, value, .. }
                if *completeness == 1.0 && *value == 100.0)
        })
        .count();
    assert!(complete_and_right > 90);
}

#[test]
fn larger_k_means_fewer_phases_and_taller_boxes() {
    let mut small_k = perfect(256);
    small_k.k = 2;
    let mut large_k = perfect(256);
    large_k.k = 16;
    let a = run_hiergossip::<Average>(&small_k, 1);
    let b = run_hiergossip::<Average>(&large_k, 1);
    // both complete, but the deep hierarchy takes more rounds
    assert!(a.mean_completeness().unwrap() > 0.95);
    assert!(b.mean_completeness().unwrap() > 0.95);
    assert!(
        a.last_completion().unwrap() > b.last_completion().unwrap(),
        "K=2 ({} rounds) should be slower than K=16 ({} rounds)",
        a.last_completion().unwrap(),
        b.last_completion().unwrap()
    );
}

#[test]
fn all_protocols_agree_on_perfect_network() {
    let cfg = perfect(64);
    // flat gossip, the structure-free reference, is not expected to
    // complete
    let reports: Vec<RunReport> = Protocol::ALL
        .into_iter()
        .filter(|&p| p != Protocol::FlatGossip)
        .map(|p| p.run::<Average>(&cfg, 2))
        .collect();
    let truth = reports[0].true_value;
    for r in &reports {
        assert_eq!(r.true_value, truth, "same group, same ground truth");
        assert!(r.mean_completeness().unwrap() > 0.99);
    }
}

#[test]
fn committee_variant_tolerates_single_leader_crash() {
    // Crash injection with recovery disabled; committee K'=3 should beat
    // K'=1 in expectation across seeds.
    let mut cfg = ExperimentConfig::paper_defaults()
        .with_n(128)
        .with_ucastl(0.0);
    cfg.pf = 0.004;
    let avg = |committee: usize| {
        let reports: Vec<_> = (77..89)
            .map(|seed| Protocol::Leader { committee }.run::<Average>(&cfg, seed))
            .collect();
        summarize(&reports).mean_incompleteness
    };
    let single = avg(1);
    let committee = avg(3);
    assert!(
        committee < single,
        "K'=3 ({committee}) should beat K'=1 ({single})"
    );
}

#[test]
fn soft_partition_degrades_gracefully() {
    let cfg = ExperimentConfig::paper_defaults().with_partl(0.7);
    let reports: Vec<_> = (5..15)
        .map(|seed| run_hiergossip::<Average>(&cfg, seed))
        .collect();
    let s = summarize(&reports);
    // Figure 9's qualitative claim: no collapse even at partl = 0.7
    assert!(
        s.mean_incompleteness < 0.25,
        "incompleteness {} under partition",
        s.mean_incompleteness
    );
}

#[test]
fn crash_recovery_model_is_available() {
    // The paper's model (§2) allows crash *and recovery*; the failure
    // substrate supports it even though §7 uses crash-only.
    use gridagg::group::failure::{FailureProcess, LivenessEvent};
    let mut p = FailureProcess::new(
        FailureModel::PerRoundWithRecovery { pf: 0.3, pr: 0.5 },
        50,
        9,
    );
    let mut crashed = 0;
    let mut recovered = 0;
    for r in 0..40 {
        for e in p.step(r) {
            match e {
                LivenessEvent::Crashed(_) => crashed += 1,
                LivenessEvent::Recovered(_) => recovered += 1,
            }
        }
    }
    assert!(crashed > 0 && recovered > 0);
}

#[test]
fn wire_codec_round_trips_across_the_stack() {
    // An aggregate produced by a protocol run survives the wire codec.
    use bytes_roundtrip::check;
    let cfg = perfect(32);
    let report = run_hiergossip::<Average>(&cfg, 4);
    let value = report
        .outcomes
        .iter()
        .find_map(|o| match o {
            MemberOutcome::Completed { value, .. } => Some(*value),
            _ => None,
        })
        .unwrap();
    check(value, 32);
}

mod bytes_roundtrip {
    use gridagg::aggregate::wire::WireAggregate;
    use gridagg::aggregate::{Aggregate, Average};

    pub fn check(mean: f64, count: u32) {
        let agg = Average::from_parts(mean * count as f64, count.into());
        let mut buf = Vec::new();
        agg.encode(&mut buf);
        let count = std::num::NonZeroU32::new(count).unwrap();
        let decoded = Average::decode(count, &mut buf.as_slice()).unwrap();
        assert!((decoded.summary() - agg.summary()).abs() < 1e-9);
    }
}

#[test]
fn bandwidth_cap_limits_but_does_not_break_gossip() {
    let mut cfg = ExperimentConfig::paper_defaults();
    // fanout 2 pushes + replies per round; cap at 4 sends/round
    cfg.bandwidth_cap = Some(4);
    let report = run_hiergossip::<Average>(&cfg, 6);
    assert!(report.mean_completeness().unwrap() > 0.9);
}

#[test]
fn partial_views_degrade_gracefully() {
    // §2 relaxation: smaller views → lower completeness, never a crash
    let mut small = ExperimentConfig::paper_defaults();
    small.partial_view = Some(40);
    let mut large = ExperimentConfig::paper_defaults();
    large.partial_view = Some(150);
    let s = summarize(
        &(3..9)
            .map(|seed| run_hiergossip::<Average>(&small, seed))
            .collect::<Vec<_>>(),
    );
    let l = summarize(
        &(3..9)
            .map(|seed| run_hiergossip::<Average>(&large, seed))
            .collect::<Vec<_>>(),
    );
    assert!(
        l.mean_incompleteness < s.mean_incompleteness,
        "larger views must help: {} vs {}",
        l.mean_incompleteness,
        s.mean_incompleteness
    );
    assert!(l.mean_incompleteness < 0.05);
}

#[test]
fn approximate_n_estimate_suffices() {
    // §6.1: "an approximate estimate of N at each member usually suffices"
    for est in [64usize, 500] {
        let mut cfg = ExperimentConfig::paper_defaults();
        cfg.n_estimate = Some(est);
        let s = summarize(
            &(9..15)
                .map(|seed| run_hiergossip::<Average>(&cfg, seed))
                .collect::<Vec<_>>(),
        );
        assert!(
            s.mean_incompleteness < 0.1,
            "estimate {est}: incompleteness {}",
            s.mean_incompleteness
        );
    }
}

#[test]
fn staggered_multicast_initiation_works() {
    let mut cfg = ExperimentConfig::paper_defaults();
    cfg.start_spread = Some(8);
    let s = summarize(
        &(21..27)
            .map(|seed| run_hiergossip::<Average>(&cfg, seed))
            .collect::<Vec<_>>(),
    );
    assert!(
        s.mean_incompleteness < 0.1,
        "staggered start incompleteness {}",
        s.mean_incompleteness
    );
}

#[test]
fn predicate_aggregates_answer_threshold_queries() {
    use gridagg::aggregate::{All, Any};
    // votes are 0/1 predicates: "is my reading above the threshold?"
    let mut cfg = perfect(64);
    cfg.vote = VoteSpec::Index; // member 0 votes 0.0, everyone else non-zero
    let any = run_hiergossip::<Any>(&cfg, 2);
    let all = run_hiergossip::<All>(&cfg, 2);
    // Any: at least one non-zero vote exists → 1.0 at complete members
    // All: member 0's zero vote breaks the conjunction → 0.0
    for o in &any.outcomes {
        if let MemberOutcome::Completed {
            completeness,
            value,
            ..
        } = o
        {
            if *completeness == 1.0 {
                assert_eq!(*value, 1.0);
            }
        }
    }
    for o in &all.outcomes {
        if let MemberOutcome::Completed {
            completeness,
            value,
            ..
        } = o
        {
            if *completeness == 1.0 {
                assert_eq!(*value, 0.0);
            }
        }
    }
}

#[test]
fn periodic_epochs_survive_failures_end_to_end() {
    use gridagg::core::periodic::VoteProcess;
    let mut cfg = ExperimentConfig::paper_defaults().with_n(96);
    cfg.pf = 0.005;
    // no churn, no within-epoch recovery: the paper's periodic mode
    let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
    opts.epochs = 3;
    opts.votes = VoteProcess::RandomWalk { sigma: 1.0 };
    let epochs = run_continuous(&cfg, &opts, 13).epochs;
    assert_eq!(epochs.len(), 3);
    for e in &epochs {
        assert!(
            e.completeness > 0.7,
            "epoch {} completeness collapsed",
            e.epoch
        );
    }
}

#[test]
fn complexity_predictions_bracket_measurements() {
    let cfg = perfect(256);
    let report = run_hiergossip::<Average>(&cfg, 5);
    // §6.3: phases × ⌈C·log_M N⌉ rounds, each member pushing M a round
    let phases = Hierarchy::for_group(cfg.k, cfg.n).unwrap().phases() as u64;
    let predicted_rounds = phases * u64::from(cfg.hier_config().rounds_per_phase(cfg.n));
    let predicted_msgs = cfg.n as u64 * predicted_rounds * u64::from(cfg.fanout);
    // early bump finishes below the synchronous schedule; replies at
    // most double the push count
    assert!(report.rounds <= predicted_rounds + 8);
    assert!(
        report.messages() <= 2 * predicted_msgs,
        "{} vs 2x{}",
        report.messages(),
        predicted_msgs
    );
    assert!(
        report.messages() >= predicted_msgs / 8,
        "{} vs {}/8",
        report.messages(),
        predicted_msgs
    );
}

/// The three structurally-deduping protocols carry counted contributor
/// sets on the data path in a default build; a `strict-invariants`
/// build swaps in the exact shadow, and then every contributor it names
/// is a member of the group.
#[test]
fn deduping_protocols_report_counted_sets_unless_built_strict() {
    use gridagg::core::scope::ScopeIndex;
    use gridagg::group::failure::FailureProcess;

    fn check<P: AggregationProtocol<Average>>(name: &str, protocols: Vec<P>, truth: f64) {
        let n = protocols.len();
        let (report, protocols) = Simulation::new(
            SimNetwork::new(NetworkConfig::default(), 9),
            protocols,
            FailureProcess::new(FailureModel::None, n, 9),
            9,
            truth,
            2000,
        )
        .run_returning();
        assert_eq!(report.completed(), n, "{name}");
        for p in &protocols {
            let est = p.estimate().expect("completed members hold an estimate");
            assert!((1..=n).contains(&est.vote_count()), "{name}");
            assert_eq!(
                est.votes().is_exact(),
                cfg!(feature = "strict-invariants"),
                "{name}"
            );
            assert!(est.votes().iter().all(|m| m < n), "{name}");
        }
    }

    let n = 1024;
    let group = GroupBuilder::new(n)
        .votes(VoteDistribution::Index)
        .seed(9)
        .build();
    let truth = group.true_aggregate::<Average>().summary();
    let hierarchy = Hierarchy::for_group(4, n).unwrap();
    let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(hierarchy, 9));
    let members = group.members();

    let hier = members
        .iter()
        .map(|m| HierGossip::new(m.id, m.vote, index.clone(), HierGossipConfig::default()));
    check("hiergossip", hier.collect(), truth);

    let flat = members
        .iter()
        .map(|m| FlatGossip::new(m.id, m.vote, n, FlatGossipConfig::default()));
    check("flatgossip", flat.collect(), truth);

    let le_cfg = LeaderElectionConfig::default();
    let directory = LeaderDirectory::build(&index, &le_cfg);
    let leader = members
        .iter()
        .map(|m| LeaderElection::new(m.id, m.vote, index.clone(), directory.clone(), le_cfg));
    check("leader", leader.collect(), truth);
}
