//! Failure-injection scenarios beyond the paper's uniform models:
//! targeted box wipes, healing networks, distance-dependent radio loss,
//! and delay jitter — each exercising a different substrate feature
//! end to end.

use gridagg::core::scope::ScopeIndex;
use gridagg::prelude::*;
use gridagg::simnet::delay::GeometricDelay;
use gridagg::simnet::loss::{DistanceLoss, SwitchLoss, UniformLoss};
use gridagg::simnet::topology::{make_field, FieldKind};

fn build_protocols(
    n: usize,
    seed: u64,
    k: u8,
) -> (Vec<HierGossip<Average>>, std::sync::Arc<ScopeIndex>, f64) {
    let group = GroupBuilder::new(n)
        .votes(VoteDistribution::Index)
        .seed(seed)
        .build();
    let h = Hierarchy::for_group(k, n).unwrap();
    let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, seed));
    let protocols = group
        .members()
        .iter()
        .map(|m| HierGossip::new(m.id, m.vote, index.clone(), HierGossipConfig::default()))
        .collect();
    let truth = (n as f64 - 1.0) / 2.0;
    (protocols, index, truth)
}

fn run_with(
    protocols: Vec<HierGossip<Average>>,
    net: SimNetwork<gridagg::core::Payload<Average>>,
    failure: gridagg::group::failure::FailureProcess,
    seed: u64,
    truth: f64,
) -> RunReport {
    Simulation::new(net, protocols, failure, seed, truth, 2000).run()
}

#[test]
fn wiping_an_entire_box_loses_only_that_box() {
    // schedule every member of one grid box to crash at round 0: their
    // votes are unrecoverable, everything else must survive.
    let n = 128;
    let seed = 6;
    let (protocols, index, truth) = build_protocols(n, seed, 4);
    let h = *index.hierarchy();
    // pick the first non-empty box
    let victim_box = (0..h.num_boxes())
        .map(|i| h.box_at(i))
        .find(|b| index.count_in(b) > 0)
        .expect("some box is populated");
    let victims: Vec<MemberId> = index.members_in(&victim_box).to_vec();
    let crashes: Vec<(Round, MemberId)> = victims.iter().map(|&m| (0, m)).collect();
    let failure =
        gridagg::group::failure::FailureProcess::new(FailureModel::Scheduled { crashes }, n, seed);
    let net = SimNetwork::new(NetworkConfig::default(), seed);
    let report = run_with(protocols, net, failure, seed, truth);

    assert_eq!(report.crashed(), victims.len());
    // The victims' votes are a hard ceiling: no completed member can
    // exceed the box-loss floor...
    let floor = 1.0 - victims.len() as f64 / n as f64;
    for o in &report.outcomes {
        if let MemberOutcome::Completed { completeness, .. } = o {
            assert!(*completeness <= floor + 1e-9);
        }
    }
    // ...and the knock-on cost is bounded: with no failure detection
    // (per the paper) the victims' scope-mates wait out full phase
    // timeouts and become stragglers, but the group mean stays close to
    // the floor.
    let mean = report.mean_completeness().unwrap();
    assert!(
        mean > floor - 0.1,
        "mean completeness {mean} collapsed past the box-loss floor {floor}"
    );
    assert!(report.completed() >= n - victims.len());
}

#[test]
fn network_healing_mid_run_recovers_completeness() {
    // total blackout for the first 12 rounds, then a perfect network:
    // the per-phase timeouts burn through the blackout but the gossip
    // recovers what the surviving schedule allows — compare to a
    // permanently black network where nothing ever arrives.
    let n = 64;
    let seed = 3;
    let run = |heal_at: Option<Round>| {
        let (protocols, _, truth) = build_protocols(n, seed, 4);
        let loss: Box<dyn gridagg::simnet::loss::LossModel> = match heal_at {
            Some(at) => Box::new(SwitchLoss::new(
                Box::new(UniformLoss::new(1.0).unwrap()),
                Box::new(gridagg::simnet::loss::Perfect),
                at,
            )),
            None => Box::new(UniformLoss::new(1.0).unwrap()),
        };
        let net = SimNetwork::new(NetworkConfig::default().with_boxed_loss(loss), seed);
        let failure = gridagg::group::failure::FailureProcess::new(FailureModel::None, n, seed);
        run_with(protocols, net, failure, seed, truth)
    };
    let healed = run(Some(6));
    let black = run(None);
    assert!(
        healed.mean_completeness().unwrap() > black.mean_completeness().unwrap(),
        "healing must help: {:?} vs {:?}",
        healed.mean_completeness(),
        black.mean_completeness()
    );
    // a permanently black network leaves every member with only its own vote
    assert!(black.mean_completeness().unwrap() < 2.0 / n as f64 + 1e-9);
}

/// Seeds the multi-seed scenarios below run at. One seed is a coin flip
/// for the statistical claims; each claim here holds per seed over the
/// range, or as a count or mean over it.
const SCENARIO_SEEDS: std::ops::RangeInclusive<u64> = 1..=40;

#[test]
fn crash_recovery_through_healing_blackout_never_double_counts() {
    // The paper's crash-recovery model (members "arbitrarily suffer
    // crash failures and then recover", state intact) layered on a
    // network that blacks out and then heals: recovered members
    // re-gossip aggregates their own vote already entered, and the
    // healed network redelivers a burst of stale state. Every merge on
    // those paths must keep contributor sets disjoint — `try_merge`
    // would refuse a double merge, so the observable invariant is that
    // no member's completeness ever exceeds 1.0 and fully-complete
    // members compute the exact truth. The invariants hold at every
    // seed; whether some member ends fully complete is luck (about
    // half the seeds), so that path is required at a quarter of them.
    const FULLY_COMPLETE_SEEDS_AT_LEAST: usize = 10;
    let n = 128;
    let mut seeds_with_a_complete_member = 0;
    for seed in SCENARIO_SEEDS {
        let (protocols, _, truth) = build_protocols(n, seed, 4);
        let loss = SwitchLoss::new(
            Box::new(UniformLoss::new(0.6).unwrap()),
            Box::new(UniformLoss::new(0.05).unwrap()),
            8,
        );
        let net = SimNetwork::new(
            NetworkConfig::default().with_boxed_loss(Box::new(loss)),
            seed,
        );
        let failure = gridagg::group::failure::FailureProcess::new(
            FailureModel::PerRoundWithRecovery { pf: 0.02, pr: 0.3 },
            n,
            seed,
        );
        let report = run_with(protocols, net, failure, seed, truth);

        let mut complete_members = 0;
        for o in &report.outcomes {
            if let MemberOutcome::Completed {
                completeness,
                value,
                ..
            } = o
            {
                assert!(
                    *completeness <= 1.0 + 1e-12,
                    "seed {seed}: completeness {completeness} > 1: a vote was counted twice"
                );
                if (*completeness - 1.0).abs() < 1e-12 {
                    complete_members += 1;
                    assert!(
                        (*value - truth).abs() < 1e-9,
                        "seed {seed}: fully complete member off truth: {value} vs {truth}"
                    );
                }
            }
        }
        // the run must actually exercise the interesting paths: members
        // completed despite the blackout, and recovery kept the crash
        // model from simply shrinking the group
        assert!(
            report.completed() > n / 2,
            "seed {seed}: too few completed to be meaningful"
        );
        let mean = report.mean_completeness().unwrap();
        assert!(mean > 0.5, "seed {seed}: mean completeness {mean}");
        seeds_with_a_complete_member += usize::from(complete_members > 0);
    }
    assert!(
        seeds_with_a_complete_member >= FULLY_COMPLETE_SEEDS_AT_LEAST,
        "a fully complete member at only {seeds_with_a_complete_member} of {} seeds",
        SCENARIO_SEEDS.count()
    );
}

#[test]
fn distance_loss_favours_topological_placement() {
    // multihop radio: per-hop loss makes far links unreliable. The
    // topologically-aware hash keeps early phases local (§6.1), so its
    // messages cross fewer hops than the fair hash's on the same field,
    // at every seed. Completeness is a coin flip between the two at
    // this loss (either wins about half the seeds, and their means lie
    // 1e-4 apart), so topo's mean need only stay within
    // `COMPLETENESS_SLACK` of fair's.
    const COMPLETENESS_SLACK: f64 = 1e-3;
    let n = 256;
    let h = Hierarchy::for_group(4, n).unwrap();
    let truth = (n as f64 - 1.0) / 2.0;
    let (mut fair_sum, mut topo_sum) = (0.0, 0.0);
    for seed in SCENARIO_SEEDS {
        let field = make_field(FieldKind::UniformRandom, n, &mut DetRng::seeded(seed));
        let group = GroupBuilder::new(n)
            .votes(VoteDistribution::Index)
            .seed(seed)
            .build();
        let run = |topo: bool| {
            let index = if topo {
                ScopeIndex::build(&View::complete(n), &TopologicalPlacement::new(h, &field))
            } else {
                ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, seed))
            };
            let protocols: Vec<HierGossip<Average>> = group
                .members()
                .iter()
                .map(|m| HierGossip::new(m.id, m.vote, index.clone(), HierGossipConfig::default()))
                .collect();
            let loss = DistanceLoss::new(field.clone(), 0.25, 0.15).unwrap();
            let net = SimNetwork::new(
                NetworkConfig::default()
                    .with_loss(loss)
                    .with_positions(field.clone()),
                seed,
            );
            let failure = gridagg::group::failure::FailureProcess::new(FailureModel::None, n, seed);
            run_with(protocols, net, failure, seed, truth)
        };
        let (fair, topo) = (run(false), run(true));
        let hops = |r: &RunReport| r.net.total_hops as f64 / r.net.sent as f64;
        assert!(
            hops(&topo) < hops(&fair),
            "seed {seed}: topo sends {:.3} hops per message, fair {:.3}",
            hops(&topo),
            hops(&fair)
        );
        fair_sum += fair.mean_completeness().unwrap();
        topo_sum += topo.mean_completeness().unwrap();
    }
    let seeds = SCENARIO_SEEDS.count() as f64;
    let (fair, topo) = (fair_sum / seeds, topo_sum / seeds);
    assert!(
        topo >= fair - COMPLETENESS_SLACK,
        "topo's mean completeness {topo:.5} fell more than {COMPLETENESS_SLACK} below fair's {fair:.5}"
    );
}

#[test]
fn geometric_delay_jitter_tolerated() {
    let n = 100;
    let seed = 9;
    let (protocols, _, truth) = build_protocols(n, seed, 4);
    let net = SimNetwork::new(
        NetworkConfig::default().with_delay(GeometricDelay::new(0.4, 4)),
        seed,
    );
    let failure = gridagg::group::failure::FailureProcess::new(FailureModel::None, n, seed);
    let report = run_with(protocols, net, failure, seed, truth);
    assert!(
        report.mean_completeness().unwrap() > 0.85,
        "jitter should only dent completeness: {:?}",
        report.mean_completeness()
    );
}

#[test]
fn max_delay_config_runs_through_runner() {
    let mut cfg = ExperimentConfig::paper_defaults();
    cfg.max_delay = Some(3);
    let report = run_hiergossip::<Average>(&cfg, 5);
    assert!(report.mean_completeness().unwrap() > 0.8);
    // and validation rejects zero
    cfg.max_delay = Some(0);
    assert!(cfg.validate().is_err());
}
