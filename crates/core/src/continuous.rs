//! Continuous aggregation under churn — the repo's one epoch service.
//!
//! The paper's protocol is one-shot over a fixed group with
//! crash-without-recovery failures (§7). Its §2 extension ("periodically
//! calculate the global aggregate") is a sequence of epochs, and a
//! production deployment of it faces *churn*: members join, leave,
//! crash, and recover between epochs. [`run_continuous`] drives both:
//! with [`ChurnModel::none`] and `recovery = 0` it is exactly the
//! paper's periodic mode — crashed members stay crashed, the hierarchy
//! is re-derived over the survivors each epoch, and a group that dies
//! out is surfaced as [`PeriodicTermination::GroupCollapsed`]. In full:
//!
//! 1. A [`MembershipProcess`] evolves the group between epochs —
//!    joins append fresh member ids, leaves/crashes take members down,
//!    recoveries bring crashed members back.
//! 2. Votes evolve per epoch via the periodic [`VoteProcess`], and
//!    newly joined members draw fresh votes from the experiment's vote
//!    distribution.
//! 3. Each epoch runs one aggregation over the members that are up at
//!    epoch start, under a *within-epoch* failure model that may
//!    include recovery ([`MembershipProcess::within_epoch_model`] maps
//!    `(pf, pr)` to [`FailureModel::PerRoundWithRecovery`] when both
//!    are positive — the first runner to reach that model).
//! 4. Between epochs the view heals: the hierarchy (or overlay) is
//!    re-derived over the *current* up-membership, so recovered and
//!    newly joined members re-enter placement.
//!
//! Two protocol drivers are supported:
//!
//! * [`ContinuousProtocol::HierGossipRestart`] — the paper's answer to
//!   churn: restart a one-shot Hierarchical Gossiping run per epoch
//!   over the current membership (densely reindexed).
//! * [`ContinuousProtocol::FlowUpdating`] — the mass-conserving
//!   baseline ([`crate::baselines::flowupdate`]): protocol state
//!   *persists across epochs*; churn is absorbed by overlay healing
//!   (a re-arm drops the flows to departed neighbours) rather than by
//!   restart.
//!
//! Every epoch publishes a [`ChurnEpochReport`] carrying a
//! **completeness score**: the mean, over members that published an
//! estimate, of the fraction of the epoch's true membership whose votes
//! reached that estimate. Both drivers are scored against the same
//! membership, so the hiergossip-vs-Flow-Updating comparison in
//! `gridagg-bench` is apples-to-apples.

use gridagg_aggregate::{Aggregate, Average};
use gridagg_group::failure::{FailureModel, FailureProcess};
use gridagg_group::membership::{ChurnModel, MembershipEvent, MembershipProcess};
use gridagg_group::view::View;
use gridagg_group::{MemberId, VoteDistribution};
use gridagg_hierarchy::{FairHashPlacement, Hierarchy};
use gridagg_simnet::network::SimNetwork;
use gridagg_simnet::rng::DetRng;

use crate::baselines::{ring_chord_neighbors, FlowUpdating, FlowUpdatingConfig};
use crate::config::ExperimentConfig;
use crate::engine::Simulation;
use crate::hiergossip::HierGossip;
use crate::metrics::MemberOutcome;
use crate::periodic::{DensePlacement, PeriodicTermination, VoteProcess};
use crate::protocol::AggregationProtocol;
use crate::scope::ScopeIndex;

/// Which protocol drives the continuous service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContinuousProtocol {
    /// Restart a one-shot Hierarchical Gossiping run each epoch over
    /// the current up-membership.
    HierGossipRestart,
    /// Run the persistent Flow-Updating averaging protocol, re-armed
    /// (vote + healed overlay) each epoch.
    FlowUpdating,
}

/// Options of a continuous run, on top of an [`ExperimentConfig`]
/// (which supplies `n`, `k`, the network, within-epoch `pf`, and the
/// vote distribution).
#[derive(Debug, Clone, Copy)]
pub struct ContinuousOptions {
    /// The protocol driver.
    pub protocol: ContinuousProtocol,
    /// Number of epochs to run.
    pub epochs: usize,
    /// Churn applied between epochs.
    pub churn: ChurnModel,
    /// How surviving members' votes evolve between epochs.
    pub votes: VoteProcess,
    /// Within-epoch per-round recovery probability (`pr`). With the
    /// hiergossip driver, `pf > 0` and `pr > 0` select
    /// [`FailureModel::PerRoundWithRecovery`]; `pr = 0` keeps the
    /// paper's crash-without-recovery model.
    pub recovery: f64,
    /// Flow-Updating parameters (ignored by the hiergossip driver).
    pub fu: FlowUpdatingConfig,
}

impl ContinuousOptions {
    /// Defaults: hiergossip restart, 8 epochs, no churn, fixed votes,
    /// no within-epoch recovery.
    pub fn new(protocol: ContinuousProtocol) -> Self {
        ContinuousOptions {
            protocol,
            epochs: 8,
            churn: ChurnModel::none(),
            votes: VoteProcess::Fixed,
            recovery: 0.0,
            fu: FlowUpdatingConfig::default(),
        }
    }
}

/// One epoch's published result in a continuous run.
#[derive(Debug, Clone)]
pub struct ChurnEpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Ids ever created by the membership process at epoch start.
    pub population: usize,
    /// Members up at epoch start — the epoch's true membership.
    pub up: usize,
    /// Members that joined in the churn step before this epoch.
    pub joins: usize,
    /// Members that left in the churn step before this epoch.
    pub leaves: usize,
    /// Members that crashed in the churn step before this epoch.
    pub crashes: usize,
    /// Members that recovered in the churn step before this epoch.
    pub recoveries: usize,
    /// True average over the up members' votes.
    pub true_value: f64,
    /// Median published estimate (`NaN` if nobody published).
    pub estimate: f64,
    /// Completeness score: mean over publishing members of the
    /// fraction of the true membership whose votes reached their
    /// estimate (0.0 if nobody published).
    pub completeness: f64,
    /// Members that published an estimate this epoch.
    pub published: usize,
    /// Gossip rounds the epoch ran.
    pub rounds: u64,
    /// Messages submitted to the network this epoch.
    pub messages: u64,
}

impl ChurnEpochReport {
    /// Absolute tracking error of the median estimate.
    pub fn tracking_error(&self) -> f64 {
        (self.estimate - self.true_value).abs()
    }
}

/// The outcome of a continuous run.
#[derive(Debug, Clone)]
pub struct ContinuousOutcome {
    /// One report per epoch that ran.
    pub epochs: Vec<ChurnEpochReport>,
    /// Why the run stopped (shares the periodic-mode marker).
    pub termination: PeriodicTermination,
}

impl ContinuousOutcome {
    /// Whether the group collapsed before the requested epoch count.
    pub fn collapsed(&self) -> bool {
        matches!(self.termination, PeriodicTermination::GroupCollapsed { .. })
    }
}

/// Run the continuous aggregation service (averaging) for
/// `opts.epochs` epochs under churn.
///
/// Deterministic: the outcome is a pure function of
/// `(cfg, opts, seed)`.
///
/// # Panics
///
/// Panics if `cfg` fails validation, `opts.epochs == 0`, or the churn
/// model fails [`ChurnModel::validate`].
pub fn run_continuous(
    cfg: &ExperimentConfig,
    opts: &ContinuousOptions,
    seed: u64,
) -> ContinuousOutcome {
    cfg.validate().expect("invalid experiment config");
    assert!(opts.epochs > 0, "need at least one epoch");

    let mut membership = MembershipProcess::new(cfg.n, opts.churn, seed);
    let mut vote_rng = DetRng::seeded(seed).fork(0x636F_6E74); // "cont"
    let dist: VoteDistribution = cfg.vote.into();
    let mut votes: Vec<f64> = crate::runner::build_group_for(cfg, seed).votes();

    // Flow-Updating instances persist across epochs, one per id ever
    // created; hiergossip builds fresh dense instances per epoch.
    let mut fu_protocols: Vec<FlowUpdating> = Vec::new();

    let mut epochs = Vec::with_capacity(opts.epochs);
    let mut termination = PeriodicTermination::Completed;

    for epoch in 0..opts.epochs {
        // 1. churn + vote evolution between epochs
        let (mut joins, mut leaves, mut crashes, mut recoveries) = (0, 0, 0, 0);
        if epoch > 0 {
            for ev in membership.epoch_step() {
                match ev {
                    MembershipEvent::Joined(_) => joins += 1,
                    MembershipEvent::Left(_) => leaves += 1,
                    MembershipEvent::Crashed(_) => crashes += 1,
                    MembershipEvent::Recovered(_) => recoveries += 1,
                }
            }
            for v in votes.iter_mut() {
                *v = opts.votes.step(*v, &mut vote_rng);
            }
            // joiners draw fresh votes from the experiment distribution
            while votes.len() < membership.population() {
                let vote = dist.sample(votes.len(), &mut vote_rng);
                votes.push(vote);
            }
        }

        let up = membership.up_members();
        if up.len() < 2 {
            termination = PeriodicTermination::GroupCollapsed {
                epoch,
                survivors: up.len(),
            };
            break;
        }

        // 2. ground truth over the epoch's true membership
        let true_value = {
            let mut acc = Average::from_vote(votes[up[0].index()]);
            for &m in &up[1..] {
                acc.merge(&Average::from_vote(votes[m.index()]));
            }
            acc.summary()
        };

        let epoch_seed = seed.wrapping_add(0x1000 + epoch as u64);
        let mut report = EpochAccumulator::new(up.len());

        match opts.protocol {
            ContinuousProtocol::HierGossipRestart => {
                run_hier_epoch(
                    cfg,
                    opts,
                    &up,
                    &votes,
                    epoch,
                    seed,
                    epoch_seed,
                    &mut membership,
                    &mut report,
                );
            }
            ContinuousProtocol::FlowUpdating => {
                run_fu_epoch(
                    cfg,
                    opts,
                    &up,
                    &votes,
                    epoch_seed,
                    &mut membership,
                    &mut fu_protocols,
                    &mut report,
                );
            }
        }

        epochs.push(ChurnEpochReport {
            epoch,
            population: membership.population(),
            up: up.len(),
            joins,
            leaves,
            crashes,
            recoveries,
            true_value,
            estimate: report.median_estimate(),
            completeness: report.mean_completeness(),
            published: report.values.len(),
            rounds: report.rounds,
            messages: report.messages,
        });
    }

    ContinuousOutcome {
        epochs,
        termination,
    }
}

/// Per-epoch result accumulation shared by both drivers.
struct EpochAccumulator {
    /// Published estimates of completed members.
    values: Vec<f64>,
    /// Per-completed-member completeness against the true membership.
    completeness: Vec<f64>,
    /// Size of the epoch's true membership.
    up: usize,
    rounds: u64,
    messages: u64,
}

impl EpochAccumulator {
    fn new(up: usize) -> Self {
        EpochAccumulator {
            values: Vec::new(),
            completeness: Vec::new(),
            up,
            rounds: 0,
            messages: 0,
        }
    }

    fn publish(&mut self, value: f64, votes_in_membership: usize) {
        self.values.push(value);
        self.completeness
            .push(votes_in_membership as f64 / self.up as f64);
    }

    fn median_estimate(&mut self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.sort_by(f64::total_cmp);
        let mid = self.values.len() / 2;
        if self.values.len().is_multiple_of(2) {
            (self.values[mid - 1] + self.values[mid]) / 2.0
        } else {
            self.values[mid]
        }
    }

    fn mean_completeness(&self) -> f64 {
        if self.completeness.is_empty() {
            return 0.0;
        }
        self.completeness.iter().sum::<f64>() / self.completeness.len() as f64
    }
}

/// One epoch of the restart driver: a dense one-shot hiergossip run
/// over the up-membership, with within-epoch crash (and optionally
/// recovery) injection.
#[allow(clippy::too_many_arguments)]
fn run_hier_epoch(
    cfg: &ExperimentConfig,
    opts: &ContinuousOptions,
    up: &[MemberId],
    votes: &[f64],
    epoch: usize,
    seed: u64,
    epoch_seed: u64,
    membership: &mut MembershipProcess,
    acc: &mut EpochAccumulator,
) {
    let hierarchy = Hierarchy::for_group(cfg.k, up.len().max(2)).expect("validated k");
    let placement = FairHashPlacement::new(hierarchy, seed ^ (epoch as u64) << 8);
    let dense_index = {
        let dense_view = View::complete(up.len());
        let dense_placement = DensePlacement {
            hierarchy,
            inner: placement,
            survivors: up.iter().map(|m| m.index()).collect(),
        };
        ScopeIndex::build(&dense_view, &dense_placement)
    };
    let protocols: Vec<HierGossip<Average>> = up
        .iter()
        .enumerate()
        .map(|(dense, &orig)| {
            HierGossip::new(
                MemberId(dense as u32),
                votes[orig.index()],
                dense_index.clone(),
                cfg.hier_config(),
            )
        })
        .collect();
    let net = SimNetwork::new(crate::runner::network_config_for(cfg, None), epoch_seed);
    let model = MembershipProcess::within_epoch_model(cfg.pf, opts.recovery);
    let failure = FailureProcess::new(model, up.len(), epoch_seed);
    let run = Simulation::new(
        net,
        protocols,
        failure,
        epoch_seed,
        0.0, // truth tracked by the caller
        cfg.max_rounds(),
    )
    .run();

    acc.rounds = run.rounds;
    acc.messages = run.net.sent;
    for (dense, outcome) in run.outcomes.iter().enumerate() {
        match outcome {
            MemberOutcome::Completed {
                completeness,
                value,
                ..
            } => {
                // dense vote bitsets cover only up members, so the
                // intersection with the true membership is exactly the
                // bitset size — recoverable from the dense completeness
                let votes_in = (completeness * up.len() as f64).round() as usize;
                acc.publish(*value, votes_in);
            }
            MemberOutcome::Crashed => membership.note_crash(up[dense]),
            MemberOutcome::TimedOut => {}
        }
    }
}

/// One epoch of the persistent Flow-Updating driver: re-arm surviving
/// instances over the healed ring-chord overlay, create instances for
/// joiners, run one epoch's round budget, and hand the instances back
/// for the next epoch.
#[allow(clippy::too_many_arguments)]
fn run_fu_epoch(
    cfg: &ExperimentConfig,
    opts: &ContinuousOptions,
    up: &[MemberId],
    votes: &[f64],
    epoch_seed: u64,
    membership: &mut MembershipProcess,
    protocols: &mut Vec<FlowUpdating>,
    acc: &mut EpochAccumulator,
) {
    // grow the instance vector to the current population; dead and
    // left members keep their (inert) instances, and a joiner is up, so
    // the re-arm below gives it its slot
    while protocols.len() < membership.population() {
        let id = MemberId(protocols.len() as u32);
        protocols.push(FlowUpdating::new(
            id,
            votes[id.index()],
            up.len(),
            Vec::new(),
            opts.fu,
        ));
    }
    // heal the overlay: up members get ring-chord neighbours over the
    // sorted up-membership, their current vote, and their slot in it
    for (slot, &m) in up.iter().enumerate() {
        let neighbors = ring_chord_neighbors(up, slot);
        protocols[m.index()].rearm(votes[m.index()], slot, up.len(), neighbors);
    }
    let net = SimNetwork::new(crate::runner::network_config_for(cfg, None), epoch_seed);
    // within-epoch crashes only; recoveries happen between epochs via
    // the churn model (a mid-epoch rejoin over the persistent overlay
    // would silently resurrect stale flows)
    let model = if cfg.pf > 0.0 {
        FailureModel::PerRound { pf: cfg.pf }
    } else {
        FailureModel::None
    };
    let failure = FailureProcess::with_liveness(model, membership.up_mask(), epoch_seed);
    let moved = std::mem::take(protocols);
    let (run, returned) = Simulation::new(
        net,
        moved,
        failure,
        epoch_seed,
        0.0,
        u64::from(opts.fu.rounds_per_epoch) + 2,
    )
    .run_returning();
    *protocols = returned;

    acc.rounds = run.rounds;
    acc.messages = run.net.sent;
    // Influence sets hold slots, and so does the mask: every slot of the
    // epoch (no set is wider), less each crash the loop has noted so
    // far. Slots run in id order, so these are the members
    // `membership.is_up` answers for as the loop goes.
    let mut up_slots = vec![u64::MAX; up.len().div_ceil(64)];
    for (slot, &id) in up.iter().enumerate() {
        match &run.outcomes[id.index()] {
            MemberOutcome::Completed { value, .. } => {
                // a counted contributor set (scale runs) has no identity
                // to filter by, so fall back to the raw contributor count
                let votes_in = protocols[id.index()].estimate().map_or(0, |est| {
                    est.votes()
                        .count_in(&up_slots)
                        .unwrap_or_else(|| est.vote_count())
                });
                acc.publish(*value, votes_in);
            }
            MemberOutcome::Crashed => {
                membership.note_crash(id);
                up_slots[slot / 64] &= !(1 << (slot % 64));
            }
            MemberOutcome::TimedOut => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(n: usize) -> ExperimentConfig {
        let mut c = ExperimentConfig::paper_defaults()
            .with_n(n)
            .with_ucastl(0.05);
        c.pf = 0.0;
        c
    }

    #[test]
    fn no_churn_hier_is_the_periodic_mode() {
        // fixed votes keep the truth fixed, a drift moves it up ~rate per
        // epoch and the estimate follows, a random walk moves it at all
        let drift = VoteProcess::Drift {
            rate: 2.0,
            noise: 0.1,
        };
        let walk = VoteProcess::RandomWalk { sigma: 5.0 };
        for (votes, max_err) in [
            (VoteProcess::Fixed, 1.0),
            (drift, 2.0),
            (walk, f64::INFINITY),
        ] {
            let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
            opts.epochs = 5;
            opts.votes = votes;
            let out = run_continuous(&base(64), &opts, 5);
            assert_eq!(out.termination, PeriodicTermination::Completed);
            assert_eq!(out.epochs.len(), 5);
            for e in &out.epochs {
                assert_eq!(e.up, 64);
                assert!(
                    e.completeness > 0.9,
                    "{votes:?} epoch {} cpl {}",
                    e.epoch,
                    e.completeness
                );
                let err = e.tracking_error();
                assert!(err < max_err, "{votes:?} epoch {} err {err}", e.epoch);
            }
            let truths: Vec<f64> = out.epochs.iter().map(|e| e.true_value).collect();
            let moved = |by: f64| truths.windows(2).filter(|w| w[1] - w[0] > by).count();
            match votes {
                VoteProcess::Fixed => assert!(truths.iter().all(|&t| t == truths[0])),
                VoteProcess::Drift { .. } => assert_eq!(moved(1.0), 4, "{truths:?}"),
                VoteProcess::RandomWalk { .. } => {
                    assert!(truths.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9));
                }
            }
        }
    }

    #[test]
    fn no_churn_crashes_are_permanent_until_the_group_collapses() {
        // the paper's periodic mode: with no churn and no within-epoch
        // recovery, nobody ever comes back, so the up-population only
        // shrinks — and a group that dies out says so instead of
        // silently returning fewer epochs than requested
        for (n, pf, epochs, seed, collapses) in [(128, 0.01, 4, 11, false), (16, 0.35, 12, 7, true)]
        {
            let mut cfg = base(n);
            cfg.pf = pf;
            let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
            opts.epochs = epochs;
            let out = run_continuous(&cfg, &opts, seed);
            let ups: Vec<usize> = out.epochs.iter().map(|e| e.up).collect();
            assert!(out.epochs.iter().all(|e| e.recoveries == 0 && e.joins == 0));
            assert!(ups.windows(2).all(|w| w[1] <= w[0]), "{ups:?}");
            assert_eq!(out.collapsed(), collapses);
            match out.termination {
                PeriodicTermination::GroupCollapsed { epoch, survivors } => {
                    assert!(out.epochs.len() < epochs, "group should have collapsed");
                    assert_eq!(epoch, out.epochs.len(), "collapse at first unrun epoch");
                    assert!(survivors < 2);
                }
                PeriodicTermination::Completed => {
                    assert_eq!(out.epochs.len(), epochs);
                    assert!(ups[epochs - 1] < ups[0], "pf={pf} must crash someone");
                }
            }
        }
    }

    #[test]
    fn even_count_median_averages_middle_pair() {
        // median of {1, 3, 5, 7} is 4, not the upper-middle 5; odd
        // counts return the middle element
        for (values, median) in [
            (&[5.0, 1.0, 7.0, 3.0][..], 4.0),
            (&[5.0, 1.0, 7.0][..], 5.0),
        ] {
            let mut acc = EpochAccumulator::new(values.len());
            for &v in values {
                acc.publish(v, values.len());
            }
            assert_eq!(acc.median_estimate(), median);
        }
        assert!(EpochAccumulator::new(4).median_estimate().is_nan());
    }

    #[test]
    fn joins_grow_the_population() {
        let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
        opts.epochs = 6;
        opts.churn = ChurnModel {
            join_rate: 3.0,
            ..ChurnModel::none()
        };
        let out = run_continuous(&base(32), &opts, 3);
        let first = out.epochs.first().unwrap();
        let last = out.epochs.last().unwrap();
        assert!(last.population > first.population);
        assert!(last.up > first.up, "joined members must re-enter the view");
        assert!(out.epochs.iter().skip(1).any(|e| e.joins > 0));
    }

    #[test]
    fn flow_updating_survives_churn_and_tracks() {
        let mut opts = ContinuousOptions::new(ContinuousProtocol::FlowUpdating);
        opts.epochs = 8;
        opts.churn = ChurnModel {
            join_rate: 0.5,
            leave_prob: 0.01,
            crash_prob: 0.02,
            recover_prob: 0.5,
        };
        let out = run_continuous(&base(48), &opts, 11);
        assert_eq!(out.epochs.len(), 8);
        for e in &out.epochs {
            assert!(e.published > 0, "epoch {} published nothing", e.epoch);
            assert!(e.completeness > 0.0);
        }
        // mass conservation keeps the persistent estimate near the
        // truth once the overlay has mixed for a few epochs
        let late = &out.epochs[out.epochs.len() - 1];
        assert!(
            late.tracking_error() < 10.0,
            "late error {}",
            late.tracking_error()
        );
    }

    #[test]
    fn recovered_members_reenter_the_hierarchy() {
        // crash-heavy churn with certain recovery: up-count dips and
        // rebounds, which only happens if recovered members re-enter
        let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
        opts.epochs = 10;
        opts.churn = ChurnModel {
            join_rate: 0.0,
            leave_prob: 0.0,
            crash_prob: 0.25,
            recover_prob: 1.0,
        };
        let out = run_continuous(&base(32), &opts, 21);
        assert_eq!(out.epochs.len(), 10);
        let recoveries: usize = out.epochs.iter().map(|e| e.recoveries).sum();
        assert!(recoveries > 0, "someone must have recovered");
        // every crash recovers one epoch later, so membership never
        // drains and every epoch publishes
        for e in &out.epochs {
            assert!(e.published > 0);
        }
    }

    #[test]
    fn per_round_with_recovery_reachable_end_to_end() {
        // pf > 0 with recovery > 0 drives PerRoundWithRecovery through
        // the full runner stack (the baseline runners map pf > 0 to
        // PerRound only)
        let mut cfg = base(48);
        cfg.pf = 0.01;
        let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
        opts.epochs = 4;
        opts.recovery = 0.5;
        let with_recovery = run_continuous(&cfg, &opts, 13);
        assert_eq!(with_recovery.epochs.len(), 4);

        // same scenario without recovery loses strictly more members
        let mut opts_no = opts;
        opts_no.recovery = 0.0;
        let without = run_continuous(&cfg, &opts_no, 13);
        let up_with: usize = with_recovery.epochs.iter().map(|e| e.up).sum();
        let up_without: usize = without.epochs.iter().map(|e| e.up).sum();
        assert!(
            up_with >= up_without,
            "recovery must not shrink membership: {up_with} vs {up_without}"
        );
        let published: usize = with_recovery.epochs.iter().map(|e| e.published).sum();
        assert!(published > 0);
    }

    #[test]
    fn collapse_is_surfaced() {
        let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
        opts.epochs = 20;
        opts.churn = ChurnModel {
            join_rate: 0.0,
            leave_prob: 0.4,
            crash_prob: 0.3,
            recover_prob: 0.0,
        };
        let out = run_continuous(&base(16), &opts, 3);
        assert!(out.collapsed(), "group should have drained");
        assert!(out.epochs.len() < 20);
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn zero_epochs_rejected() {
        let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
        opts.epochs = 0;
        let _ = run_continuous(&base(16), &opts, 1);
    }

    #[test]
    fn fu_epoch_restarts_do_not_amplify_extremes() {
        // Regression guard for the dual-writer flow oscillation: with the
        // broadcast averaging variant, every epoch re-arm pumped a
        // mass-conserving oscillation whose *median* stayed perfect while
        // the extreme members diverged without bound (~×1.6 per epoch on a
        // lossless network). Pin the maximum member error and the global
        // mass imbalance, not just the published median.
        use crate::runner::network_config_for;
        let n = 96usize;
        let cfg = {
            let mut c = ExperimentConfig::paper_defaults()
                .with_n(n)
                .with_ucastl(0.0);
            c.pf = 0.0;
            c
        };
        let fu = FlowUpdatingConfig::default();
        let up: Vec<MemberId> = (0..n as u32).map(MemberId).collect();
        let votes: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let truth = (n - 1) as f64 / 2.0;
        let mut protocols: Vec<FlowUpdating> = (0..n)
            .map(|i| FlowUpdating::new(MemberId(i as u32), votes[i], n, Vec::new(), fu))
            .collect();
        let mut last_maxerr = f64::INFINITY;
        for epoch in 0..12u64 {
            for (idx, &m) in up.iter().enumerate() {
                protocols[m.index()].rearm(
                    votes[m.index()],
                    idx,
                    n,
                    ring_chord_neighbors(&up, idx),
                );
            }
            let epoch_seed = 5u64.wrapping_add(0x1000 + epoch);
            let net = SimNetwork::new(network_config_for(&cfg, None), epoch_seed);
            let failure =
                FailureProcess::with_liveness(FailureModel::None, vec![true; n], epoch_seed);
            let moved = std::mem::take(&mut protocols);
            let (_run, returned) = Simulation::new(
                net,
                moved,
                failure,
                epoch_seed,
                0.0,
                u64::from(fu.rounds_per_epoch) + 2,
            )
            .run_returning();
            protocols = returned;
            last_maxerr = protocols
                .iter()
                .map(|p| (p.local_estimate() - truth).abs())
                .fold(0.0f64, f64::max);
            let mass: f64 = protocols.iter().map(FlowUpdating::local_estimate).sum();
            let imbalance = (mass - votes.iter().sum::<f64>()).abs();
            assert!(
                last_maxerr < 50.0,
                "epoch {epoch}: max member error {last_maxerr} amplified past the initial spread"
            );
            // the freeze-point snapshot carries in-flight pairwise
            // corrections, so early epochs show a bounded transient
            // imbalance; it must never amplify
            assert!(
                imbalance < 15.0,
                "epoch {epoch}: mass imbalance {imbalance}"
            );
            if epoch >= 6 {
                assert!(
                    imbalance < 0.01,
                    "epoch {epoch}: mass imbalance {imbalance} failed to decay"
                );
            }
        }
        assert!(
            last_maxerr < 0.01,
            "extremes must converge across epochs, still at {last_maxerr}"
        );
    }
}
