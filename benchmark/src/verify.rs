//! Output checks: every member outcome against the paper's guarantees.
//!
//! An *operation* is one member's outcome in one rep. It is attempted
//! if the member was alive at the end (a crashed member owes nothing)
//! and fails if the member has no estimate, or has one that breaks a
//! guarantee: completeness outside `[0, 1]`, a value outside the hull
//! of the votes it could have been computed from, or a fully complete
//! average that is not the true average.

use gridagg_aggregate::{Aggregate, Average};
use gridagg_core::config::{ExperimentConfig, VoteSpec};
use gridagg_core::continuous::ChurnEpochReport;
use gridagg_core::{MemberOutcome, RunReport};

use crate::report::Ops;

/// Relative tolerance when comparing a complete average to the truth:
/// the protocol sums in a different order than the ground truth does.
const TRUTH_TOLERANCE: f64 = 1e-9;

/// The interval every vote lies in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hull {
    /// Smallest possible vote.
    pub lo: f64,
    /// Largest possible vote.
    pub hi: f64,
}

impl Hull {
    /// The hull of the votes a config draws, if it is bounded.
    pub fn of(cfg: &ExperimentConfig) -> Hull {
        match cfg.vote {
            VoteSpec::Uniform { lo, hi } => Hull { lo, hi },
            VoteSpec::Index => Hull {
                lo: 0.0,
                hi: cfg.n as f64,
            },
            VoteSpec::Gaussian { .. } => Hull {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
            },
        }
    }

    /// This hull widened by `by` on both sides.
    pub fn widened(self, by: f64) -> Hull {
        Hull {
            lo: self.lo - by,
            hi: self.hi + by,
        }
    }

    fn contains(&self, value: f64) -> bool {
        let slack = TRUTH_TOLERANCE * self.lo.abs().max(self.hi.abs()).max(1.0);
        value >= self.lo - slack && value <= self.hi + slack
    }
}

/// Whether one estimate keeps the guarantees. `truth` is the value a
/// fully complete estimate must equal — `None` for a protocol whose
/// estimate only converges towards it (Flow-Updating).
pub fn estimate_is_valid(completeness: f64, value: f64, truth: Option<f64>, hull: Hull) -> bool {
    if !(0.0..=1.0).contains(&completeness) || !hull.contains(value) {
        return false;
    }
    match truth {
        Some(truth) if completeness >= 1.0 => {
            (value - truth).abs() <= TRUTH_TOLERANCE * truth.abs().max(1.0)
        }
        _ => true,
    }
}

/// Tally the member outcomes of one simulated run.
pub fn check_report(report: &RunReport, hull: Hull) -> Ops {
    let mut ops = Ops::default();
    for outcome in &report.outcomes {
        match *outcome {
            MemberOutcome::Crashed => {}
            MemberOutcome::TimedOut => {
                ops.attempted += 1;
                ops.failed += 1;
            }
            MemberOutcome::Completed {
                completeness,
                value,
                ..
            } => {
                ops.attempted += 1;
                if !estimate_is_valid(completeness, value, Some(report.true_value), hull) {
                    ops.failed += 1;
                }
            }
        }
    }
    ops
}

/// Tally the outcomes of a socket-cluster run: `(completeness, value)`
/// per member, `None` for a member that never reported.
pub fn check_cluster(
    estimates: impl Iterator<Item = Option<(f64, f64)>>,
    truth: f64,
    hull: Hull,
) -> Ops {
    let mut ops = Ops::default();
    for estimate in estimates {
        ops.attempted += 1;
        let valid = estimate.is_some_and(|(completeness, value)| {
            estimate_is_valid(completeness, value, Some(truth), hull)
        });
        if !valid {
            ops.failed += 1;
        }
    }
    ops
}

/// Tally one epoch of a continuous run. The epoch report carries only
/// the publishing members' mean completeness and median estimate, so
/// an epoch passes or fails as a whole: each of its publishing members
/// is one attempted operation, and all of them fail if the published
/// pair breaks a guarantee. `exact` says whether the protocol computes
/// the average exactly once every vote is in.
pub fn check_epoch(epoch: &ChurnEpochReport, exact: bool, hull: Hull) -> Ops {
    let published = epoch.published as u64;
    let truth = exact.then_some(epoch.true_value);
    let valid = estimate_is_valid(epoch.completeness, epoch.estimate, truth, hull);
    Ops {
        attempted: published,
        failed: if valid { 0 } else { published },
    }
}

/// The true average of `votes`.
pub fn true_average(votes: &[f64]) -> f64 {
    let mut acc = Average::from_vote(votes[0]);
    for &v in &votes[1..] {
        acc.merge(&Average::from_vote(v));
    }
    acc.summary()
}
