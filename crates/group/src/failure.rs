//! Crash-failure injection.
//!
//! §7: "Members were prone to crashes (without recovery) in every gossip
//! round with probability `pf`." [`FailureModel::PerRound`] reproduces
//! exactly that; [`FailureModel::Scheduled`] supports targeted-failure
//! experiments (e.g. killing subtree leaders, §6.2), and
//! [`FailureModel::PerRoundWithRecovery`] the paper's model-level
//! "arbitrarily suffer crash failures and then recover".

use gridagg_simnet::rng::DetRng;
use gridagg_simnet::Round;

use crate::MemberId;

/// How members fail over the course of a run.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureModel {
    /// Nobody fails.
    None,
    /// Each alive member crashes with probability `pf` per round, never
    /// recovering (the paper's simulation model).
    PerRound {
        /// Per-round crash probability.
        pf: f64,
    },
    /// Each alive member crashes with probability `pf` per round; each
    /// crashed member recovers with probability `pr` per round. A
    /// recovered member rejoins with its state intact (crash-recovery
    /// with stable storage).
    PerRoundWithRecovery {
        /// Per-round crash probability.
        pf: f64,
        /// Per-round recovery probability.
        pr: f64,
    },
    /// Specific members crash at specific rounds.
    Scheduled {
        /// `(round, member)` crash events.
        crashes: Vec<(Round, MemberId)>,
    },
}

/// A change in a member's liveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessEvent {
    /// The member crashed this round.
    Crashed(MemberId),
    /// The member recovered this round.
    Recovered(MemberId),
}

/// The running failure process: tracks liveness and injects events.
///
/// ```
/// use gridagg_group::failure::{FailureModel, FailureProcess};
/// use gridagg_group::MemberId;
///
/// let mut process = FailureProcess::new(
///     FailureModel::Scheduled { crashes: vec![(2, MemberId(1))] },
///     4,
///     0,
/// );
/// assert!(process.step(0).is_empty());
/// assert!(process.step(1).is_empty());
/// assert_eq!(process.step(2).len(), 1);
/// assert!(!process.is_alive(MemberId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct FailureProcess {
    model: FailureModel,
    alive: Vec<bool>,
    rng: DetRng,
}

impl FailureProcess {
    /// Create the process for a group of `n` members, all initially
    /// alive. `seed` should be a fork of the run seed.
    pub fn new(model: FailureModel, n: usize, seed: u64) -> Self {
        Self::with_liveness(model, vec![true; n], seed)
    }

    /// Create the process with an explicit initial liveness table —
    /// members already down when the run starts (e.g. crashed in a
    /// previous epoch of the continuous aggregation service) stay down
    /// unless the model recovers them.
    pub fn with_liveness(model: FailureModel, alive: Vec<bool>, seed: u64) -> Self {
        FailureProcess {
            model,
            alive,
            rng: DetRng::seeded(seed).fork(0x6661_696C), // "fail"
        }
    }

    /// Whether `id` is currently alive.
    pub fn is_alive(&self, id: MemberId) -> bool {
        self.alive.get(id.index()).copied().unwrap_or(false)
    }

    /// Number of currently-alive members.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Liveness table indexed by member.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Advance one round, returning the liveness events that occurred.
    pub fn step(&mut self, round: Round) -> Vec<LivenessEvent> {
        let mut events = Vec::new();
        match &self.model {
            FailureModel::None => {}
            FailureModel::PerRound { pf } => {
                let pf = *pf;
                for i in 0..self.alive.len() {
                    if self.alive[i] && self.rng.chance(pf) {
                        self.alive[i] = false;
                        events.push(LivenessEvent::Crashed(MemberId(i as u32)));
                    }
                }
            }
            FailureModel::PerRoundWithRecovery { pf, pr } => {
                let (pf, pr) = (*pf, *pr);
                for i in 0..self.alive.len() {
                    if self.alive[i] {
                        if self.rng.chance(pf) {
                            self.alive[i] = false;
                            events.push(LivenessEvent::Crashed(MemberId(i as u32)));
                        }
                    } else if self.rng.chance(pr) {
                        self.alive[i] = true;
                        events.push(LivenessEvent::Recovered(MemberId(i as u32)));
                    }
                }
            }
            FailureModel::Scheduled { crashes } => {
                for &(r, m) in crashes {
                    if r == round && self.alive.get(m.index()).copied().unwrap_or(false) {
                        self.alive[m.index()] = false;
                        events.push(LivenessEvent::Crashed(m));
                    }
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fails() {
        let mut p = FailureProcess::new(FailureModel::None, 10, 1);
        for r in 0..100 {
            assert!(p.step(r).is_empty());
        }
        assert_eq!(p.alive_count(), 10);
    }

    #[test]
    fn per_round_rate_approximates_pf() {
        let n = 10_000;
        let mut p = FailureProcess::new(FailureModel::PerRound { pf: 0.01 }, n, 2);
        let events = p.step(0);
        let rate = events.len() as f64 / n as f64;
        assert!((rate - 0.01).abs() < 0.005, "rate {rate}");
        assert_eq!(p.alive_count(), n - events.len());
    }

    #[test]
    fn crashes_are_permanent_without_recovery() {
        let mut p = FailureProcess::new(FailureModel::PerRound { pf: 0.5 }, 100, 3);
        let mut dead = std::collections::BTreeSet::new();
        for r in 0..20 {
            for e in p.step(r) {
                match e {
                    LivenessEvent::Crashed(m) => {
                        assert!(dead.insert(m), "{m} crashed twice");
                    }
                    LivenessEvent::Recovered(_) => panic!("recovery without recovery model"),
                }
            }
        }
        assert_eq!(p.alive_count(), 100 - dead.len());
    }

    #[test]
    fn recovery_brings_members_back() {
        let mut p = FailureProcess::new(
            FailureModel::PerRoundWithRecovery { pf: 0.5, pr: 0.5 },
            200,
            4,
        );
        let mut recovered = 0;
        for r in 0..50 {
            for e in p.step(r) {
                if matches!(e, LivenessEvent::Recovered(_)) {
                    recovered += 1;
                }
            }
        }
        assert!(recovered > 0, "no member ever recovered");
    }

    #[test]
    fn scheduled_crashes_fire_once() {
        let m = MemberId(3);
        let mut p = FailureProcess::new(
            FailureModel::Scheduled {
                crashes: vec![(5, m), (5, m), (7, MemberId(1))],
            },
            10,
            5,
        );
        assert!(p.step(4).is_empty());
        let e5 = p.step(5);
        assert_eq!(e5, vec![LivenessEvent::Crashed(m)]);
        assert!(!p.is_alive(m));
        assert!(p.step(6).is_empty());
        assert_eq!(p.step(7), vec![LivenessEvent::Crashed(MemberId(1))]);
        assert_eq!(p.alive_count(), 8);
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let mut p = FailureProcess::new(FailureModel::PerRound { pf: 0.1 }, 100, seed);
            (0..10).map(|r| p.step(r).len()).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn out_of_range_member_not_alive() {
        let p = FailureProcess::new(FailureModel::None, 3, 1);
        assert!(!p.is_alive(MemberId(99)));
    }

    #[test]
    fn initial_liveness_respected() {
        let mut p = FailureProcess::with_liveness(
            FailureModel::PerRoundWithRecovery { pf: 0.0, pr: 1.0 },
            vec![true, false, true, false],
            9,
        );
        assert_eq!(p.alive_count(), 2);
        assert!(!p.is_alive(MemberId(1)));
        // the model can recover members that started the run down
        let events = p.step(0);
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|e| matches!(e, LivenessEvent::Recovered(_))));
        assert_eq!(p.alive_count(), 4);

        // without recovery, initially-down members stay down
        let mut q =
            FailureProcess::with_liveness(FailureModel::PerRound { pf: 0.0 }, vec![false, true], 9);
        for r in 0..10 {
            assert!(q.step(r).is_empty());
        }
        assert!(!q.is_alive(MemberId(0)));
    }
}
