//! The fully distributed solution (§4).
//!
//! "A naive solution … is to have each member send its vote to every
//! other group member and calculate the aggregate function based on the
//! votes it has received." With a per-member bandwidth constraint the
//! vote transmission is spread over `⌈(N−1)/per_round⌉` rounds, giving
//! the paper's `O(N)` time and `O(N²)` message complexity; completeness
//! is "only as good as the network message loss rate".

use gridagg_aggregate::{Aggregate, Tagged};
use gridagg_group::MemberId;
use gridagg_simnet::Round;

use crate::message::Payload;
use crate::protocol::{AggregationProtocol, Ctx, Outbox};
use crate::trace::TraceEvent;

/// Parameters of the flood baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodConfig {
    /// Votes sent per round (the per-member bandwidth constraint).
    pub per_round: u32,
    /// Extra rounds to wait for stragglers after the last send.
    pub grace: u32,
}

impl Default for FloodConfig {
    fn default() -> Self {
        FloodConfig {
            per_round: 8,
            grace: 2,
        }
    }
}

/// One member's flood instance.
#[derive(Debug)]
pub struct Flood<A> {
    me: MemberId,
    n: usize,
    vote: f64,
    cfg: FloodConfig,
    next_target: u32,
    grace_left: u32,
    acc: Tagged<A>,
    done_at: Option<Round>,
    estimate: Option<Tagged<A>>,
}

impl<A: Aggregate> Flood<A> {
    /// Create the instance for member `me` of a group of `n`.
    pub fn new(me: MemberId, vote: f64, n: usize, cfg: FloodConfig) -> Self {
        Flood {
            me,
            n,
            vote,
            cfg: FloodConfig {
                per_round: cfg.per_round.max(1),
                grace: cfg.grace,
            },
            next_target: 0,
            grace_left: cfg.grace,
            acc: Tagged::from_vote(me.index(), vote, n),
            done_at: None,
            estimate: None,
        }
    }
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::wildcard_enum_match_arm
)]
impl<A: Aggregate> AggregationProtocol<A> for Flood<A> {
    fn on_round(&mut self, ctx: &mut Ctx<'_>, out: &mut Outbox<A>) {
        if self.done_at.is_some() {
            return;
        }
        if (self.next_target as usize) < self.n {
            let mut sent = 0;
            while sent < self.cfg.per_round && (self.next_target as usize) < self.n {
                let target = MemberId(self.next_target);
                self.next_target += 1;
                if target == self.me {
                    continue;
                }
                out.send(
                    target,
                    Payload::Vote {
                        member: self.me,
                        value: self.vote,
                    },
                );
                sent += 1;
            }
            return;
        }
        if self.grace_left > 0 {
            self.grace_left -= 1;
            return;
        }
        self.estimate = Some(self.acc.clone());
        self.done_at = Some(ctx.round);
    }

    fn on_message(
        &mut self,
        _from: MemberId,
        payload: Payload<A>,
        ctx: &mut Ctx<'_>,
        _out: &mut Outbox<A>,
    ) {
        if self.done_at.is_some() {
            return;
        }
        match payload {
            Payload::Vote { member, value } => {
                // each member floods its own vote exactly once, but be
                // robust to duplicates anyway
                if self.acc.try_add_vote(member.index(), value).is_ok() {
                    let me = self.me;
                    let round = ctx.round;
                    let votes = self.acc.vote_count() as u64;
                    ctx.emit(|| TraceEvent::Coverage {
                        member: me,
                        round,
                        votes,
                    });
                }
            }
            // Flood gossips single votes only; every other wire shape
            // is explicitly ignored so a new Payload variant is a
            // compile-time decision here, not a silent drop.
            Payload::Agg { .. }
            | Payload::Final { .. }
            | Payload::VoteBatch { .. }
            | Payload::AggBatch { .. }
            | Payload::Flow { .. } => {}
        }
    }

    fn estimate(&self) -> Option<&Tagged<A>> {
        self.estimate.as_ref()
    }

    fn is_done(&self) -> bool {
        self.done_at.is_some()
    }

    fn completed_at(&self) -> Option<Round> {
        self.done_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridagg_aggregate::Average;
    use gridagg_simnet::rng::DetRng;

    fn step<A: Aggregate>(p: &mut Flood<A>, round: Round, out: &mut Outbox<A>) {
        let mut rng = DetRng::seeded(0);
        let mut ctx = Ctx::new(round, &mut rng);
        p.on_round(&mut ctx, out);
    }

    #[test]
    fn sends_vote_to_all_others_respecting_bandwidth() {
        let mut p: Flood<Average> = Flood::new(
            MemberId(2),
            7.0,
            10,
            FloodConfig {
                per_round: 4,
                grace: 1,
            },
        );
        let mut out = Outbox::new();
        let mut targets = Vec::new();
        for r in 0..3 {
            step(&mut p, r, &mut out);
            let batch: Vec<_> = out.drain().collect();
            assert!(batch.len() <= 4);
            targets.extend(batch.iter().map(|(to, _)| *to));
        }
        assert_eq!(targets.len(), 9);
        assert!(!targets.contains(&MemberId(2)));
    }

    #[test]
    fn completes_after_grace() {
        let mut p: Flood<Average> = Flood::new(MemberId(0), 1.0, 4, FloodConfig::default());
        let mut out = Outbox::new();
        let mut round = 0;
        while !p.is_done() {
            step(&mut p, round, &mut out);
            out.drain().for_each(drop);
            round += 1;
            assert!(round < 100);
        }
        // nothing received → estimate is own vote only
        assert_eq!(p.estimate().unwrap().vote_count(), 1);
    }

    #[test]
    fn merges_received_votes_and_ignores_duplicates() {
        let mut p: Flood<Average> = Flood::new(MemberId(0), 0.0, 4, FloodConfig::default());
        let mut rng = DetRng::seeded(0);
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        let msg = Payload::Vote {
            member: MemberId(1),
            value: 4.0,
        };
        p.on_message(MemberId(1), msg.clone(), &mut ctx, &mut out);
        p.on_message(MemberId(1), msg, &mut ctx, &mut out);
        assert_eq!(p.acc.vote_count(), 2);
        assert_eq!(p.acc.aggregate().unwrap().summary(), 2.0);
    }
}
