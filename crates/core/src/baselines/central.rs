//! The centralized leader solution (§5).
//!
//! "Each group member send\[s\] its vote to a special member … denoted as
//! a leader …, which calculates the global function based on the votes
//! received, and then disseminates this information out to all the group
//! members."
//!
//! The two §5 pathologies are modelled explicitly:
//!
//! * **Message implosion** — the leader can process at most
//!   `inbound_cap` inbound votes per round; the rest are dropped.
//! * **Leader failure** — no failure detection, no re-election: if the
//!   leader crashes, members end the run with their own vote only
//!   (completeness `1/N`).

use std::sync::Arc;

use gridagg_aggregate::{Aggregate, Tagged};
use gridagg_group::MemberId;
use gridagg_simnet::Round;

use crate::message::Payload;
use crate::protocol::{AggregationProtocol, Ctx, Outbox};
use crate::trace::TraceEvent;

/// Parameters of the centralized baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CentralizedConfig {
    /// The well-known leader.
    pub leader: MemberId,
    /// Rounds each member keeps (re)sending its vote once its slot
    /// starts.
    pub send_rounds: u32,
    /// Slot spread: member `i` starts sending at round `i % stagger`,
    /// pacing the gather so the leader's inbound capacity is not
    /// swamped by synchronized senders (the protocol-level mitigation
    /// of §5's implosion; it stretches the gather to `O(N)` rounds,
    /// which is exactly the paper's time-complexity complaint).
    pub stagger: u32,
    /// Rounds the leader gathers before disseminating.
    pub gather_rounds: u32,
    /// Leader inbound processing capacity per round (implosion model);
    /// `None` = unbounded.
    pub inbound_cap: Option<u32>,
    /// `Final` messages the leader sends per round while disseminating
    /// (its outbound bandwidth constraint).
    pub disseminate_per_round: u32,
}

impl CentralizedConfig {
    /// Sensible defaults for a group of `n`: leader 0, two send rounds
    /// per member, slots paced so inbound traffic matches the leader's
    /// capacity, gather long enough to cover the last slot.
    pub fn for_group(n: usize) -> Self {
        let cap = 32u32;
        let send_rounds = 2u32;
        let stagger = ((n as u32) * send_rounds).div_ceil(cap).max(1);
        CentralizedConfig {
            leader: MemberId(0),
            send_rounds,
            stagger,
            gather_rounds: stagger + send_rounds + 2,
            inbound_cap: Some(cap),
            disseminate_per_round: 32,
        }
    }

    /// Total rounds after which members give up waiting for a `Final`.
    pub fn deadline(&self, n: usize) -> Round {
        self.gather_rounds as Round
            + (n as u32).div_ceil(self.disseminate_per_round.max(1)) as Round
            + 4
    }
}

/// One member's centralized-protocol instance.
#[derive(Debug)]
pub struct Centralized<A> {
    me: MemberId,
    n: usize,
    vote: f64,
    cfg: CentralizedConfig,
    acc: Tagged<A>,
    inbound_this_round: u32,
    inbound_round: Round,
    /// The computed result and the final estimate are `Arc`-shared: the
    /// leader fans the same `Final` out to every member, so each send is
    /// a reference-count bump rather than a `Tagged` clone.
    result: Option<Arc<Tagged<A>>>,
    next_target: u32,
    done_at: Option<Round>,
    estimate: Option<Arc<Tagged<A>>>,
}

impl<A: Aggregate> Centralized<A> {
    /// Create the instance for member `me` of a group of `n`.
    pub fn new(me: MemberId, vote: f64, n: usize, cfg: CentralizedConfig) -> Self {
        Centralized {
            me,
            n,
            vote,
            cfg,
            acc: Tagged::from_vote(me.index(), vote, n),
            inbound_this_round: 0,
            inbound_round: 0,
            result: None,
            next_target: 0,
            done_at: None,
            estimate: None,
        }
    }

    fn is_leader(&self) -> bool {
        self.me == self.cfg.leader
    }

    fn finish(&mut self, round: Round, estimate: Arc<Tagged<A>>) {
        self.estimate = Some(estimate);
        self.done_at = Some(round);
    }
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::wildcard_enum_match_arm
)]
impl<A: Aggregate> AggregationProtocol<A> for Centralized<A> {
    fn on_round(&mut self, ctx: &mut Ctx<'_>, out: &mut Outbox<A>) {
        if self.done_at.is_some() {
            return;
        }
        let round = ctx.round;
        if self.is_leader() {
            if round < self.cfg.gather_rounds as Round {
                return; // gathering
            }
            if self.result.is_none() {
                self.result = Some(Arc::new(self.acc.clone()));
            }
            // disseminate (clones below are Arc bumps, not deep copies);
            // the result was just materialized above, so the else arm is
            // unreachable — but handlers never panic
            let Some(result) = self.result.clone() else {
                return;
            };
            let mut sent = 0;
            while sent < self.cfg.disseminate_per_round && (self.next_target as usize) < self.n {
                let target = MemberId(self.next_target);
                self.next_target += 1;
                if target == self.me {
                    continue;
                }
                out.send(
                    target,
                    Payload::Final {
                        agg: result.clone(),
                    },
                );
                sent += 1;
            }
            if (self.next_target as usize) >= self.n {
                self.finish(round, result);
            }
        } else {
            let start = (self.me.0 % self.cfg.stagger.max(1)) as Round;
            if round >= start && round < start + self.cfg.send_rounds as Round {
                out.send(
                    self.cfg.leader,
                    Payload::Vote {
                        member: self.me,
                        value: self.vote,
                    },
                );
            }
            if round >= self.cfg.deadline(self.n) {
                // §5 failure mode: leader never answered
                let own = Tagged::from_vote(self.me.index(), self.vote, self.n);
                self.finish(round, Arc::new(own));
            }
        }
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
            Payload::Vote { member, value } if self.is_leader() => {
                if ctx.round != self.inbound_round {
                    self.inbound_round = ctx.round;
                    self.inbound_this_round = 0;
                }
                self.inbound_this_round += 1;
                if let Some(cap) = self.cfg.inbound_cap {
                    if self.inbound_this_round > cap {
                        return; // implosion: dropped at the leader
                    }
                }
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
            Payload::Final { agg } => {
                let me = self.me;
                let round = ctx.round;
                let votes = agg.vote_count() as u64;
                ctx.emit(|| TraceEvent::Coverage {
                    member: me,
                    round,
                    votes,
                });
                self.finish(ctx.round, agg);
            }
            // A Vote reaching a non-leader is mis-routed; drop it.
            Payload::Vote { .. } => {}
            // Centralized never sends subtree aggregates, batches, or
            // flow exchanges; explicit ignore arms so a new Payload
            // variant is a compile-time decision here, not a silent
            // drop.
            Payload::Agg { .. }
            | Payload::VoteBatch { .. }
            | Payload::AggBatch { .. }
            | Payload::Flow { .. } => {}
        }
    }

    fn estimate(&self) -> Option<&Tagged<A>> {
        self.estimate.as_deref()
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

    fn ctx(round: Round, rng: &mut DetRng) -> Ctx<'_> {
        Ctx::new(round, rng)
    }

    #[test]
    fn member_sends_vote_then_waits() {
        let cfg = CentralizedConfig::for_group(10);
        let mut p: Centralized<Average> = Centralized::new(MemberId(3), 5.0, 10, cfg);
        let mut rng = DetRng::seeded(0);
        let mut out = Outbox::new();
        p.on_round(&mut ctx(0, &mut rng), &mut out);
        let msgs: Vec<_> = out.drain().collect();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].0, cfg.leader);
    }

    #[test]
    fn member_finishes_on_final() {
        let cfg = CentralizedConfig::for_group(4);
        let mut p: Centralized<Average> = Centralized::new(MemberId(1), 5.0, 4, cfg);
        let mut rng = DetRng::seeded(0);
        let mut out = Outbox::new();
        let mut result = Tagged::<Average>::from_vote(0, 1.0, 4);
        result.try_merge(&Tagged::from_vote(1, 5.0, 4)).unwrap();
        p.on_message(
            cfg.leader,
            Payload::Final {
                agg: Arc::new(result),
            },
            &mut ctx(3, &mut rng),
            &mut out,
        );
        assert!(p.is_done());
        assert_eq!(p.estimate().unwrap().vote_count(), 2);
        assert_eq!(p.completed_at(), Some(3));
    }

    #[test]
    fn member_gives_up_at_deadline_with_own_vote() {
        let cfg = CentralizedConfig::for_group(4);
        let deadline = cfg.deadline(4);
        let mut p: Centralized<Average> = Centralized::new(MemberId(1), 5.0, 4, cfg);
        let mut rng = DetRng::seeded(0);
        let mut out = Outbox::new();
        for r in 0..=deadline {
            p.on_round(&mut ctx(r, &mut rng), &mut out);
            out.drain().for_each(drop);
        }
        assert!(p.is_done());
        assert_eq!(p.estimate().unwrap().vote_count(), 1);
    }

    #[test]
    fn leader_gathers_then_disseminates() {
        let mut cfg = CentralizedConfig::for_group(4);
        cfg.gather_rounds = 2;
        cfg.disseminate_per_round = 2;
        let mut p: Centralized<Average> = Centralized::new(MemberId(0), 1.0, 4, cfg);
        let mut rng = DetRng::seeded(0);
        let mut out = Outbox::new();
        // two votes arrive during gathering
        for m in [1u32, 2] {
            p.on_message(
                MemberId(m),
                Payload::Vote {
                    member: MemberId(m),
                    value: m as f64,
                },
                &mut ctx(0, &mut rng),
                &mut out,
            );
        }
        p.on_round(&mut ctx(0, &mut rng), &mut out);
        p.on_round(&mut ctx(1, &mut rng), &mut out);
        assert!(out.is_empty(), "no sends during gather");
        p.on_round(&mut ctx(2, &mut rng), &mut out);
        let batch1: Vec<_> = out.drain().collect();
        assert_eq!(batch1.len(), 2);
        p.on_round(&mut ctx(3, &mut rng), &mut out);
        let batch2: Vec<_> = out.drain().collect();
        assert_eq!(batch2.len(), 1); // members 1,2 then 3 (skipping self)
        assert!(p.is_done());
        // leader's own estimate includes the gathered votes
        assert_eq!(p.estimate().unwrap().vote_count(), 3);
    }

    #[test]
    fn implosion_drops_beyond_cap() {
        let mut cfg = CentralizedConfig::for_group(100);
        cfg.inbound_cap = Some(2);
        let mut p: Centralized<Average> = Centralized::new(MemberId(0), 0.0, 100, cfg);
        let mut rng = DetRng::seeded(0);
        let mut out = Outbox::new();
        for m in 1..=10u32 {
            p.on_message(
                MemberId(m),
                Payload::Vote {
                    member: MemberId(m),
                    value: 1.0,
                },
                &mut ctx(0, &mut rng),
                &mut out,
            );
        }
        // own vote + 2 accepted
        assert_eq!(p.acc.vote_count(), 3);
        // next round the cap resets
        p.on_message(
            MemberId(11),
            Payload::Vote {
                member: MemberId(11),
                value: 1.0,
            },
            &mut ctx(1, &mut rng),
            &mut out,
        );
        assert_eq!(p.acc.vote_count(), 4);
    }

    #[test]
    fn duplicate_votes_not_double_counted() {
        let cfg = CentralizedConfig::for_group(4);
        let mut p: Centralized<Average> = Centralized::new(MemberId(0), 0.0, 4, cfg);
        let mut rng = DetRng::seeded(0);
        let mut out = Outbox::new();
        for _ in 0..2 {
            p.on_message(
                MemberId(1),
                Payload::Vote {
                    member: MemberId(1),
                    value: 8.0,
                },
                &mut ctx(0, &mut rng),
                &mut out,
            );
        }
        assert_eq!(p.acc.vote_count(), 2);
        assert_eq!(p.acc.aggregate().unwrap().summary(), 4.0);
    }
}
