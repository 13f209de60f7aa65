//! Flow Updating — mass-conserving continuous averaging.
//!
//! The churn baseline from PAPERS.md ("Fault-Tolerant Aggregation:
//! Flow-Updating Meets Mass-Distribution", "Dependability in Aggregation
//! by Averaging"): instead of restarting an aggregation from scratch when
//! the group changes, every member `i` keeps a *flow* `F_i[j]` towards
//! each overlay neighbour `j` and derives its estimate as
//! `e_i = v_i − Σ_j F_i[j]`. Flows are idempotent state, not consumed
//! messages, so message loss never destroys "mass": a lost update is
//! simply superseded by the next one, and the global invariant
//! `Σ_i e_i = Σ_i v_i` is restored whenever flows are pairwise
//! anti-symmetric (`F_i[j] = −F_j[i]`).
//!
//! Averaging is *pairwise, request/reply*: each round a member opens an
//! exchange with one neighbour (rotating through the sorted overlay),
//! shipping its current edge flow and estimate. The responder adopts
//! the flow, moves itself onto the midpoint of the two estimates by
//! adjusting the same edge flow, and answers; the initiator adopts the
//! answer and lands on the midpoint too. One writer per exchange is the
//! stability property: a variant where both endpoints continuously
//! re-adjust the shared flow against last-heard estimates sustains a
//! mass-conserving oscillation that periodic re-arming amplifies
//! without bound (median estimates stay perfect while the extremes
//! diverge — easy to miss, which is why `continuous::tests` pins max
//! error, not just the median). A neighbour silent for
//! [`FlowUpdatingConfig::timeout_rounds`] consecutive missed exchanges
//! is presumed dead and its flow reclaimed (reset to zero), which
//! returns the lent mass to `i`.
//!
//! Unlike the one-shot protocols in this module, Flow Updating never
//! converges *structurally*: it runs for a fixed round budget per epoch
//! and the continuous service ([`crate::continuous`]) re-arms it between
//! epochs with [`FlowUpdating::rearm`], carrying flows across epochs.
//! Inside that service the timeout never fires: its deadline is
//! `timeout_rounds × degree` rounds, at least 32 at the default timeout
//! on any ring-chord overlay of five or more members, an epoch runs 26
//! rounds at the defaults, and a re-arm forgets when each neighbour was
//! last heard. Mass lent to a member that crashes mid-epoch comes back
//! only at the next re-arm, which drops the edge to it: the service
//! absorbs churn by healing the overlay, not by the timeout.
//!
//! Completeness instrumentation rides along as a vote bitset: each
//! update message carries the set of members whose current-epoch state
//! has (transitively) influenced the sender, mirroring how
//! [`Tagged`] tracks contributors in the one-shot protocols. A set's
//! bits are slots, not ids: a member's bit is its index in the epoch's
//! sorted up list, so every set is as wide as the epoch.

use std::sync::Arc;

use gridagg_aggregate::{Aggregate, Average, Tagged, VoteSet};
use gridagg_group::MemberId;
use gridagg_simnet::Round;

use crate::message::Payload;
use crate::protocol::{AggregationProtocol, Ctx, Outbox};
use crate::trace::TraceEvent;

/// Parameters of Flow Updating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowUpdatingConfig {
    /// Rounds to run before publishing this epoch's estimate.
    pub rounds_per_epoch: u32,
    /// Rounds of silence after which a neighbour is presumed dead and
    /// its flow reclaimed.
    pub timeout_rounds: u32,
}

impl Default for FlowUpdatingConfig {
    fn default() -> Self {
        FlowUpdatingConfig {
            rounds_per_epoch: 24,
            timeout_rounds: 8,
        }
    }
}

/// Per-neighbour flow state, 16 bytes: the binary search over a
/// member's edges and the estimate's sum over their flows walk a few
/// cache lines, not one per edge.
#[derive(Debug, Clone, Copy)]
struct NeighborState {
    id: MemberId,
    /// One past the round the neighbour was last heard from; 0 if it
    /// has not been heard since the instance was built or re-armed.
    heard: u32,
    /// Mass lent to this neighbour (`F_i[j]`).
    flow: f64,
}

impl NeighborState {
    fn fresh(id: MemberId) -> Self {
        NeighborState {
            id,
            heard: 0,
            flow: 0.0,
        }
    }
}

/// One member's Flow-Updating instance (averaging only — the algorithm
/// is specific to [`Average`]).
#[derive(Debug)]
pub struct FlowUpdating {
    me: MemberId,
    vote: f64,
    cfg: FlowUpdatingConfig,
    /// Overlay neighbours, sorted by id (deterministic iteration).
    neighbors: Vec<NeighborState>,
    /// Members whose current-epoch state has influenced this estimate,
    /// one bit per slot: the slot [`FlowUpdating::rearm`] was given,
    /// the member's index in the epoch's sorted up list (an instance
    /// never re-armed uses its own id). This is the set every message
    /// ships by reference, written through `Arc::make_mut` when a
    /// received set would add a member.
    influenced: Arc<VoteSet>,
    rounds: u32,
    done_at: Option<Round>,
    published: Option<Tagged<Average>>,
}

/// The symmetric ring-chord overlay used by the churn scenarios:
/// member at position `idx` of the sorted up-member list connects to
/// positions `idx ± 2^k (mod m)` for `k = 0..⌈log2 m⌉`. Degree is
/// `O(log m)`, the graph is connected and symmetric (an edge appears in
/// both endpoints' neighbour lists), and it depends only on the sorted
/// membership — every member derives the same overlay.
pub fn ring_chord_neighbors(sorted_up: &[MemberId], idx: usize) -> Vec<MemberId> {
    let m = sorted_up.len();
    if m <= 1 {
        return Vec::new();
    }
    let mut picks: Vec<usize> = Vec::new();
    let mut step = 1usize;
    while step < m {
        picks.push((idx + step) % m);
        picks.push((idx + m - step) % m);
        step *= 2;
    }
    let mut out: Vec<MemberId> = picks
        .into_iter()
        .filter(|&p| p != idx)
        .map(|p| sorted_up[p])
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

impl FlowUpdating {
    /// Create the instance for member `me` with the given vote and
    /// overlay neighbours. Until a [`FlowUpdating::rearm`] assigns a
    /// slot, the completeness bitset holds `me`'s id, `width` bits wide.
    pub fn new(
        me: MemberId,
        vote: f64,
        width: usize,
        neighbors: Vec<MemberId>,
        cfg: FlowUpdatingConfig,
    ) -> Self {
        let mut neighbors: Vec<NeighborState> =
            neighbors.into_iter().map(NeighborState::fresh).collect();
        neighbors.sort_unstable_by_key(|s| s.id);
        neighbors.dedup_by_key(|s| s.id);
        neighbors.retain(|s| s.id != me);
        FlowUpdating {
            me,
            vote,
            cfg,
            neighbors,
            influenced: Arc::new(VoteSet::singleton(me.index(), width)),
            rounds: 0,
            done_at: None,
            published: None,
        }
    }

    /// Current estimate of the average: `v_i − Σ_j F_i[j]`.
    pub fn local_estimate(&self) -> f64 {
        self.vote - self.neighbors.iter().map(|s| s.flow).sum::<f64>()
    }

    /// Re-arm for the next epoch of the continuous service: install the
    /// (possibly changed) vote and healed overlay, clear the done marker
    /// and restart the influence set as this member's `slot` alone, in
    /// a set `width` bits wide — `slot` is the member's index in the
    /// epoch's sorted up list of `width` members. Flows towards
    /// neighbours that survive into the new overlay are *kept* — that
    /// continuity is the point of the protocol — while flows towards
    /// removed neighbours are dropped, reclaiming the mass lent to them.
    pub fn rearm(&mut self, vote: f64, slot: usize, width: usize, neighbors: Vec<MemberId>) {
        self.vote = vote;
        let mut next: Vec<NeighborState> = Vec::with_capacity(neighbors.len());
        let mut ids: Vec<MemberId> = neighbors;
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            if id == self.me {
                continue;
            }
            match self.neighbors.binary_search_by_key(&id, |s| s.id) {
                Ok(pos) => {
                    let mut kept = self.neighbors[pos];
                    // when it was last heard is stale across the epoch
                    // boundary; only the flow persists
                    kept.heard = 0;
                    next.push(kept);
                }
                Err(_) => next.push(NeighborState::fresh(id)),
            }
        }
        self.neighbors = next;
        self.influenced = Arc::new(VoteSet::singleton(slot, width));
        self.rounds = 0;
        self.done_at = None;
        self.published = None;
    }

    fn finalize(&mut self, round: Round) {
        let est = Average::from_vote(self.local_estimate());
        // influence set always contains `me`, so the aggregate is
        // present whenever votes are — from_parts cannot fail here, but
        // degrade to "no estimate" rather than panicking in a protocol
        // handler. The one `Tagged` whose value is not of its
        // contributors' votes (one estimate over the influence set): no
        // message carries it, and `encode_tagged` would refuse it under
        // `strict-invariants`, since the wire writes one count for both.
        self.published = Tagged::from_parts(Some(est), VoteSet::clone(&self.influenced)).ok();
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
impl AggregationProtocol<Average> for FlowUpdating {
    fn on_round(&mut self, ctx: &mut Ctx<'_>, out: &mut Outbox<Average>) {
        if self.done_at.is_some() {
            return;
        }
        if self.rounds >= self.cfg.rounds_per_epoch {
            self.finalize(ctx.round);
            return;
        }
        let degree = self.neighbors.len();
        // 1. reclaim flows from neighbours silent past the timeout. A
        //    neighbour only writes to us when the rotation reaches the
        //    shared edge, so its natural cadence is one message per
        //    ~degree rounds (the overlay is symmetric, degrees match);
        //    the deadline counts `timeout_rounds` missed exchanges, not
        //    raw rounds. Until the round passes the deadline nobody can
        //    have been silent that long, so there is nothing to scan.
        let deadline = (self.cfg.timeout_rounds as Round).saturating_mul(degree.max(1) as Round);
        if ctx.round > deadline {
            let now = ctx.round.saturating_add(1);
            for s in &mut self.neighbors {
                if s.heard != 0 && now.saturating_sub(Round::from(s.heard)) > deadline {
                    s.flow = 0.0;
                    s.heard = 0;
                }
            }
        }
        // 2. open a pairwise exchange with one neighbour per round,
        //    rotating through the (sorted) overlay: ship the current
        //    edge flow and estimate; the responder does the averaging
        //    (on_message) against this *fresh* estimate and answers
        //    with the adjusted flow, which we adopt. Adjusting every
        //    neighbour against last-heard estimates each round (the
        //    tempting broadcast variant) leaves each edge with two
        //    independent simultaneous writers whose mutual overwrites
        //    preserve — and under periodic re-arming amplify — a
        //    mass-conserving oscillation.
        if degree > 0 {
            let pick = self.rounds as usize % degree;
            let s = &self.neighbors[pick];
            out.send(
                s.id,
                Payload::Flow {
                    flow: s.flow,
                    estimate: self.local_estimate(),
                    reply: false,
                    influenced: Arc::clone(&self.influenced),
                },
            );
        }
        self.rounds += 1;
    }

    fn on_message(
        &mut self,
        from: MemberId,
        payload: Payload<Average>,
        ctx: &mut Ctx<'_>,
        out: &mut Outbox<Average>,
    ) {
        if self.done_at.is_some() {
            return;
        }
        match payload {
            Payload::Flow {
                flow,
                estimate,
                reply,
                influenced,
            } => {
                // stale senders no longer in the overlay are ignored
                self.on_flow(from, flow, estimate, reply, &influenced, ctx, out);
            }
            // Flow-Updating speaks only the Flow exchange; every other
            // wire shape is explicitly ignored so a new Payload
            // variant is a compile-time decision here, not a silent
            // drop.
            Payload::Vote { .. }
            | Payload::Agg { .. }
            | Payload::Final { .. }
            | Payload::VoteBatch { .. }
            | Payload::AggBatch { .. } => {}
        }
    }

    fn estimate(&self) -> Option<&Tagged<Average>> {
        self.published.as_ref()
    }

    fn is_done(&self) -> bool {
        self.done_at.is_some()
    }

    fn completed_at(&self) -> Option<Round> {
        self.done_at
    }
}

impl FlowUpdating {
    /// Body of the `Payload::Flow` handler: fold the sender's lent
    /// flow into our ledger and, on the responder half, answer with
    /// the midpoint-adjusted flow. The parameter list mirrors the
    /// wire fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::wildcard_enum_match_arm
    )]
    fn on_flow(
        &mut self,
        from: MemberId,
        flow: f64,
        estimate: f64,
        reply: bool,
        influenced: &Arc<VoteSet>,
        ctx: &mut Ctx<'_>,
        out: &mut Outbox<Average>,
    ) {
        if let Ok(pos) = self.neighbors.binary_search_by_key(&from, |s| s.id) {
            {
                let s = &mut self.neighbors[pos];
                // the sender lent us `flow`; our matching flow is
                // its negation (anti-symmetry restores Σe = Σv)
                s.flow = -flow;
                s.heard = u32::try_from(ctx.round.saturating_add(1)).unwrap_or(u32::MAX);
            }
            // most sets received add nobody: only one that does pays
            // for the write (a copy while a sent message holds ours)
            let before = self.influenced.len();
            if !Arc::ptr_eq(&self.influenced, influenced)
                && !self.influenced.is_superset(influenced)
            {
                Arc::make_mut(&mut self.influenced).union_with(influenced);
            }
            if self.influenced.len() != before && ctx.is_traced() {
                let me = self.me;
                let round = ctx.round;
                let votes = self.influenced.len() as u64;
                ctx.emit(|| TraceEvent::Coverage {
                    member: me,
                    round,
                    votes,
                });
            }
            if !reply {
                // responder half of the exchange: average with the
                // initiator's fresh estimate and answer with the
                // adjusted flow. Lending `e_here − midpoint` moves
                // us exactly onto the midpoint; the initiator lands
                // there too once it adopts the answer.
                let e_here = self.local_estimate();
                let midpoint = (e_here + estimate) / 2.0;
                let s = &mut self.neighbors[pos];
                s.flow += e_here - midpoint;
                out.send(
                    from,
                    Payload::Flow {
                        flow: s.flow,
                        estimate: midpoint,
                        reply: true,
                        influenced: Arc::clone(&self.influenced),
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridagg_aggregate::Aggregate;
    use gridagg_simnet::rng::DetRng;

    fn full_mesh(n: usize) -> Vec<Vec<MemberId>> {
        (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| MemberId(j as u32))
                    .collect()
            })
            .collect()
    }

    type Mail = Vec<(MemberId, MemberId, Payload<Average>)>;

    /// Drive a set of instances over a perfect next-round network:
    /// messages sent in round `r` (requests from `on_round`, replies
    /// from `on_message`) are delivered in round `r + 1`, like the
    /// engine does. Returns the messages still in flight at the cut.
    fn drive(protos: &mut [FlowUpdating], rounds: u32) -> Mail {
        let mut rng = DetRng::seeded(7);
        let mut out = Outbox::new();
        let mut pending: Mail = Vec::new();
        for round in 0..rounds as Round {
            let mut next: Mail = Vec::new();
            for (from, to, payload) in pending {
                let mut ctx = Ctx::new(round, &mut rng);
                protos[to.index()].on_message(from, payload, &mut ctx, &mut out);
                for (to2, payload2) in out.drain() {
                    next.push((to, to2, payload2));
                }
            }
            for p in protos.iter_mut() {
                let me = p.me;
                let mut ctx = Ctx::new(round, &mut rng);
                p.on_round(&mut ctx, &mut out);
                for (to, payload) in out.drain() {
                    next.push((me, to, payload));
                }
            }
            pending = next;
        }
        pending
    }

    /// Deliver in-flight messages (and the replies they trigger) with no
    /// further `on_round` steps, until the network is empty. Afterwards
    /// every exchanged edge is flow-anti-symmetric again.
    fn quiesce(protos: &mut [FlowUpdating], mut pending: Mail, from_round: Round) {
        let mut rng = DetRng::seeded(8);
        let mut out = Outbox::new();
        let mut round = from_round;
        while !pending.is_empty() {
            let mut next: Mail = Vec::new();
            for (from, to, payload) in pending {
                let mut ctx = Ctx::new(round, &mut rng);
                protos[to.index()].on_message(from, payload, &mut ctx, &mut out);
                for (to2, payload2) in out.drain() {
                    next.push((to, to2, payload2));
                }
            }
            pending = next;
            round += 1;
        }
    }

    #[test]
    fn converges_to_true_average_on_mesh() {
        let votes = [1.0, 5.0, 9.0, 13.0];
        let n = votes.len();
        let cfg = FlowUpdatingConfig {
            rounds_per_epoch: 1000,
            timeout_rounds: 8,
        };
        let mesh = full_mesh(n);
        let mut protos: Vec<FlowUpdating> = (0..n)
            .map(|i| FlowUpdating::new(MemberId(i as u32), votes[i], n, mesh[i].clone(), cfg))
            .collect();
        let _ = drive(&mut protos, 100);
        for p in &protos {
            assert!(
                (p.local_estimate() - 7.0).abs() < 1e-6,
                "member {} estimate {}",
                p.me,
                p.local_estimate()
            );
        }
    }

    #[test]
    fn mass_is_conserved_after_quiescence() {
        // A completed exchange restores flow anti-symmetry on its edge,
        // so an isolated pair conserves Σ e_i = Σ v_i *exactly* — even
        // though both endpoints initiate crossing requests every round.
        let cfg = FlowUpdatingConfig {
            rounds_per_epoch: 1000,
            timeout_rounds: 8,
        };
        let mesh2 = full_mesh(2);
        let mut pair: Vec<FlowUpdating> = (0..2)
            .map(|i| FlowUpdating::new(MemberId(i as u32), [2.0, 8.0][i], 2, mesh2[i].clone(), cfg))
            .collect();
        let in_flight = drive(&mut pair, 17);
        quiesce(&mut pair, in_flight, 17);
        let mass: f64 = pair.iter().map(FlowUpdating::local_estimate).sum();
        assert!((mass - 10.0).abs() < 1e-9, "pair mass {mass} vs 10");

        // With concurrent exchanges on many edges, a snapshot carries
        // transient in-flight corrections; the deviation decays to zero
        // as the estimates converge instead of accumulating.
        let votes = [2.0, 4.0, 6.0, 8.0, 10.0];
        let n = votes.len();
        let truth: f64 = votes.iter().sum();
        let mesh = full_mesh(n);
        let snapshot = |rounds: u32| {
            let mut protos: Vec<FlowUpdating> = (0..n)
                .map(|i| FlowUpdating::new(MemberId(i as u32), votes[i], n, mesh[i].clone(), cfg))
                .collect();
            let in_flight = drive(&mut protos, rounds);
            quiesce(&mut protos, in_flight, rounds as Round);
            let mass: f64 = protos.iter().map(FlowUpdating::local_estimate).sum();
            (mass - truth).abs()
        };
        let early = snapshot(17);
        let late = snapshot(160);
        assert!(early < 2.0, "early snapshot drift {early}");
        assert!(late < 1e-6, "late snapshot drift {late}");
    }

    #[test]
    fn finalizes_after_round_budget() {
        let cfg = FlowUpdatingConfig {
            rounds_per_epoch: 5,
            timeout_rounds: 4,
        };
        let mut p = FlowUpdating::new(MemberId(0), 3.0, 4, vec![MemberId(1)], cfg);
        let mut rng = DetRng::seeded(1);
        let mut out = Outbox::new();
        for round in 0..=5 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
            out.drain().for_each(drop);
        }
        assert!(p.is_done());
        assert_eq!(p.completed_at(), Some(5));
        let est = p.estimate().expect("published");
        assert_eq!(est.aggregate().unwrap().summary(), 3.0);
        assert_eq!(est.vote_count(), 1);
    }

    #[test]
    fn timeout_reclaims_dead_neighbor_flow() {
        let cfg = FlowUpdatingConfig {
            rounds_per_epoch: 1000,
            timeout_rounds: 2,
        };
        let mut p = FlowUpdating::new(MemberId(0), 10.0, 4, vec![MemberId(1)], cfg);
        let mut rng = DetRng::seeded(1);
        let mut out = Outbox::new();
        // neighbour 1 reports once, lending us −4 (we owe it 4)
        let mut ctx = Ctx::new(0, &mut rng);
        p.on_message(
            MemberId(1),
            Payload::Flow {
                flow: -4.0,
                estimate: 6.0,
                reply: false,
                influenced: Arc::new(VoteSet::singleton(1, 4)),
            },
            &mut ctx,
            &mut out,
        );
        out.drain().for_each(drop); // discard the pairwise answer
        {
            let mut ctx = Ctx::new(1, &mut rng);
            p.on_round(&mut ctx, &mut out);
            out.drain().for_each(drop);
        }
        assert!(p.local_estimate() < 10.0, "mass flowed towards neighbour");
        // then it goes silent past the timeout: rounds 2..=4
        for round in 2..=4 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
            out.drain().for_each(drop);
        }
        assert_eq!(p.local_estimate(), 10.0, "flow reclaimed after timeout");
    }

    #[test]
    fn edge_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<NeighborState>(), 16);
    }

    #[test]
    fn reclaim_fires_the_round_after_the_deadline() {
        // degree 3 × timeout 2: a deadline of 6 rounds
        let cfg = FlowUpdatingConfig {
            rounds_per_epoch: 1000,
            timeout_rounds: 2,
        };
        let neighbors = vec![MemberId(1), MemberId(2), MemberId(3)];
        let mut p = FlowUpdating::new(MemberId(0), 10.0, 4, neighbors.clone(), cfg);
        let mut rng = DetRng::seeded(1);
        let mut out = Outbox::new();
        let mut hear = |p: &mut FlowUpdating, from: u32, flow: f64, round: Round| {
            let mut ctx = Ctx::new(round, &mut rng);
            let payload = Payload::Flow {
                flow,
                estimate: 0.0,
                reply: true,
                influenced: Arc::new(VoteSet::singleton(from as usize, 4)),
            };
            p.on_message(MemberId(from), payload, &mut ctx, &mut out);
        };
        // we lend 1, 2 and 3 to the three neighbours, then a re-arm
        // keeps the flows and forgets when each was heard
        for from in 1..=3 {
            hear(&mut p, from, -f64::from(from), 0);
        }
        p.rearm(10.0, 0, 4, neighbors);
        assert_eq!(p.local_estimate(), 4.0);
        // only neighbour 2 is heard again, at round 1
        hear(&mut p, 2, -2.0, 1);
        let mut rng = DetRng::seeded(2);
        let mut out = Outbox::new();
        let mut step = |p: &mut FlowUpdating, round: Round| {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
            out.drain().for_each(drop);
            p.local_estimate()
        };
        for round in 1..=7 {
            assert_eq!(step(&mut p, round), 4.0, "round {round}: nothing reclaimed");
        }
        // silent 7 rounds at round 8: neighbour 2's flow comes back, the
        // never-heard neighbours keep theirs
        assert_eq!(step(&mut p, 8), 10.0 - 1.0 - 3.0);
        assert_eq!(step(&mut p, 9), 10.0 - 1.0 - 3.0);
    }

    #[test]
    fn influence_set_spreads_transitively() {
        let cfg = FlowUpdatingConfig {
            rounds_per_epoch: 1000,
            timeout_rounds: 8,
        };
        // line overlay 0–1–2: member 2's influence reaches 0 via 1
        let neighbors = [
            vec![MemberId(1)],
            vec![MemberId(0), MemberId(2)],
            vec![MemberId(1)],
        ];
        let mut protos: Vec<FlowUpdating> = (0..3)
            .map(|i| FlowUpdating::new(MemberId(i as u32), i as f64, 3, neighbors[i].clone(), cfg))
            .collect();
        let _ = drive(&mut protos, 4);
        assert!(protos[0].influenced.contains(2), "transitive influence");
        assert_eq!(protos[0].influenced.len(), 3);
    }

    #[test]
    fn influence_set_is_shipped_by_reference_and_copied_only_to_grow() {
        let cfg = FlowUpdatingConfig::default();
        let mut p = FlowUpdating::new(MemberId(0), 10.0, 8, vec![MemberId(1)], cfg);
        let mut rng = DetRng::seeded(1);
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        let flow_from_1 = |influenced: Arc<VoteSet>| Payload::Flow {
            flow: 0.0,
            estimate: 1.0,
            reply: false,
            influenced,
        };
        let sent_set = |out: &mut Outbox<Average>| match out.drain().next() {
            Some((_, Payload::Flow { influenced, .. })) => influenced,
            other => panic!("expected one Flow, got {other:?}"),
        };
        p.on_round(&mut ctx, &mut out);
        let sent = sent_set(&mut out);
        assert!(Arc::ptr_eq(&sent, &p.influenced), "a send copies nothing");
        // a set that adds nobody (a subset, or our own back) leaves the
        // shared set alone, and the answer ships it again
        for adds_nobody in [Arc::new(VoteSet::singleton(0, 8)), sent.clone()] {
            p.on_message(MemberId(1), flow_from_1(adds_nobody), &mut ctx, &mut out);
            assert!(Arc::ptr_eq(&sent_set(&mut out), &sent));
        }
        // one that adds a member is merged into a copy: `sent` is in flight
        let one = Arc::new(VoteSet::singleton(1, 8));
        p.on_message(MemberId(1), flow_from_1(one), &mut ctx, &mut out);
        assert_eq!(sent.len(), 1, "the sent snapshot did not move");
        assert_eq!(p.influenced.len(), 2);
        // with nothing in flight the next one is merged in place
        out.drain().for_each(drop);
        let at = Arc::as_ptr(&p.influenced);
        let two = Arc::new(VoteSet::singleton(2, 8));
        p.on_message(MemberId(1), flow_from_1(two), &mut ctx, &mut out);
        assert_eq!(Arc::as_ptr(&p.influenced), at);
        assert_eq!(p.influenced.iter().collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn rearm_keeps_surviving_flows_and_drops_removed() {
        let cfg = FlowUpdatingConfig::default();
        let mut p = FlowUpdating::new(MemberId(0), 10.0, 8, vec![MemberId(1), MemberId(2)], cfg);
        let mut rng = DetRng::seeded(1);
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        p.on_message(
            MemberId(1),
            Payload::Flow {
                flow: -3.0,
                estimate: 1.0,
                reply: true,
                influenced: Arc::new(VoteSet::singleton(1, 8)),
            },
            &mut ctx,
            &mut out,
        );
        p.on_message(
            MemberId(2),
            Payload::Flow {
                flow: -2.0,
                estimate: 1.0,
                reply: true,
                influenced: Arc::new(VoteSet::singleton(2, 8)),
            },
            &mut ctx,
            &mut out,
        );
        assert_eq!(p.local_estimate(), 10.0 - 3.0 - 2.0);
        // neighbour 2 leaves; 3 joins; vote drifts to 11
        p.rearm(11.0, 0, 8, vec![MemberId(1), MemberId(3)]);
        // flow to 1 kept (−3 owed... +3 towards us), flow to 2 reclaimed
        assert_eq!(p.local_estimate(), 11.0 - 3.0);
        assert!(!p.is_done());
        assert_eq!(p.influenced.len(), 1, "influence reset per epoch");
    }

    #[test]
    fn ring_chord_is_symmetric_and_logarithmic() {
        let up: Vec<MemberId> = (0..37).map(MemberId).collect();
        let lists: Vec<Vec<MemberId>> = (0..up.len())
            .map(|i| ring_chord_neighbors(&up, i))
            .collect();
        for (i, list) in lists.iter().enumerate() {
            assert!(!list.is_empty());
            assert!(list.len() <= 2 * 7, "degree {} too high", list.len());
            for &j in list {
                let jp = up.iter().position(|&m| m == j).unwrap();
                assert!(lists[jp].contains(&up[i]), "edge {i}->{jp} not symmetric");
            }
        }
        // gapped id spaces work too — overlay is positional
        let sparse = vec![MemberId(3), MemberId(10), MemberId(90)];
        let l = ring_chord_neighbors(&sparse, 0);
        assert_eq!(l, vec![MemberId(10), MemberId(90)]);
        assert!(ring_chord_neighbors(&sparse[..1], 0).is_empty());
    }
}
