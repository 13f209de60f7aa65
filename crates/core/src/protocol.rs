//! The protocol abstraction, and the one step that drives it on every
//! substrate.
//!
//! Each group member runs one [`AggregationProtocol`] instance. A
//! harness — the simulation engine or a socket worker — calls [`step`]
//! for every delivered message and once per gossip round while the
//! member is alive; `step` calls [`AggregationProtocol::on_message`] or
//! [`AggregationProtocol::on_round`], and hands what the protocol
//! queued in its [`Outbox`] to the harness's [`Effects`] target. When a
//! protocol is done it exposes its [`estimate`] — the member's view of
//! the global aggregate.
//!
//! [`estimate`]: AggregationProtocol::estimate

use gridagg_aggregate::{Aggregate, Tagged};
use gridagg_group::MemberId;
use gridagg_simnet::network::Envelope;
use gridagg_simnet::rng::DetRng;
use gridagg_simnet::Round;

use crate::message::Payload;
use crate::trace::{DynSink, TraceEvent};

/// Messages a member wants to send this round. The engine (and each
/// socket worker) keeps one and hands it to every step, so scratch that
/// would otherwise sit in each of `N` members lives here.
#[derive(Debug)]
pub struct Outbox<A> {
    /// `(to, payload, shared)`; `shared` marks a [`Outbox::send_many`]
    /// copy of the payload queued just before it
    msgs: Vec<(MemberId, Payload<A>, bool)>,
    /// Gossipee positions drawn by [`Outbox::send_sampled`].
    picks: Vec<usize>,
}

impl<A> Outbox<A> {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox {
            msgs: Vec::new(),
            picks: Vec::new(),
        }
    }

    /// Queue a message to `to`.
    pub fn send(&mut self, to: MemberId, payload: Payload<A>) {
        self.msgs.push((to, payload, false));
    }

    /// Queue the same payload to several destinations (gossip fanout),
    /// in iteration order. The last destination takes `payload` itself,
    /// so a fan-out of `k` costs `k - 1` clones.
    pub fn send_many(&mut self, to: impl IntoIterator<Item = MemberId>, payload: Payload<A>)
    where
        A: Clone,
    {
        let mut to = to.into_iter();
        let Some(mut dest) = to.next() else { return };
        let mut shared = false;
        for next in to {
            self.msgs.push((dest, payload.clone(), shared));
            (dest, shared) = (next, true);
        }
        self.msgs.push((dest, payload, shared));
    }

    /// Gossip fan-out: queue `payload` to up to `fanout` distinct
    /// members drawn from positions `0..len` (never `skip`), `member`
    /// naming the member at a position. One
    /// [`DetRng::sample_distinct_into`] draw, then [`Outbox::send_many`]
    /// in pick order.
    pub fn send_sampled(
        &mut self,
        rng: &mut DetRng,
        len: usize,
        skip: Option<usize>,
        fanout: usize,
        member: impl Fn(usize) -> MemberId,
        payload: Payload<A>,
    ) where
        A: Clone,
    {
        let mut picks = std::mem::take(&mut self.picks);
        rng.sample_distinct_into(len, skip, fanout, &mut picks);
        self.send_many(picks.iter().map(|&p| member(p)), payload);
        self.picks = picks;
    }

    /// Drain the queued messages (without the fan-out marks of [`step`]).
    pub fn drain(&mut self) -> impl Iterator<Item = (MemberId, Payload<A>)> + '_ {
        self.msgs.drain(..).map(|(to, payload, _)| (to, payload))
    }

    /// The queued messages, in queue order, left queued: for a wrapper
    /// that reads what a step sends (see
    /// [`run_hiergossip_wrapped`](crate::runner::run_hiergossip_wrapped)).
    pub fn iter(&self) -> impl Iterator<Item = (MemberId, &Payload<A>)> {
        self.msgs.iter().map(|(to, payload, _)| (*to, payload))
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether the outbox is empty.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

impl<A> Default for Outbox<A> {
    fn default() -> Self {
        Outbox::new()
    }
}

/// Per-call context handed to the protocol by the engine.
pub struct Ctx<'a> {
    /// The current gossip round.
    pub round: Round,
    /// This member's private random stream.
    pub rng: &'a mut DetRng,
    /// Trace sink, installed by the engine only when tracing is on.
    /// `None` on the untraced path, so [`Ctx::emit`]'s event-building
    /// closure is never even called there.
    trace: Option<&'a mut dyn DynSink>,
    /// The key set by [`Ctx::home`] during this call.
    home: Option<u32>,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("round", &self.round)
            .field("traced", &self.trace.is_some())
            .finish()
    }
}

impl<'a> Ctx<'a> {
    /// An untraced context (the default path).
    pub fn new(round: Round, rng: &'a mut DetRng) -> Self {
        Ctx {
            round,
            rng,
            trace: None,
            home: None,
        }
    }

    /// A context that forwards protocol-level events to `sink`.
    pub fn traced(round: Round, rng: &'a mut DetRng, sink: &'a mut dyn DynSink) -> Self {
        Ctx {
            round,
            rng,
            trace: Some(sink),
            home: None,
        }
    }

    /// Emit a trace event. The closure runs only when a sink is
    /// installed, so untraced runs pay one branch and build nothing.
    #[inline]
    pub fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.trace.as_deref_mut() {
            sink.record_dyn(event());
        }
    }

    /// Whether this context forwards events anywhere.
    pub fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Tell the harness where this member lives: members with close
    /// keys exchange most of their messages, so a harness may store and
    /// step them side by side ([`Effects::home`]). `u32::MAX` means no
    /// home. The simulator follows the hint only when the keys are
    /// distinct and below the group size (ranks). Following it changes
    /// the order members step in within a round, and so which network
    /// draws each send gets: a seeded run's outcomes may change, their
    /// distribution does not (DESIGN.md §14.6, §16.1).
    pub fn home(&mut self, key: u32) {
        self.home = Some(key);
    }
}

/// A one-shot aggregation protocol instance at one group member.
pub trait AggregationProtocol<A>: std::fmt::Debug {
    /// Called once per round while the member is alive, *after* this
    /// round's message deliveries. Emit gossip through `out`.
    fn on_round(&mut self, ctx: &mut Ctx<'_>, out: &mut Outbox<A>);

    /// Called for each message delivered to this member (if alive).
    fn on_message(
        &mut self,
        from: MemberId,
        payload: Payload<A>,
        ctx: &mut Ctx<'_>,
        out: &mut Outbox<A>,
    );

    /// The member's current estimate of the global aggregate, if it has
    /// produced one. Completeness is measured on this.
    fn estimate(&self) -> Option<&Tagged<A>>;

    /// Whether this member's protocol run has terminated.
    fn is_done(&self) -> bool;

    /// The round in which the protocol terminated, if it has.
    fn completed_at(&self) -> Option<Round>;
}

/// Where the effects of one [`step`] go: the simulator's network or a
/// socket worker's encoder.
pub trait Effects<A> {
    /// Receiver of the step's protocol-level events and `Terminate`;
    /// `None`, the default, runs the step untraced.
    fn sink(&mut self) -> Option<&mut dyn DynSink> {
        None
    }

    /// One outgoing message. `shared` marks a [`Outbox::send_many`]
    /// copy of the payload sent just before it, so per-payload work (a
    /// wire size, an encoding) runs once per fan-out.
    fn send(&mut self, round: Round, from: MemberId, to: MemberId, msg: Payload<A>, shared: bool);

    /// `member`'s step set its home key ([`Ctx::home`]). The default
    /// ignores it.
    fn home(&mut self, _member: MemberId, _key: u32) {}
}

/// The root of a run's member random streams, on any substrate: member
/// `i` of a run seeded `seed` draws from `member_streams(seed).fork(i)`,
/// in the simulator and on sockets alike. A harness computes the root
/// once (a socket worker, once for its shard) and forks it per member.
pub fn member_streams(seed: u64) -> DetRng {
    DetRng::seeded(seed).fork(0x6D62_7273) // "mbrs"
}

/// One protocol step at member `me`, on any substrate: deliver `msg`
/// (or, with `None`, run the round timer), pass on a home key the
/// protocol set, report a termination, and hand the outbox to `fx`.
/// Returns whether the member is done after. Of the envelope, only
/// `from` and `payload` are read.
///
/// The only caller of `on_message` and `on_round`. Always inlined, and
/// the envelope reaches `on_message` whole: repacking it into a by-value
/// `Option` cost +8 % on the simulator's `sim-counted-32k`.
#[inline(always)]
#[expect(clippy::too_many_arguments, reason = "member, place, input, scratch")]
pub fn step<A, P, E>(
    proto: &mut P,
    rng: &mut DetRng,
    me: MemberId,
    round: Round,
    n: usize,
    msg: Option<Envelope<Payload<A>>>,
    out: &mut Outbox<A>,
    fx: &mut E,
) -> bool
where
    A: Aggregate,
    P: AggregationProtocol<A>,
    E: Effects<A>,
{
    let was_done = proto.is_done();
    let home = {
        let mut ctx = match fx.sink() {
            Some(sink) => Ctx::traced(round, rng, sink),
            None => Ctx::new(round, rng),
        };
        match msg {
            Some(env) => proto.on_message(env.from, env.payload, &mut ctx, out),
            None => proto.on_round(&mut ctx, out),
        }
        ctx.home
    };
    if let Some(key) = home {
        fx.home(me, key);
    }
    let now_done = proto.is_done();
    if let Some(sink) = fx.sink().filter(|_| !was_done && now_done) {
        sink.record_dyn(TraceEvent::Terminate {
            member: me,
            round,
            completeness: proto.estimate().map_or(0.0, |est| est.completeness(n)),
        });
    }
    for (to, payload, shared) in out.msgs.drain(..) {
        fx.send(round, me, to, payload, shared);
    }
    now_done
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridagg_aggregate::Average;

    #[test]
    fn outbox_queues_and_drains() {
        let mut out: Outbox<Average> = Outbox::new();
        assert!(out.is_empty());
        out.send(
            MemberId(1),
            Payload::Vote {
                member: MemberId(0),
                value: 1.0,
            },
        );
        out.send_many(
            [MemberId(2), MemberId(3)],
            Payload::Vote {
                member: MemberId(0),
                value: 1.0,
            },
        );
        assert_eq!(out.len(), 3);
        let drained: Vec<_> = out.drain().collect();
        let dests: Vec<_> = drained.iter().map(|(to, _)| *to).collect();
        assert_eq!(dests, [MemberId(1), MemberId(2), MemberId(3)]);
        assert!(out.is_empty());

        // the last destination takes the original, so exactly one
        // reference per destination is queued: a single destination
        // holds the only one, an empty fan-out queues nothing
        let agg = || std::sync::Arc::new(Tagged::<Average>::from_vote(0, 1.0, 4));
        out.send_many([MemberId(5)], Payload::Final { agg: agg() });
        out.send_many([], Payload::Final { agg: agg() });
        out.send_many([MemberId(6), MemberId(7)], Payload::Final { agg: agg() });
        let counts: Vec<_> = out
            .drain()
            .map(|(to, p)| match p {
                Payload::Final { agg } => (to, std::sync::Arc::strong_count(&agg)),
                other => panic!("queued {other:?}"),
            })
            .collect();
        // drained one at a time, so the pair's first sees both references
        assert_eq!(
            counts,
            [(MemberId(5), 1), (MemberId(6), 2), (MemberId(7), 1)]
        );
    }

    #[test]
    fn send_sampled_is_one_draw_then_send_many_in_pick_order() {
        let vote = Payload::<Average>::Vote {
            member: MemberId(0),
            value: 1.0,
        };
        // both sampling paths: the small pool and rejection sampling
        for (len, skip, fanout) in [(10, Some(3), 4), (10_000, Some(42), 2), (3, None, 8)] {
            let (mut a, mut b) = (DetRng::seeded(21), DetRng::seeded(21));
            let mut out: Outbox<Average> = Outbox::new();
            for _ in 0..20 {
                let picks = a.sample_distinct(len, skip, fanout);
                let member = |p: usize| MemberId(p as u32 + 100);
                out.send_sampled(&mut b, len, skip, fanout, member, vote.clone());
                let sent: Vec<MemberId> = out.drain().map(|(to, _)| to).collect();
                let expect: Vec<MemberId> = picks.into_iter().map(member).collect();
                assert_eq!(sent, expect);
            }
            assert_eq!(a.raw().next_u64(), b.raw().next_u64(), "streams aligned");
        }
    }

    #[test]
    fn default_is_empty() {
        let out: Outbox<Average> = Outbox::default();
        assert!(out.is_empty());
    }
}
