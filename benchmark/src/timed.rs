//! `Timed<P>`: the benchmark's window into the protocol layer.
//!
//! The engine owns the round loop, so the only place outside the
//! program where a clock can sit between engine and protocol is a
//! protocol of the benchmark's own that delegates every trait call to
//! the real one. `Timed` does that and nothing else: it draws no random
//! numbers, sends nothing and answers every query with the inner
//! protocol's answer, so a run with it is report-identical to a run
//! without (the benchmark checks this on every traced rep).
//!
//! Every call is counted; every [`CLOCK_EVERY`]-th call of a member is
//! timed and the layer's time is the timed calls' sum scaled by calls ÷
//! timed calls. Two clock reads cost about as much as a tenth of a
//! protocol step, and timing all four million steps of a run made the
//! traced rep a third slower than the untraced ones it decomposes.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use gridagg_aggregate::Tagged;
use gridagg_core::protocol::{AggregationProtocol, Ctx, Outbox};
use gridagg_core::Payload;
use gridagg_group::MemberId;
use gridagg_simnet::Round;

/// Messages the whole group queued in each round. One instance is
/// shared by every member's wrapper — a per-member table would add
/// megabytes to the heap the traced rep is measuring.
#[derive(Debug)]
pub struct RoundSends(Vec<AtomicU64>);

impl RoundSends {
    /// Counters for rounds `0..=max_round`.
    pub fn new(max_round: Round) -> Arc<Self> {
        Arc::new(RoundSends(
            (0..=max_round).map(|_| AtomicU64::new(0)).collect(),
        ))
    }

    /// The per-round totals, trailing silent rounds dropped.
    pub fn totals(&self) -> Vec<u64> {
        // Relaxed: plain statistics, read after the run's threads joined
        let mut totals: Vec<u64> = self.0.iter().map(|c| c.load(Relaxed)).collect();
        while totals.last() == Some(&0) {
            totals.pop();
        }
        totals
    }
}

/// One call in this many is timed.
pub const CLOCK_EVERY: u64 = 4;

/// Calls into one trait method: all counted, some timed.
#[derive(Debug, Clone, Copy, Default)]
struct Calls {
    calls: u64,
    timed: u64,
    timed_ns: u64,
}

impl Calls {
    /// Run `f` as the next call, under the clock if it is this call's
    /// turn.
    fn call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let clocked = self.calls.is_multiple_of(CLOCK_EVERY);
        self.calls += 1;
        if !clocked {
            return f();
        }
        let t = Instant::now();
        let value = f();
        self.timed_ns += t.elapsed().as_nanos() as u64;
        self.timed += 1;
        value
    }

    fn add(&mut self, other: Calls) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
    }

    /// Estimated seconds inside all `calls` calls.
    fn seconds(&self) -> f64 {
        self.timed_ns as f64 * 1e-9 * self.calls as f64 / self.timed.max(1) as f64
    }
}

/// A protocol that counts and times the calls into `P`.
#[derive(Debug)]
pub struct Timed<A, P> {
    inner: P,
    on_message: Calls,
    on_round: Calls,
    sends: Arc<RoundSends>,
    /// Keep the delivered payloads whose index is `phase` modulo
    /// `every` (`every` 0 keeps none).
    sample_every: u64,
    sample_phase: u64,
    sampled: Vec<Payload<A>>,
}

impl<A, P> Timed<A, P> {
    /// Wrap `inner`, counting its sends into `sends`.
    pub fn new(inner: P, sends: Arc<RoundSends>) -> Self {
        Timed {
            inner,
            on_message: Calls::default(),
            on_round: Calls::default(),
            sends,
            sample_every: 0,
            sample_phase: 0,
            sampled: Vec::new(),
        }
    }

    /// Also keep every `every`-th payload delivered to this member,
    /// starting with its `phase`-th. Give each member another phase: a
    /// member's first deliveries are all phase-1 votes, so a sample
    /// that starts at 0 everywhere is mostly the smallest payloads.
    #[must_use]
    pub fn sampling(mut self, every: u64, phase: u64) -> Self {
        self.sample_every = every;
        self.sample_phase = phase % every.max(1);
        self
    }

    fn sent(&self, round: Round, count: usize) {
        if count > 0 {
            // a round past the table would be a run past the engine's
            // own round cap; count it in the last slot rather than panic
            let slot = (round as usize).min(self.sends.0.len() - 1);
            self.sends.0[slot].fetch_add(count as u64, Relaxed);
        }
    }
}

impl<A: Clone + std::fmt::Debug, P: AggregationProtocol<A>> AggregationProtocol<A> for Timed<A, P> {
    fn on_round(&mut self, ctx: &mut Ctx<'_>, out: &mut Outbox<A>) {
        let before = out.len();
        let inner = &mut self.inner;
        self.on_round.call(|| inner.on_round(ctx, out));
        self.sent(ctx.round, out.len() - before);
    }

    fn on_message(
        &mut self,
        from: MemberId,
        payload: Payload<A>,
        ctx: &mut Ctx<'_>,
        out: &mut Outbox<A>,
    ) {
        if self.sample_every > 0 && self.on_message.calls % self.sample_every == self.sample_phase {
            self.sampled.push(payload.clone());
        }
        let before = out.len();
        let inner = &mut self.inner;
        self.on_message
            .call(|| inner.on_message(from, payload, ctx, out));
        self.sent(ctx.round, out.len() - before);
    }

    fn estimate(&self) -> Option<&Tagged<A>> {
        self.inner.estimate()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn completed_at(&self) -> Option<Round> {
        self.inner.completed_at()
    }
}

/// What a whole group's wrappers saw, summed.
#[derive(Debug)]
pub struct GroupTally<A> {
    /// Seconds inside `on_message` (estimated from the timed calls).
    pub on_message_s: f64,
    /// `on_message` calls.
    pub on_message_calls: u64,
    /// Seconds inside `on_round` (estimated from the timed calls).
    pub on_round_s: f64,
    /// `on_round` calls.
    pub on_round_calls: u64,
    /// The kept payloads.
    pub sampled: Vec<Payload<A>>,
}

impl<A> GroupTally<A> {
    /// Sum the members' tallies.
    pub fn sum<P>(members: Vec<Timed<A, P>>) -> Self {
        let (mut on_message, mut on_round) = (Calls::default(), Calls::default());
        let mut sampled = Vec::new();
        for member in members {
            on_message.add(member.on_message);
            on_round.add(member.on_round);
            sampled.extend(member.sampled);
        }
        GroupTally {
            on_message_s: on_message.seconds(),
            on_message_calls: on_message.calls,
            on_round_s: on_round.seconds(),
            on_round_calls: on_round.calls,
            sampled,
        }
    }
}
