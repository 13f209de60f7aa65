//! The round-driven simulation engine.
//!
//! Wires a `Group`, a
//! [`SimNetwork`], a
//! [`FailureProcess`], and one
//! protocol instance per member; advances rounds until every surviving
//! member terminates (or a round cap is hit); and produces a
//! [`RunReport`].
//!
//! Round structure (paper §7 semantics):
//! 1. crash injection for this round,
//! 2. delivery of due messages to *alive* members,
//! 3. one protocol step (`on_round`) at each alive, unfinished member,
//! 4. submission of all emitted gossip to the lossy network.
//!
//! The protocol is "started simultaneously at all members" (round 0);
//! thereafter members proceed asynchronously. A staggered start
//! ([`Simulation::with_start_rounds`]) gives member `i` its own start
//! round, and the first message to reach it starts it sooner.
//!
//! The round loop is **event-driven**: instead of scanning all `N`
//! members every round, it visits only the *active* members — started,
//! or with their staggered start round arrived, and not yet done. Done
//! and not-yet-due members cost nothing per round, which is what makes
//! million-member runs affordable once most of the group has finished.
//!
//! **Step order is home order after round 0.** Within a round members
//! step one after another, and any order is a valid execution of the
//! round: the order is the simulator's choice, not the protocol's. A
//! protocol may announce a home key for its member
//! ([`Ctx::home`](crate::protocol::Ctx::home)); hiergossip announces its
//! rank in (box, id) order, since its phases gossip inside subtrees. If
//! any member announced one during round 0, the engine lays members out
//! once when round 0 ends: announced members by key, then the rest in
//! id order (keys that collide or reach N leave id order). Member state
//! is stored, and each round visited, in that slot order from round 1
//! on, so a subtree's gossip touches neighbouring memory. Before that,
//! and for protocols that announce nothing, the order is ascending
//! member id. Outcomes and returned protocols are in member-id order
//! either way.
//!
//! **One step, one schedule.** Every rule of a round is written once:
//! [`protocol::step`](crate::protocol::step) is the only caller of the
//! protocol (the socket runtime calls it too), `Schedule` owns every
//! start / active / settled decision from two member sets (active, not
//! yet started) and the start rounds, and `Direct::send` is the only way
//! a message reaches the network. Members are stepped one after another
//! in slot order, so the single shared network RNG (loss and delay
//! draws live inside `SimNetwork::send`) consumes one stream per seed
//! and the whole run — trace bytes included — is a function of the
//! configuration and the seed. See DESIGN.md §16.

use gridagg_aggregate::wire::WireAggregate;
use gridagg_group::failure::{FailureProcess, LivenessEvent};
use gridagg_group::MemberId;
use gridagg_simnet::bitset::DenseBitSet;
use gridagg_simnet::network::{SendOutcome, SimNetwork};
use gridagg_simnet::rng::DetRng;
use gridagg_simnet::Round;

use crate::message::Payload;
use crate::metrics::{MemberOutcome, RunReport};
use crate::protocol::{member_streams, step, AggregationProtocol, Effects, Outbox};
use crate::trace::{DynSink, NoTrace, TraceEvent, TraceSink};

/// Effects applied as the step makes them: straight into the network
/// and the trace.
struct Direct<'a, A, S> {
    net: &'a mut SimNetwork<Payload<A>>,
    sink: &'a mut S,
    /// [`Payload::wire_size`] of the fan-out being sent.
    bytes: u32,
    /// Home keys announced in round 0, by member id ([`NO_HOME`] for
    /// none); empty until the first.
    homes: Vec<u32>,
    /// Members in the run while round 0 records homes; 0 after.
    recording: usize,
}

impl<A: WireAggregate, S: TraceSink> Effects<A> for Direct<'_, A, S> {
    fn sink(&mut self) -> Option<&mut dyn DynSink> {
        S::ENABLED.then_some(self.sink)
    }

    // The only place a message touches the network, so the shared net
    // RNG (loss + delay draws in `SimNetwork::send`) consumes one
    // stream per seed.
    fn send(&mut self, round: Round, from: MemberId, to: MemberId, msg: Payload<A>, shared: bool) {
        if !shared {
            self.bytes = msg.wire_size();
        }
        let bytes = self.bytes;
        let outcome = self.net.send(round, from, to, msg, bytes);
        if S::ENABLED {
            self.sink.record(TraceEvent::Send {
                from,
                to,
                round,
                bytes: u64::from(bytes),
            });
            if outcome == SendOutcome::DroppedLoss {
                self.sink.record(TraceEvent::DropLoss { from, to, round });
            }
        }
    }

    // The layout is made once, from round 0's keys.
    fn home(&mut self, member: MemberId, key: u32) {
        if self.recording == 0 {
            return;
        }
        if self.homes.is_empty() {
            self.homes = vec![NO_HOME; self.recording];
        }
        self.homes[member.index()] = key;
    }
}

/// No home key announced (a key of `u32::MAX` reads as none).
const NO_HOME: u32 = u32::MAX;

/// Where members are stored, and so the order a round visits them in.
/// Empty tables are the identity: slot `i` holds member `i`.
#[derive(Debug, Default)]
struct Layout {
    /// The member in each slot.
    order: Vec<u32>,
    /// Each member's slot.
    slot: Vec<u32>,
}

impl Layout {
    #[inline]
    fn slot(&self, member: MemberId) -> usize {
        match self.slot.get(member.index()) {
            Some(&at) => at as usize,
            None => member.index(),
        }
    }

    #[inline]
    fn member(&self, at: usize) -> MemberId {
        MemberId(self.order.get(at).copied().unwrap_or(at as u32))
    }

    /// Lay members out by the keys `homes[id]` announced in round 0
    /// ([`NO_HOME`] for none): announced members by key, then the rest
    /// in id order. Keys are distinct ranks below `n` (hiergossip's), so
    /// each is placed directly; if two collide or one is `n` or more, the
    /// layout stays the identity. `protocols` and `rngs` are rearranged
    /// in place, `sched`'s sets relabelled, and `homes` becomes the slot
    /// table.
    fn from_homes<P>(
        mut homes: Vec<u32>,
        protocols: &mut [P],
        rngs: &mut [DetRng],
        sched: &mut Schedule,
    ) -> Self {
        let n = homes.len();
        let mut order = vec![NO_HOME; n];
        for (id, &key) in homes.iter().enumerate() {
            if key == NO_HOME {
                continue;
            }
            match order.get_mut(key as usize) {
                Some(at) if *at == NO_HOME => *at = id as u32,
                _ => return Layout::default(),
            }
        }
        order.retain(|&id| id != NO_HOME);
        order.extend((0..n as u32).filter(|&id| homes[id as usize] == NO_HOME));
        permute(&order, &mut homes, |a, b| {
            protocols.swap(a, b);
            rngs.swap(a, b);
        });
        let mut slot = homes;
        for (at, &id) in order.iter().enumerate() {
            slot[id as usize] = at as u32;
        }
        sched.relabel(&slot);
        Layout { order, slot }
    }

    /// Put `items`, stored by slot, back in member-id order, and become
    /// the identity.
    fn restore<T>(&mut self, items: &mut [T]) {
        if !self.slot.is_empty() {
            permute(&self.slot, &mut self.order, |a, b| items.swap(a, b));
            *self = Layout::default();
        }
    }
}

/// Rearrange a slice in place so that position `s` takes what was at
/// `from[s]`, by calling `swap` along each cycle of the permutation;
/// `seen` is scratch as long as `from`, overwritten.
fn permute(from: &[u32], seen: &mut [u32], mut swap: impl FnMut(usize, usize)) {
    seen.fill(0);
    for start in 0..from.len() {
        if seen[start] != 0 {
            continue;
        }
        seen[start] = 1;
        let mut at = start;
        while from[at] as usize != start {
            let src = from[at] as usize;
            swap(at, src);
            seen[src] = 1;
            at = src;
        }
    }
}

/// Event-driven scheduling state: every rule deciding which members a
/// round has work for and when the run has settled. Both sets hold
/// slots (see [`Layout`]).
#[derive(Debug)]
struct Schedule {
    /// Started, or with their start round arrived, and not yet done:
    /// the members a round visits.
    active: DenseBitSet,
    /// Not started yet: waiting for their start round, or an earlier
    /// gossip wake-up. A member whose start round has arrived starts at
    /// its next alive visit.
    unstarted: DenseBitSet,
    /// Nobody alive has anything left to do this round.
    all_settled: bool,
    protocol_steps: u64,
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
impl Schedule {
    /// Members with a start round above 0 wait in `unstarted`; the rest
    /// start in round 0 and are active unless already done.
    fn new(n: usize, starts: &[Round], is_done: impl Fn(usize) -> bool) -> Self {
        let mut sched = Schedule {
            active: DenseBitSet::with_capacity(n),
            unstarted: DenseBitSet::with_capacity(n),
            all_settled: false,
            protocol_steps: 0,
        };
        for i in 0..n {
            if starts.get(i).is_some_and(|&r| r > 0) {
                sched.unstarted.insert(i);
            } else if !is_done(i) {
                sched.active.insert(i);
            }
        }
        sched
    }

    /// `member`, in slot `at`, starts now if it has not yet: at its
    /// official round, or earlier because a protocol message reached it.
    fn start<S: TraceSink>(&mut self, member: MemberId, at: usize, round: Round, sink: &mut S) {
        if self.unstarted.remove(at) && S::ENABLED {
            sink.record(TraceEvent::Start { member, round });
        }
    }

    /// A message reaches an alive member, in slot `at`, waking it if it
    /// has not started yet.
    fn on_delivery<S: TraceSink>(
        &mut self,
        from: MemberId,
        (to, at): (MemberId, usize),
        sent_at: Round,
        round: Round,
        sink: &mut S,
    ) {
        if S::ENABLED {
            sink.record(TraceEvent::Deliver {
                from,
                to,
                round,
                sent_at,
            });
        }
        self.start(to, at, round, sink);
    }

    /// Open the visit phase: unstarted members whose start round has
    /// come join `active`, and the visit set is `active` in ascending
    /// slot order, materialised so the sets can be edited while
    /// visiting.
    fn begin_visits(
        &mut self,
        round: Round,
        starts: &[Round],
        (failure, layout): (&FailureProcess, &Layout),
        visit: &mut Vec<u32>,
    ) {
        self.all_settled = true;
        for at in self.unstarted.iter() {
            let member = layout.member(at);
            if starts[member.index()] <= round {
                self.active.insert(at);
            } else if failure.is_alive(member) {
                // an alive member still waiting for its start round
                // keeps the run open, even though nothing visits it yet
                self.all_settled = false;
            }
        }
        visit.clear();
        visit.extend(self.active.iter().map(|i| i as u32));
    }

    /// The round's visit reaches `member`, in slot `at`; returns
    /// whether `on_round` runs there. A crashed member is not called and
    /// stays active, to resume on recovery; a done one drops out of the
    /// visit set.
    fn on_visit<S: TraceSink>(
        &mut self,
        (member, at): (MemberId, usize),
        round: Round,
        alive: bool,
        done: bool,
        sink: &mut S,
    ) -> bool {
        if !alive {
            return false;
        }
        // a due member starting at its start round
        self.start(member, at, round, sink);
        if done {
            self.active.remove(at);
            return false;
        }
        self.all_settled = false;
        self.protocol_steps += 1;
        true
    }

    /// A protocol call can finish the member in slot `at` (drop it from
    /// the visit set) or, for a message, re-arm a finished one (put it
    /// back).
    #[inline]
    fn after_step(&mut self, at: usize, now_done: bool) {
        if now_done {
            self.active.remove(at);
        } else {
            self.active.insert(at);
        }
    }

    /// Move both sets from member ids to the slots `slot[id]`.
    fn relabel(&mut self, slot: &[u32]) {
        for set in [&mut self.active, &mut self.unstarted] {
            let mut moved = DenseBitSet::with_capacity(slot.len());
            for id in set.iter() {
                moved.insert(slot[id] as usize);
            }
            *set = moved;
        }
    }
}

/// The assembled simulation for one run.
#[derive(Debug)]
pub struct Simulation<A, P> {
    net: SimNetwork<Payload<A>>,
    /// Member state by slot ([`Layout`]), as are `rngs`.
    protocols: Vec<P>,
    failure: FailureProcess,
    rngs: Vec<DetRng>,
    layout: Layout,
    true_value: f64,
    max_rounds: Round,
    /// Member `i` starts at `start_rounds[i]`; empty: all in round 0.
    start_rounds: Vec<Round>,
}

impl<A: WireAggregate, P: AggregationProtocol<A>> Simulation<A, P> {
    /// Assemble a simulation.
    ///
    /// `protocols[i]` is member `i`'s instance; `seed` drives the
    /// per-member random streams (network and failure processes carry
    /// their own forks of the same run seed); `true_value` is the ground
    /// truth the report compares estimates against.
    ///
    /// # Panics
    ///
    /// Panics if `protocols` is empty.
    pub fn new(
        net: SimNetwork<Payload<A>>,
        protocols: Vec<P>,
        failure: FailureProcess,
        seed: u64,
        true_value: f64,
        max_rounds: Round,
    ) -> Self {
        assert!(!protocols.is_empty(), "simulation needs members");
        let root = member_streams(seed);
        let rngs = (0..protocols.len()).map(|i| root.fork(i as u64)).collect();
        Simulation {
            net,
            protocols,
            failure,
            rngs,
            layout: Layout::default(),
            true_value,
            max_rounds,
            start_rounds: Vec::new(),
        }
    }

    /// Ignored; kept only so `benchmark/` compiles; deleted with
    /// ROADMAP item 1.
    #[must_use]
    pub fn with_engine_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Stagger protocol initiation: member `i` starts at
    /// `start_rounds[i]` — *or earlier*, as soon as the first protocol
    /// message reaches it (gossip-triggered initiation).
    ///
    /// This models the paper's relaxation of the "initiated
    /// simultaneously at all members" assumption: "our results apply in
    /// cases such as a multicast being used for protocol initiation" —
    /// a multicast reaches members at slightly different times, and the
    /// gossip itself wakes up anyone the multicast missed.
    ///
    /// # Panics
    ///
    /// Panics if `start_rounds.len()` differs from the member count.
    pub fn with_start_rounds(mut self, start_rounds: Vec<Round>) -> Self {
        assert_eq!(
            start_rounds.len(),
            self.protocols.len(),
            "one start round per member"
        );
        self.start_rounds = start_rounds;
        self
    }

    /// Run to completion (all alive members done) or to the round cap,
    /// consuming the simulation and returning the report.
    ///
    /// Equivalent to [`Simulation::run_with`] with tracing disabled.
    pub fn run(self) -> RunReport {
        self.run_with(&mut NoTrace)
    }

    /// Run, narrating the run to `sink` as [`TraceEvent`]s.
    ///
    /// With the default [`NoTrace`] sink every emission site compiles
    /// away (`S::ENABLED` is `const false`), so the traced and untraced
    /// paths execute identical protocol and network decisions: tracing
    /// never perturbs a run, it only observes it.
    pub fn run_with<S: TraceSink>(mut self, sink: &mut S) -> RunReport {
        self.drive(sink)
    }

    /// [`Simulation::run_with`], also reporting where each member's
    /// random stream stands (its next draw): tracing must not move it,
    /// and a protocol that never reads its stream shows it nowhere else.
    #[cfg(test)]
    pub(crate) fn run_with_streams<S: TraceSink>(mut self, sink: &mut S) -> (RunReport, Vec<u64>) {
        let report = self.drive(sink);
        self.layout.restore(&mut self.rngs);
        let streams = self.rngs.iter_mut().map(|r| r.raw().next_u64());
        (report, streams.collect())
    }

    /// Run like [`Simulation::run`], but hand the protocol instances
    /// back alongside the report. The continuous aggregation service
    /// ([`crate::continuous`]) uses this to carry long-lived protocol
    /// state (e.g. Flow-Updating flows) across epoch boundaries.
    pub fn run_returning(mut self) -> (RunReport, Vec<P>) {
        let report = self.drive(&mut NoTrace);
        self.layout.restore(&mut self.protocols);
        (report, self.protocols)
    }

    // The engine round loop: N=10^6 members visit this code every
    // round, so allocations must be per-run scratch, not per-round.
    fn drive<S: TraceSink>(&mut self, sink: &mut S) -> RunReport {
        let n = self.protocols.len();
        let starts = &self.start_rounds[..];
        let mut sched = Schedule::new(n, starts, |i| self.protocols[i].is_done());
        let (failure, layout) = (&mut self.failure, &mut self.layout);
        let (protocols, rngs) = (&mut self.protocols[..], &mut self.rngs[..]);
        let mut fx = Direct {
            net: &mut self.net,
            sink,
            bytes: 0,
            homes: Vec::new(),
            recording: n,
        };
        let mut out = Outbox::new();
        // Delivery and visit scratch, reused every round. `drain_into`
        // exchanges `delivery` for the network's due bucket and keeps
        // the emptied one for the next round's sends, so the run
        // cycles two delivery buffers; `begin_visits` refills `visit`
        // in place. The steady state is zero per-round allocation.
        let mut delivery = Vec::new();
        let mut visit: Vec<u32> = Vec::new();
        let mut round: Round = 0;

        if S::ENABLED {
            for i in (0..n).filter(|&i| !sched.unstarted.contains(i)) {
                fx.sink.record(TraceEvent::Start {
                    member: MemberId(i as u32),
                    round: 0,
                });
            }
        }
        loop {
            // 1. crash injection
            let liveness = failure.step(round);
            if S::ENABLED {
                for ev in &liveness {
                    fx.sink.record(match *ev {
                        LivenessEvent::Crashed(member) => TraceEvent::Crash { member, round },
                        LivenessEvent::Recovered(member) => TraceEvent::Recover { member, round },
                    });
                }
            }

            // 2. deliver due messages to alive members
            fx.net.drain_into(round, &mut delivery);
            for env in delivery.drain(..) {
                if !failure.is_alive(env.to) {
                    continue;
                }
                let (to, at) = (env.to, layout.slot(env.to));
                sched.on_delivery(env.from, (to, at), env.sent_at, round, fx.sink);
                let (proto, rng) = (&mut protocols[at], &mut rngs[at]);
                let done = step(proto, rng, to, round, n, Some(env), &mut out, &mut fx);
                sched.after_step(at, done);
            }

            // 3.+4. step alive, started, unfinished members, by slot
            sched.begin_visits(round, starts, (failure, layout), &mut visit);
            for &at in &visit {
                let (me, at) = (layout.member(at as usize), at as usize);
                let (alive, done) = (failure.is_alive(me), protocols[at].is_done());
                if sched.on_visit((me, at), round, alive, done, fx.sink) {
                    let (proto, rng) = (&mut protocols[at], &mut rngs[at]);
                    let done = step(proto, rng, me, round, n, None, &mut out, &mut fx);
                    sched.after_step(at, done);
                }
            }
            if round == 0 {
                fx.recording = 0;
                if !fx.homes.is_empty() {
                    let homes = std::mem::take(&mut fx.homes);
                    *layout = Layout::from_homes(homes, protocols, rngs, &mut sched);
                }
            }

            round += 1;
            if sched.all_settled || round >= self.max_rounds {
                break;
            }
        }

        let outcomes = (0..n)
            .map(|i| {
                let p = &self.protocols[self.layout.slot(MemberId(i as u32))];
                if let (true, Some(est)) = (p.is_done(), p.estimate()) {
                    // no vote counted twice, checked in every build: a
                    // counted contributor set cannot see an overlap when
                    // it merges, but one that lifts its count past the
                    // group shows here
                    let completeness = est.completeness(n);
                    assert!(
                        completeness <= 1.0,
                        "member {i} completed with completeness {completeness} above 1: \
                         a vote was counted twice"
                    );
                    MemberOutcome::Completed {
                        completeness,
                        value: est
                            .aggregate()
                            .map_or(f64::NAN, gridagg_aggregate::Aggregate::summary),
                        at: p.completed_at().unwrap_or(round),
                    }
                } else if !self.failure.is_alive(MemberId(i as u32)) {
                    MemberOutcome::Crashed
                } else {
                    MemberOutcome::TimedOut
                }
            })
            .collect();

        RunReport {
            n,
            rounds: round,
            outcomes,
            true_value: self.true_value,
            net: self.net.stats().clone(),
            protocol_steps: sched.protocol_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hiergossip::{HierGossip, HierGossipConfig};
    use crate::scope::ScopeIndex;
    use gridagg_aggregate::Average;
    use gridagg_group::failure::FailureModel;
    use gridagg_group::view::View;
    use gridagg_group::{GroupBuilder, VoteDistribution};
    use gridagg_hierarchy::{FairHashPlacement, Hierarchy};
    use gridagg_simnet::network::NetworkConfig;

    fn hier_sim(n: usize, seed: u64) -> Simulation<Average, HierGossip<Average>> {
        hier_sim_with(n, seed, 0.0, FailureModel::None)
    }

    /// Hiergossip over `n` members voting `0..n`, with uniform `loss`
    /// and the `failures` model.
    fn hier_sim_with(
        n: usize,
        seed: u64,
        loss: f64,
        failures: FailureModel,
    ) -> Simulation<Average, HierGossip<Average>> {
        let group = GroupBuilder::new(n)
            .votes(VoteDistribution::Index)
            .seed(seed)
            .build();
        let h = Hierarchy::for_group(4, n).unwrap();
        let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, seed));
        let protocols = group
            .members()
            .iter()
            .map(|m| HierGossip::new(m.id, m.vote, index.clone(), HierGossipConfig::default()))
            .collect();
        let mut net = NetworkConfig::default();
        if loss > 0.0 {
            net = net.with_loss(gridagg_simnet::loss::UniformLoss::new(loss).unwrap());
        }
        let net = SimNetwork::new(net, seed);
        let failure = FailureProcess::new(failures, n, seed);
        let truth = (n as f64 - 1.0) / 2.0; // mean of 0..n-1
        Simulation::new(net, protocols, failure, seed, truth, 10_000)
    }

    #[test]
    fn perfect_network_reaches_full_completeness() {
        let report = hier_sim(64, 3).run();
        assert_eq!(report.completed(), 64);
        assert_eq!(report.crashed(), 0);
        // near-1.0: a rare straggler race can shave a subtree (see
        // runner tests); this seed completes fully
        assert!(report.mean_completeness().unwrap() > 0.99);
        assert!(report.mean_value_error().unwrap() < 1e-2);
    }

    #[test]
    fn different_seeds_differ() {
        let a = hier_sim(50, 1).run();
        let b = hier_sim(50, 2).run();
        assert_ne!(a.net.sent, b.net.sent);
    }

    #[test]
    fn message_complexity_near_n_log2_n() {
        // messages ≈ N · phases · rounds/phase · M; for N=64, K=4, M=2:
        // phases ≈ 3, rpp ≈ 6 ⇒ ≈ 2300; assert the right order.
        let report = hier_sim(64, 5).run();
        let msgs = report.messages() as f64;
        assert!(msgs > 500.0 && msgs < 10_000.0, "messages {msgs}");
    }

    #[test]
    fn time_complexity_is_polylog() {
        let r64 = hier_sim(64, 5).run();
        let r512 = hier_sim(512, 5).run();
        // rounds grow far slower than N: 8× group → < 3× rounds
        assert!(
            (r512.rounds as f64) < 3.0 * r64.rounds as f64,
            "{} vs {}",
            r512.rounds,
            r64.rounds
        );
    }

    #[test]
    fn crash_recovery_members_resume_and_complete() {
        // §2 model: members "arbitrarily suffer crash failures and then
        // recover". A recovered member resumes with its state intact
        // (crash-recovery with stable storage) and can still finish.
        let n = 64;
        let churn = FailureModel::PerRoundWithRecovery { pf: 0.05, pr: 0.5 };
        let report = hier_sim_with(n, 17, 0.0, churn).run();
        // with fast recovery nearly everyone completes, despite ~5%/round churn
        assert!(
            report.completed() > n * 3 / 4,
            "only {} of {n} completed under churn",
            report.completed()
        );
        assert!(report.mean_completeness().unwrap() > 0.5);
    }

    #[test]
    fn staggered_start_still_completes() {
        // members start over a 5-round window (multicast initiation);
        // gossip wakes the rest; completeness stays high
        let n = 64;
        let starts: Vec<Round> = (0..n as u64).map(|i| i % 5).collect();
        let report = hier_sim(n, 8).with_start_rounds(starts).run();
        assert_eq!(report.completed(), n);
        assert!(report.mean_completeness().unwrap() > 0.95);
    }

    #[test]
    fn late_member_woken_by_gossip() {
        // one member officially starts absurdly late, but phase-1
        // gossip from its box mates wakes it almost immediately
        let n = 16;
        let mut starts = vec![0 as Round; n];
        starts[3] = 1_000_000; // would never start on its own
        let report = hier_sim(n, 4).with_start_rounds(starts).run();
        // the sleeper finished long before its official start round
        assert!(report.rounds < 1000, "ran {} rounds", report.rounds);
        assert_eq!(report.completed(), n);
    }

    #[test]
    fn members_start_at_their_start_round_or_on_an_earlier_delivery() {
        // total loss: nobody is woken, so every member starts exactly at
        // its own round; some loss: gossip wakes some members early
        let n = 64;
        let starts: Vec<Round> = (0..n as u64).map(|i| i * 7 % 6).collect();
        for (loss, seed) in [(1.0, 9), (0.25, 9)] {
            let mut sim =
                hier_sim_with(n, seed, loss, FailureModel::None).with_start_rounds(starts.clone());
            sim.max_rounds = 12;
            let mut trace = crate::trace::RunTrace::for_group(n);
            sim.run_with(&mut trace);
            let mut delivered = vec![Round::MAX; n];
            let mut started = vec![None; n];
            for event in &trace.events {
                match *event {
                    TraceEvent::Deliver { to, round, .. } => {
                        delivered[to.index()] = delivered[to.index()].min(round);
                    }
                    TraceEvent::Start { member, round } => {
                        assert_eq!(started[member.index()], None, "{member} started twice");
                        started[member.index()] = Some(round);
                    }
                    _ => {}
                }
            }
            for i in 0..n {
                let want = starts[i].min(delivered[i]);
                assert_eq!(started[i], Some(want), "loss {loss}: member {i}");
            }
            let woken = (0..n).filter(|&i| delivered[i] < starts[i]).count();
            assert_eq!(woken > 0, loss < 1.0, "loss {loss}: {woken} woken early");
        }
    }

    #[test]
    fn event_loop_visits_only_members_with_pending_work() {
        // 100% loss so gossip never wakes the sleeper, and a round cap
        // below the schedule end so nobody finishes: the 7 started
        // members are visited every round, the never-started member 7
        // exactly never. The dense scan would have touched all 8.
        let n = 8;
        let mut starts = vec![0 as Round; n];
        starts[7] = 1_000_000; // due far beyond the cap: never visited
        let mut sim = hier_sim_with(n, 2, 1.0, FailureModel::None).with_start_rounds(starts);
        sim.max_rounds = 5;
        let report = sim.run();
        assert_eq!(report.rounds, 5);
        assert_eq!(report.protocol_steps, 7 * 5);
    }

    #[test]
    fn done_members_drop_out_of_the_round_loop() {
        // on a perfect network every member finishes at the schedule
        // end, and the settling round that detects termination visits
        // nobody — so steps stay strictly below the dense-scan n*rounds
        let report = hier_sim(64, 3).run();
        assert!(report.protocol_steps > 0);
        assert!(
            report.protocol_steps < 64 * report.rounds,
            "steps {} vs dense {}",
            report.protocol_steps,
            64 * report.rounds
        );
    }

    #[test]
    fn trace_narrates_the_run_consistently() {
        let n = 64;
        let mut trace = crate::trace::RunTrace::for_group(n);
        let report = hier_sim(n, 3).run_with(&mut trace);

        // network accounting and the trace agree message-for-message
        let hist = trace.per_round_messages();
        let sent: u64 = hist.iter().map(|h| h.sent).sum();
        let delivered: u64 = hist.iter().map(|h| h.delivered).sum();
        assert_eq!(sent, report.net.sent);
        assert_eq!(delivered, report.net.delivered);

        // every member started in round 0 and terminated
        let terms = trace.terminations();
        assert_eq!(terms.iter().filter(|t| t.is_some()).count(), n);

        // phase timelines exist and are monotone in round
        for tl in trace.phase_timelines() {
            assert!(!tl.is_empty(), "hiergossip members change phases");
            for w in tl.windows(2) {
                assert!(w[0].at <= w[1].at);
            }
        }

        // incompleteness falls from near 1 to the report's terminal value
        let curve = trace.incompleteness_over_time();
        assert_eq!(curve.len() as Round, report.rounds);
        assert!(curve[0] > 0.9, "round 0: members only know themselves");
        let last = *curve.last().unwrap();
        assert!(
            last <= report.mean_incompleteness() + 1e-9,
            "curve must reach terminal incompleteness: {last}"
        );
    }

    fn batch(k: u32) -> Payload<Average> {
        Payload::VoteBatch {
            votes: (0..k).map(|i| (MemberId(i), 1.0)).collect(),
            skip: 0,
            reply: false,
        }
    }

    /// Queues the same fan-outs every round and never finishes, or,
    /// holding an estimate, is done with it from the start.
    #[derive(Debug)]
    struct Script(Option<gridagg_aggregate::Tagged<Average>>);

    impl AggregationProtocol<Average> for Script {
        // fan-outs of different sizes back to back, singles in between
        fn on_round(&mut self, _: &mut crate::protocol::Ctx<'_>, out: &mut Outbox<Average>) {
            out.send_many([MemberId(1), MemberId(2), MemberId(3)], batch(4));
            out.send_many([MemberId(4), MemberId(5)], batch(1));
            out.send(MemberId(6), batch(9));
            out.send_many([MemberId(7)], batch(2));
            out.send_many([], batch(3));
        }
        fn on_message(
            &mut self,
            _: MemberId,
            _: Payload<Average>,
            _: &mut crate::protocol::Ctx<'_>,
            _: &mut Outbox<Average>,
        ) {
        }
        fn estimate(&self) -> Option<&gridagg_aggregate::Tagged<Average>> {
            self.0.as_ref()
        }
        fn is_done(&self) -> bool {
            self.0.is_some()
        }
        fn completed_at(&self) -> Option<Round> {
            self.0.as_ref().map(|_| 0)
        }
    }

    #[test]
    fn every_fan_out_copy_is_charged_its_own_wire_size() {
        let sent = [(1, 4), (2, 4), (3, 4), (4, 1), (5, 1), (6, 9), (7, 2)];
        let charged = sent.map(|(to, k)| (MemberId(to), u64::from(batch(k).wire_size())));
        assert_eq!(charged.map(|(_, b)| b), [38, 38, 38, 11, 11, 83, 20]);
        let n = 128;
        let net = SimNetwork::new(NetworkConfig::default(), 1);
        let failure = FailureProcess::new(FailureModel::None, n, 1);
        let mut trace = crate::trace::RunTrace::for_group(n);
        let members = (0..n).map(|_| Script(None)).collect();
        Simulation::new(net, members, failure, 1, 0.0, 1).run_with(&mut trace);
        let sends: Vec<_> = trace
            .events
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::Send { to, bytes, .. } => Some((to, bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(sends, charged.repeat(n));
    }

    /// Announces `key` in round 0 (if any), sends one vote to member 0
    /// every round, and finishes with its own vote after `rounds`.
    #[derive(Debug)]
    struct Homed {
        id: u32,
        key: Option<u32>,
        rounds: Round,
        est: Option<gridagg_aggregate::Tagged<Average>>,
    }

    impl AggregationProtocol<Average> for Homed {
        fn on_round(&mut self, ctx: &mut crate::protocol::Ctx<'_>, out: &mut Outbox<Average>) {
            if let (0, Some(key)) = (ctx.round, self.key) {
                ctx.home(key);
            }
            out.send(MemberId(0), batch(1));
            if ctx.round + 1 >= self.rounds {
                let id = self.id as usize;
                self.est = Some(gridagg_aggregate::Tagged::from_vote(id, 1.0, 8));
            }
        }
        fn on_message(
            &mut self,
            _: MemberId,
            _: Payload<Average>,
            _: &mut crate::protocol::Ctx<'_>,
            _: &mut Outbox<Average>,
        ) {
        }
        fn estimate(&self) -> Option<&gridagg_aggregate::Tagged<Average>> {
            self.est.as_ref()
        }
        fn is_done(&self) -> bool {
            self.est.is_some()
        }
        fn completed_at(&self) -> Option<Round> {
            self.est.as_ref().map(|_| self.rounds - 1)
        }
    }

    /// Eight [`Homed`] members, member `i` announcing `keys[i]` and
    /// finishing after `2 + i % 3` rounds.
    fn homed(keys: [Option<u32>; 8]) -> Simulation<Average, Homed> {
        let n = keys.len();
        let members = (0..n as u32)
            .map(|id| Homed {
                id,
                key: keys[id as usize],
                rounds: 2 + Round::from(id % 3),
                est: None,
            })
            .collect();
        let net = SimNetwork::new(NetworkConfig::default(), 1);
        let failure = FailureProcess::new(FailureModel::None, n, 1);
        Simulation::new(net, members, failure, 1, 1.0, 10)
    }

    /// The senders of each round's sends, in step order.
    fn step_order(trace: &crate::trace::RunTrace) -> Vec<Vec<u32>> {
        let mut rounds: Vec<Vec<u32>> = Vec::new();
        for event in &trace.events {
            if let TraceEvent::Send { from, round, .. } = *event {
                rounds.resize_with(rounds.len().max(round as usize + 1), Vec::new);
                rounds[round as usize].push(from.0);
            }
        }
        rounds
    }

    #[test]
    fn members_step_in_home_order_from_round_one() {
        let none = None;
        // reverse ranks; some members silent
        let cases = [
            ([7, 6, 5, 4, 3, 2, 1, 0].map(Some), [7, 6, 5, 4, 3, 2, 1, 0]),
            (
                [none, Some(7), none, Some(5), none, Some(3), none, Some(1)],
                [7, 5, 3, 1, 0, 2, 4, 6],
            ),
        ];
        for (keys, order) in cases {
            let mut trace = crate::trace::RunTrace::for_group(8);
            homed(keys).run_with(&mut trace);
            let rounds = step_order(&trace);
            assert_eq!(
                rounds[0],
                [0, 1, 2, 3, 4, 5, 6, 7],
                "{keys:?}: round 0 by id"
            );
            assert_eq!(rounds[1], order, "{keys:?}: round 1 by key");
            // members finish after 2, 3 or 4 rounds; the rest keep the order
            let left: Vec<u32> = order.into_iter().filter(|id| id % 3 != 0).collect();
            assert_eq!(rounds[2], left, "{keys:?}: round 2");
        }
        // nothing announced, or keys that are not ranks: id order
        let tied = [Some(3), Some(3), none, none, none, none, none, Some(1)];
        let past_n = [none, none, Some(8), none, none, none, none, none];
        for keys in [[None; 8], tied, past_n] {
            let mut trace = crate::trace::RunTrace::for_group(8);
            homed(keys).run_with(&mut trace);
            assert_eq!(step_order(&trace)[1], [0, 1, 2, 3, 4, 5, 6, 7], "{keys:?}");
        }
    }

    #[test]
    fn outcomes_and_returned_members_are_in_id_order() {
        let keys = [7, 6, 5, 4, 3, 2, 1, 0].map(Some);
        let (report, members) = homed(keys).run_returning();
        let ids: Vec<u32> = members.iter().map(|m| m.id).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4, 5, 6, 7]);
        let at: Vec<Round> = report
            .outcomes
            .iter()
            .map(|o| match *o {
                MemberOutcome::Completed { at, .. } => at,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(at, [1, 2, 3, 1, 2, 3, 1, 2]);
        assert_eq!(report.outcomes, homed(keys).run().outcomes);
    }

    #[test]
    fn a_traced_run_reports_what_the_untraced_run_does() {
        // hiergossip announces homes: the layout must not see the sink
        let sim = || hier_sim_with(96, 5, 0.2, FailureModel::PerRound { pf: 0.002 });
        let (plain, plain_streams) = sim().run_with_streams(&mut NoTrace);
        let mut trace = crate::trace::RunTrace::for_group(96);
        let (traced, traced_streams) = sim().run_with_streams(&mut trace);
        assert_eq!(plain.rounds, traced.rounds);
        assert_eq!(plain.net, traced.net);
        assert_eq!(plain.outcomes, traced.outcomes);
        assert_eq!(plain.protocol_steps, traced.protocol_steps);
        assert_eq!(plain_streams, traced_streams);
        assert!(plain.crashed() > 0 && plain.net.dropped_loss > 0);
    }

    #[test]
    #[should_panic(expected = "above 1: a vote was counted twice")]
    fn completeness_above_one_panics() {
        let n = 4;
        let vote = |i| gridagg_aggregate::Tagged::<Average>::from_vote(i, 1.0, n);
        let mut est = vote(0);
        for i in 1..=n {
            est.try_merge(&vote(i)).expect("distinct members");
        }
        let net = SimNetwork::new(NetworkConfig::default(), 1);
        let failure = FailureProcess::new(FailureModel::None, n, 1);
        let members = (0..n).map(|_| Script(Some(est.clone()))).collect();
        Simulation::new(net, members, failure, 1, 1.0, 1).run();
    }

    #[test]
    #[should_panic(expected = "one start round per member")]
    fn start_rounds_length_checked() {
        let sim = hier_sim(8, 1);
        let _ = sim.with_start_rounds(vec![0; 3]);
    }

    #[test]
    #[should_panic(expected = "needs members")]
    fn empty_simulation_panics() {
        let net: SimNetwork<Payload<Average>> = SimNetwork::new(NetworkConfig::default(), 1);
        let failure = FailureProcess::new(FailureModel::None, 0, 1);
        let _: Simulation<Average, HierGossip<Average>> =
            Simulation::new(net, Vec::new(), failure, 1, 0.0, 10);
    }
}
