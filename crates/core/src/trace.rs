//! Run tracing: structured per-round events for observability.
//!
//! The simulation engine, the protocols, and the network can narrate a
//! run as a stream of [`TraceEvent`]s delivered to a [`TraceSink`]. The
//! default sink is [`NoTrace`], which compiles the entire layer away:
//! `Simulation::run` monomorphises over the sink type, every emission
//! site is guarded by the associated `const ENABLED`, and event payloads
//! are built inside closures that are never called when tracing is off.
//! A traced run and an untraced run of the same seed therefore execute
//! the same protocol decisions and produce byte-identical reports (see
//! the `traced_runner_matches_plain_runner` test in `runner`).
//!
//! [`RunTrace`] is the batteries-included sink: it records every event
//! in memory and derives the figures-of-merit the paper discusses over
//! time rather than only at termination — per-member phase timelines,
//! per-round message histograms, and the mean-incompleteness-over-time
//! curve (how quickly the group's estimates converge on all `N` votes).

use crate::json::{Json, ToJson};
use gridagg_group::MemberId;
use gridagg_simnet::Round;

/// One structured event in the life of a simulated run.
///
/// Every variant carries the round it happened in; message events carry
/// both endpoints. Events are emitted in deterministic simulation order,
/// so a trace is itself reproducible from the run's seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A member began executing the protocol (round 0, a staggered
    /// start, or a wake-up caused by the first delivered message).
    Start {
        /// The member that started.
        member: MemberId,
        /// Round it started in.
        round: Round,
    },
    /// A member crashed (fail-stop, per the paper's failure model).
    Crash {
        /// The member that crashed.
        member: MemberId,
        /// Round of the crash.
        round: Round,
    },
    /// A previously crashed member recovered.
    Recover {
        /// The member that recovered.
        member: MemberId,
        /// Round of the recovery.
        round: Round,
    },
    /// A message was handed to the network.
    Send {
        /// Sender.
        from: MemberId,
        /// Destination.
        to: MemberId,
        /// Round the send happened in.
        round: Round,
        /// Serialized size used for bandwidth accounting.
        bytes: u64,
    },
    /// A message was dropped by the loss model (`ucastl` / partitions /
    /// distance loss).
    DropLoss {
        /// Sender.
        from: MemberId,
        /// Intended destination.
        to: MemberId,
        /// Round of the drop.
        round: Round,
    },
    /// A message was delivered to its destination.
    Deliver {
        /// Sender.
        from: MemberId,
        /// Destination.
        to: MemberId,
        /// Delivery round.
        round: Round,
        /// Round the message was originally sent in.
        sent_at: Round,
    },
    /// A member moved to a new gossip phase (hierarchical protocols:
    /// gossip now spans the `phase`-level grid boxes).
    PhaseEnter {
        /// The member changing phase.
        member: MemberId,
        /// Round of the transition.
        round: Round,
        /// The phase being entered (1-based, as in the paper).
        phase: usize,
    },
    /// A member bumped to the next phase *early* because its current
    /// subtree was already complete (§6.3 early bump-off optimisation).
    EarlyBump {
        /// The member bumping early.
        member: MemberId,
        /// Round of the bump.
        round: Round,
        /// The phase being left early.
        phase: usize,
    },
    /// A member's running aggregate grew: it now covers `votes` of the
    /// group's `N` initial votes.
    Coverage {
        /// The member that learned something.
        member: MemberId,
        /// Round of the coverage change.
        round: Round,
        /// Votes covered by the member's current best aggregate.
        votes: u64,
    },
    /// A member terminated with its final estimate.
    Terminate {
        /// The member that terminated.
        member: MemberId,
        /// Termination round.
        round: Round,
        /// Fraction of the `N` initial votes the estimate covers.
        completeness: f64,
    },
}

impl TraceEvent {
    /// The round this event happened in.
    pub fn round(&self) -> Round {
        match *self {
            TraceEvent::Start { round, .. }
            | TraceEvent::Crash { round, .. }
            | TraceEvent::Recover { round, .. }
            | TraceEvent::Send { round, .. }
            | TraceEvent::DropLoss { round, .. }
            | TraceEvent::Deliver { round, .. }
            | TraceEvent::PhaseEnter { round, .. }
            | TraceEvent::EarlyBump { round, .. }
            | TraceEvent::Coverage { round, .. }
            | TraceEvent::Terminate { round, .. } => round,
        }
    }

    /// Short machine-readable name of the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Start { .. } => "start",
            TraceEvent::Crash { .. } => "crash",
            TraceEvent::Recover { .. } => "recover",
            TraceEvent::Send { .. } => "send",
            TraceEvent::DropLoss { .. } => "drop_loss",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::PhaseEnter { .. } => "phase_enter",
            TraceEvent::EarlyBump { .. } => "early_bump",
            TraceEvent::Coverage { .. } => "coverage",
            TraceEvent::Terminate { .. } => "terminate",
        }
    }
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("kind".into(), self.kind().to_json()),
            ("round".into(), self.round().to_json()),
        ];
        let mut member = |k: &str, m: MemberId| fields.push((k.into(), m.0.to_json()));
        match *self {
            TraceEvent::Start { member: m, .. }
            | TraceEvent::Crash { member: m, .. }
            | TraceEvent::Recover { member: m, .. } => member("member", m),
            TraceEvent::Send {
                from, to, bytes, ..
            } => {
                member("from", from);
                member("to", to);
                fields.push(("bytes".into(), bytes.to_json()));
            }
            TraceEvent::DropLoss { from, to, .. } => {
                member("from", from);
                member("to", to);
            }
            TraceEvent::Deliver {
                from, to, sent_at, ..
            } => {
                member("from", from);
                member("to", to);
                fields.push(("sent_at".into(), sent_at.to_json()));
            }
            TraceEvent::PhaseEnter {
                member: m, phase, ..
            }
            | TraceEvent::EarlyBump {
                member: m, phase, ..
            } => {
                member("member", m);
                fields.push(("phase".into(), phase.to_json()));
            }
            TraceEvent::Coverage {
                member: m, votes, ..
            } => {
                member("member", m);
                fields.push(("votes".into(), votes.to_json()));
            }
            TraceEvent::Terminate {
                member: m,
                completeness,
                ..
            } => {
                member("member", m);
                fields.push(("completeness".into(), completeness.to_json()));
            }
        }
        Json::Obj(fields)
    }
}

/// Receiver of [`TraceEvent`]s.
///
/// Implementors that actually record events keep the default
/// `ENABLED = true`; [`NoTrace`] overrides it to `false`, letting every
/// emission site compile to nothing.
pub trait TraceSink {
    /// Whether emission sites should construct and deliver events at
    /// all. Checked behind `const` so the no-op case costs nothing.
    const ENABLED: bool = true;

    /// Record one event.
    fn record(&mut self, event: TraceEvent);
}

/// The default sink: tracing disabled, zero overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}
}

/// Dynamic-dispatch shim used inside [`crate::protocol::Ctx`].
///
/// Protocol code sees `&mut dyn DynSink` so `Ctx` stays object-safe and
/// non-generic; the engine only installs a sink when the static
/// `S::ENABLED` says tracing is on, so the virtual call is never made on
/// the untraced path.
pub trait DynSink {
    /// Record one event.
    fn record_dyn(&mut self, event: TraceEvent);
}

impl<S: TraceSink> DynSink for S {
    #[inline]
    fn record_dyn(&mut self, event: TraceEvent) {
        self.record(event);
    }
}

/// A point on a member's phase timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhasePoint {
    /// The phase entered (1-based).
    pub phase: usize,
    /// Round the member entered it.
    pub at: Round,
    /// Whether the transition was an early bump (subtree complete
    /// before the phase timeout).
    pub early: bool,
}

/// Per-round message accounting derived from a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundMessages {
    /// Messages handed to the network this round.
    pub sent: u64,
    /// Messages delivered this round (sent in an earlier round).
    pub delivered: u64,
    /// Messages dropped by the loss model this round.
    pub dropped_loss: u64,
}

/// In-memory trace collector with derived per-round observables.
///
/// Records every event of a run (a 64-member default-config run emits a
/// few tens of thousands of events, ~40 bytes each — fine for profiling
/// single runs, not meant to be attached to thousand-run sweeps).
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Group size `N`, needed for incompleteness curves. Set via
    /// [`RunTrace::for_group`] or inferred from the largest member id
    /// seen if left at 0.
    n: usize,
    /// Highest round observed in any event.
    max_round: Round,
    /// The raw event stream, in emission order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for RunTrace {
    fn record(&mut self, event: TraceEvent) {
        self.max_round = self.max_round.max(event.round());
        self.events.push(event);
    }
}

impl RunTrace {
    /// An empty trace for a group of `n` members.
    pub fn for_group(n: usize) -> Self {
        RunTrace {
            n,
            ..RunTrace::default()
        }
    }

    /// Group size: as declared, or inferred from member ids in the
    /// event stream.
    pub fn group_size(&self) -> usize {
        if self.n > 0 {
            return self.n;
        }
        self.events
            .iter()
            .map(|e| match *e {
                TraceEvent::Start { member, .. }
                | TraceEvent::Crash { member, .. }
                | TraceEvent::Recover { member, .. }
                | TraceEvent::PhaseEnter { member, .. }
                | TraceEvent::EarlyBump { member, .. }
                | TraceEvent::Coverage { member, .. }
                | TraceEvent::Terminate { member, .. } => member.index() + 1,
                TraceEvent::Send { from, to, .. }
                | TraceEvent::DropLoss { from, to, .. }
                | TraceEvent::Deliver { from, to, .. } => from.index().max(to.index()) + 1,
            })
            .max()
            .unwrap_or(0)
    }

    /// Highest round observed.
    pub fn last_round(&self) -> Round {
        self.max_round
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per-member phase timelines: for each member, the ordered list of
    /// phase transitions it went through. Members running a flat
    /// (phase-less) protocol have empty timelines.
    pub fn phase_timelines(&self) -> Vec<Vec<PhasePoint>> {
        let n = self.group_size();
        let mut timelines: Vec<Vec<PhasePoint>> = vec![Vec::new(); n];
        // Early bumps are emitted immediately before the PhaseEnter they
        // cause; remember the pending bump per member and fold it into
        // the next transition.
        let mut pending_bump: Vec<bool> = vec![false; n];
        for e in &self.events {
            match *e {
                TraceEvent::EarlyBump { member, .. } if member.index() < n => {
                    pending_bump[member.index()] = true;
                }
                TraceEvent::PhaseEnter {
                    member,
                    round,
                    phase,
                } if member.index() < n => {
                    let early = std::mem::take(&mut pending_bump[member.index()]);
                    timelines[member.index()].push(PhasePoint {
                        phase,
                        at: round,
                        early,
                    });
                }
                _ => {}
            }
        }
        timelines
    }

    /// Per-round message histogram, dense over `0..=last_round()`.
    pub fn per_round_messages(&self) -> Vec<RoundMessages> {
        let mut hist = vec![RoundMessages::default(); self.max_round as usize + 1];
        for e in &self.events {
            let slot = &mut hist[e.round() as usize];
            match e {
                TraceEvent::Send { .. } => slot.sent += 1,
                TraceEvent::Deliver { .. } => slot.delivered += 1,
                TraceEvent::DropLoss { .. } => slot.dropped_loss += 1,
                _ => {}
            }
        }
        hist
    }

    /// Mean incompleteness over time: for each round `r`, the mean over
    /// members of `1 − covered/N` after all of round `r`'s events.
    ///
    /// Every member starts covering exactly its own vote; [`Coverage`]
    /// events advance a member's count; crashed members hold their last
    /// value (their knowledge is lost, but the paper's incompleteness
    /// metric is over the votes the *group* still carries). The curve
    /// answers "how fast does the group converge", the over-time view of
    /// the figures' terminal y-axis.
    ///
    /// [`Coverage`]: TraceEvent::Coverage
    pub fn incompleteness_over_time(&self) -> Vec<f64> {
        let n = self.group_size();
        if n == 0 {
            return Vec::new();
        }
        let mut covered: Vec<u64> = vec![1; n];
        let mut curve = Vec::with_capacity(self.max_round as usize + 1);
        let mut idx = 0usize;
        for round in 0..=self.max_round {
            while idx < self.events.len() && self.events[idx].round() == round {
                if let TraceEvent::Coverage { member, votes, .. } = self.events[idx] {
                    if member.index() < n {
                        covered[member.index()] = covered[member.index()].max(votes);
                    }
                }
                idx += 1;
            }
            let mean_cov: f64 =
                covered.iter().map(|&c| c as f64 / n as f64).sum::<f64>() / n as f64;
            curve.push(1.0 - mean_cov);
        }
        curve
    }

    /// Per-member termination `(round, completeness)`, `None` for
    /// members that never terminated.
    pub fn terminations(&self) -> Vec<Option<(Round, f64)>> {
        let n = self.group_size();
        let mut out = vec![None; n];
        for e in &self.events {
            if let TraceEvent::Terminate {
                member,
                round,
                completeness,
            } = *e
            {
                if member.index() < n {
                    out[member.index()] = Some((round, completeness));
                }
            }
        }
        out
    }

    /// Count of events of each kind, in a stable order.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        const KINDS: [&str; 10] = [
            "start",
            "crash",
            "recover",
            "send",
            "drop_loss",
            "deliver",
            "phase_enter",
            "early_bump",
            "coverage",
            "terminate",
        ];
        let mut counts = vec![0u64; KINDS.len()];
        for e in &self.events {
            let k = e.kind();
            if let Some(i) = KINDS.iter().position(|&x| x == k) {
                counts[i] += 1;
            }
        }
        KINDS.into_iter().zip(counts).collect()
    }
}

impl ToJson for RunTrace {
    /// The derived profile: phase timelines, per-round message counts,
    /// the incompleteness curve, terminations, and event-kind totals.
    /// The raw event stream is *not* embedded (it dominates the size);
    /// export it separately via [`TraceEvent::to_json`] per event or as
    /// CSV if needed.
    fn to_json(&self) -> Json {
        let timelines = Json::Arr(
            self.phase_timelines()
                .into_iter()
                .map(|tl| {
                    Json::Arr(
                        tl.into_iter()
                            .map(|p| {
                                Json::Obj(vec![
                                    ("phase".into(), p.phase.to_json()),
                                    ("at".into(), p.at.to_json()),
                                    ("early".into(), p.early.to_json()),
                                ])
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        let messages = Json::Arr(
            self.per_round_messages()
                .into_iter()
                .enumerate()
                .map(|(round, m)| {
                    Json::Obj(vec![
                        ("round".into(), round.to_json()),
                        ("sent".into(), m.sent.to_json()),
                        ("delivered".into(), m.delivered.to_json()),
                        ("dropped_loss".into(), m.dropped_loss.to_json()),
                    ])
                })
                .collect(),
        );
        let terminations = Json::Arr(
            self.terminations()
                .into_iter()
                .map(|t| match t {
                    Some((round, completeness)) => Json::Obj(vec![
                        ("round".into(), round.to_json()),
                        ("completeness".into(), completeness.to_json()),
                    ]),
                    None => Json::Null,
                })
                .collect(),
        );
        let kinds = Json::Obj(
            self.kind_counts()
                .into_iter()
                .map(|(k, c)| (k.to_string(), c.to_json()))
                .collect(),
        );
        Json::Obj(vec![
            ("n".into(), self.group_size().to_json()),
            ("rounds".into(), (self.max_round + 1).to_json()),
            ("events_recorded".into(), self.len().to_json()),
            ("event_counts".into(), kinds),
            ("phase_timelines".into(), timelines),
            ("per_round_messages".into(), messages),
            (
                "incompleteness_over_time".into(),
                self.incompleteness_over_time().to_json(),
            ),
            ("terminations".into(), terminations),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u32) -> MemberId {
        MemberId(i)
    }

    #[test]
    fn no_trace_is_disabled() {
        const { assert!(!NoTrace::ENABLED) };
        const { assert!(RunTrace::ENABLED) };
        // record on NoTrace is a no-op and must not panic
        NoTrace.record(TraceEvent::Start {
            member: m(0),
            round: 0,
        });
    }

    #[test]
    fn collects_and_counts() {
        let mut t = RunTrace::for_group(2);
        t.record(TraceEvent::Start {
            member: m(0),
            round: 0,
        });
        t.record(TraceEvent::Send {
            from: m(0),
            to: m(1),
            round: 0,
            bytes: 32,
        });
        t.record(TraceEvent::Deliver {
            from: m(0),
            to: m(1),
            round: 1,
            sent_at: 0,
        });
        assert_eq!(t.len(), 3);
        assert_eq!(t.last_round(), 1);
        let hist = t.per_round_messages();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0].sent, 1);
        assert_eq!(hist[1].delivered, 1);
    }

    #[test]
    fn phase_timeline_marks_early_bumps() {
        let mut t = RunTrace::for_group(1);
        t.record(TraceEvent::PhaseEnter {
            member: m(0),
            round: 3,
            phase: 2,
        });
        t.record(TraceEvent::EarlyBump {
            member: m(0),
            round: 5,
            phase: 2,
        });
        t.record(TraceEvent::PhaseEnter {
            member: m(0),
            round: 5,
            phase: 3,
        });
        let tl = &t.phase_timelines()[0];
        assert_eq!(tl.len(), 2);
        assert!(!tl[0].early);
        assert!(tl[1].early && tl[1].phase == 3 && tl[1].at == 5);
    }

    #[test]
    fn incompleteness_starts_high_and_falls_with_coverage() {
        let mut t = RunTrace::for_group(4);
        t.record(TraceEvent::Start {
            member: m(0),
            round: 0,
        });
        t.record(TraceEvent::Coverage {
            member: m(0),
            round: 1,
            votes: 4,
        });
        let curve = t.incompleteness_over_time();
        assert_eq!(curve.len(), 2);
        // round 0: everyone covers only themselves → 1 - 1/4 = 0.75
        assert!((curve[0] - 0.75).abs() < 1e-12);
        // round 1: member 0 covers all 4 → mean coverage (4+1+1+1)/16
        assert!((curve[1] - (1.0 - 7.0 / 16.0)).abs() < 1e-12);
        assert!(curve[1] < curve[0]);
    }

    #[test]
    fn group_size_inferred_from_events() {
        let mut t = RunTrace::default();
        t.record(TraceEvent::Send {
            from: m(0),
            to: m(9),
            round: 0,
            bytes: 1,
        });
        assert_eq!(t.group_size(), 10);
    }

    #[test]
    fn terminations_indexed_by_member() {
        let mut t = RunTrace::for_group(2);
        t.record(TraceEvent::Terminate {
            member: m(1),
            round: 7,
            completeness: 0.5,
        });
        let terms = t.terminations();
        assert_eq!(terms[0], None);
        assert_eq!(terms[1], Some((7, 0.5)));
    }

    #[test]
    fn trace_json_has_derived_series() {
        let mut t = RunTrace::for_group(2);
        t.record(TraceEvent::Send {
            from: m(0),
            to: m(1),
            round: 0,
            bytes: 8,
        });
        let j = t.to_json();
        assert!(j.get("per_round_messages").is_some());
        assert!(j.get("incompleteness_over_time").is_some());
        assert!(j.get("phase_timelines").is_some());
        let text = j.to_string_pretty();
        assert!(text.contains("\"sent\": 1"));
    }
}
