//! The **Hierarchical Gossiping** protocol (§6.3) — the paper's primary
//! contribution.
//!
//! Each member executes `log_K N` phases over the Grid Box Hierarchy:
//!
//! * **Phase 1** — gossip *individual votes* within the member's own grid
//!   box: each round, pick `M` random gossipees from the box and send one
//!   randomly selected known vote (with its owner's identifier). After
//!   the phase, apply the aggregate function to the known votes.
//! * **Phase `i` (≥ 2)** — gossip *child-subtree aggregates* within the
//!   member's height-`i` subtree: each round, pick `M` random gossipees
//!   from the subtree and send one randomly selected known aggregate of
//!   the `K` height-`(i−1)` child subtrees. A member learns a sibling
//!   subtree's aggregate when it first receives it.
//! * **Bump-up (step 2b)** — a member moves to phase `i+1` as soon as it
//!   has all `K` child aggregates, or after the per-phase timeout
//!   (`⌈C·log_M N⌉` rounds in the paper's simulations) — so members
//!   progress through phases *asynchronously*.
//! * **Final phase** — entering phase `log_K N + 1`, the member holds an
//!   estimate of the global aggregate and terminates.
//!
//! No leader election, no failure detection, no retransmission state:
//! robustness comes purely from gossip redundancy.
//!
//! Two orthogonal refinements are configurable (see [`Exchange`] and
//! DESIGN.md §6): whether a gossip message carries one value or the
//! member's whole (constant-size) known set for the phase, and the
//! reactive reply that makes a contact a two-way exchange. Partial
//! membership views ([`HierGossip::with_view`]) implement the §2
//! relaxation.
//!
//! # One copy of the known set
//!
//! The set a phase gossips is held once, and that one copy is the
//! message body. Phase 1's is the `Arc<[_]>` of known votes (a new vote
//! makes a new list); phase `i ≥ 2`'s is the row of its scope's `K`
//! children, an `Arc<[Option<Arc<Tagged>>]>` indexed by last digit with
//! its entry count and encoded bytes (the batch's address and mask
//! included) kept beside it — one row per proper
//! ancestor of the member's box, allocated when the first aggregate is
//! stored there. A gossip, and a reply at any level, clones the `Arc`;
//! a learned aggregate is written through `Arc::make_mut`, in place
//! when no sent copy is still in flight and into one copy otherwise, so
//! a message keeps the snapshot it was sent with. Phase completion,
//! "do I know more than this push carried" and a payload's wire size
//! are reads of the counts. A reply flags in its `skip` the entries the
//! push showed the pusher holds at least as well, and crosses the wire
//! without them. See DESIGN.md §6.

use std::sync::Arc;

use gridagg_aggregate::wire::WireAggregate;
use gridagg_aggregate::Tagged;
use gridagg_group::MemberId;
use gridagg_hierarchy::Addr;
use gridagg_simnet::Round;

use crate::message::codec::{agg_batch_head, agg_entry_wire};
use crate::message::{carried, ChildSlot, Payload, SKIP_BITS};
use crate::protocol::{AggregationProtocol, Ctx, Outbox};
use crate::scope::ScopeIndex;
use crate::trace::TraceEvent;

/// Tunable parameters of Hierarchical Gossiping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierGossipConfig {
    /// Gossip fanout `M`: gossipees contacted per round (paper default 2).
    pub fanout: u32,
    /// Phase-length factor `C`: a phase lasts `⌈C·log_M N⌉` rounds
    /// (paper default 1.0).
    pub round_factor: f64,
    /// Explicit rounds-per-phase override (Figure 8 sweeps this
    /// directly); `None` derives it from `C`, `M`, `N`.
    pub rounds_per_phase: Option<u32>,
    /// Step 2(b): bump up early once all child aggregates are known
    /// (paper simulations enable this; the analysis disables it).
    pub early_bump: bool,
    /// Record a [`PhaseTrace`] entry at each phase end. Instrumentation
    /// only — recording never draws randomness or sends messages, so
    /// turning it off changes no protocol behavior — but the entries
    /// cost O(phases) heap per member, which the million-member bench
    /// cells cannot afford.
    pub phase_trace: bool,
    /// Gossip-exchange mode: what one message to a gossipee carries.
    pub exchange: Exchange,
}

/// What a gossip message carries.
///
/// The protocol description (§6.3) sends "one randomly selected known
/// vote" per gossipee ([`Exchange::One`]). The simulation section's
/// round efficiency ("attempts to *gossip with* M randomly selected
/// members"; incompleteness of 1e-4 at 5 rounds/phase in Figure 8) is
/// only reachable when an exchange shares the member's whole known set
/// for the current phase — which is still constant-size in `N`: at most
/// `K` child aggregates, or the votes of one grid box (expected `K`).
/// [`Exchange::Batch`] is therefore the default; the `ablation_bump`
/// bench quantifies the difference. See DESIGN.md for the full
/// discussion of this interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exchange {
    /// One randomly selected known value per message (paper-literal).
    One,
    /// The full known set for the current phase per message (paper-
    /// calibrated; still O(K) = O(1) bytes).
    #[default]
    Batch,
}

impl Default for HierGossipConfig {
    fn default() -> Self {
        HierGossipConfig {
            fanout: 2,
            round_factor: 1.0,
            rounds_per_phase: None,
            early_bump: true,
            phase_trace: true,
            exchange: Exchange::Batch,
        }
    }
}

impl HierGossipConfig {
    /// Rounds per phase for a group of `n`: the override if set, else
    /// `⌈C·log_M N⌉` (base `max(M, 2)` so `M = 1` stays finite).
    pub fn rounds_per_phase(&self, n: usize) -> u32 {
        if let Some(r) = self.rounds_per_phase {
            return r.max(1);
        }
        let base = (self.fanout.max(2)) as f64;
        let r = self.round_factor * (n.max(2) as f64).ln() / base.ln();
        (r.ceil() as u32).max(1)
    }
}

/// The known aggregates of one subtree's children: storage and gossip
/// body in one. `slots[d]` is the child with last digit `d`; `known`
/// is the count of the present entries and `wire` the bytes of the row
/// as a batch after its tag (the parent's address and the presence
/// mask, counted once when the row is made, then the present entries),
/// kept in step by [`Row::store`] so sending never walks the slots.
///
/// The slice is shared with every [`Payload::AggBatch`] sent from it and
/// written through `Arc::make_mut`: in place while no sent copy is in
/// flight, one `K`-pointer copy otherwise, so a message keeps the
/// snapshot it was sent with.
#[derive(Debug)]
struct Row<A> {
    slots: Arc<[ChildSlot<A>]>,
    known: u8,
    wire: u16,
}

impl<A: WireAggregate> Row<A> {
    fn empty(parent: &Addr) -> Self {
        Row {
            slots: (0..parent.base()).map(|_| None).collect(),
            known: 0,
            wire: agg_batch_head(parent),
        }
    }

    /// Put `agg` in slot `digit`. The `Arc` is cloned: a
    /// reference-count bump, shared with any in-flight payload.
    fn store(&mut self, digit: usize, agg: &Arc<Tagged<A>>) {
        let slot = &mut Arc::make_mut(&mut self.slots)[digit];
        match slot.replace(Arc::clone(agg)) {
            Some(old) => self.wire -= agg_entry_wire(&old),
            None => self.known += 1,
        }
        self.wire += agg_entry_wire(agg);
    }

    /// The present aggregates, in digit order.
    fn aggs(&self) -> impl Iterator<Item = &Arc<Tagged<A>>> {
        self.slots.iter().flatten()
    }

    /// This row as a message body, less the present slots flagged in
    /// `skip`: no copy, and no recount but of the skipped entries.
    fn payload(&self, parent: Addr, skip: u16, reply: bool) -> Payload<A> {
        let (mut known, mut wire) = (self.known, self.wire);
        let mut rest = skip;
        while rest != 0 {
            let digit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if let Some(agg) = &self.slots[digit] {
                known -= 1;
                wire -= agg_entry_wire(agg);
            }
        }
        Payload::AggBatch {
            parent,
            known,
            wire,
            skip,
            slots: Arc::clone(&self.slots),
            reply,
        }
    }
}

/// A partial membership view ("this can be relaxed in our final
/// hierarchical gossiping solution", §2) and its cut to the current
/// phase. Boxed: the members of a complete-view run do not carry it.
#[derive(Debug)]
struct PartialView {
    /// The members this one knows of, sorted and deduplicated.
    members: Vec<MemberId>,
    /// This phase's gossipee candidates: `members ∩ scope`, without
    /// the member itself.
    in_scope: Vec<MemberId>,
}

/// One member's Hierarchical Gossiping state machine.
#[derive(Debug)]
pub struct HierGossip<A> {
    me: MemberId,
    index: Arc<ScopeIndex>,
    cfg: HierGossipConfig,
    rounds_per_phase: u32,
    my_box: Addr,

    /// Known votes of members in my grid box, in insertion order (which
    /// is part of the protocol's RNG-visible behavior): the list
    /// [`Payload::VoteBatch`] ships by reference. A new vote makes a
    /// new list, one allocation of exactly its size; a box holds `K`
    /// members on average, so that happens a few times a run. The list
    /// is also phase 1's dedup: a received vote is new iff its member
    /// is not in it (see [`Self::learn_vote`]).
    known_votes: Arc<[(MemberId, f64)]>,

    /// Known subtree aggregates: `rows[l]` holds the children of this
    /// member's ancestor of length `l`, so phase `i ≥ 2` gossips
    /// `rows[scope.len()]`. First reception wins unless a later
    /// evaluation covers more votes (see [`Self::learn_agg`]); values
    /// are `Arc`-shared with in-flight payloads, so adopting one never
    /// copies a contributor bitmap. Empty until the first aggregate is
    /// stored, so the levels are allocated in step order, not build
    /// order; a level is allocated when the first aggregate is stored
    /// there. The root aggregate is never gossiped: it is the member's
    /// `estimate`.
    rows: Vec<Option<Row<A>>>,

    /// Current phase (1-based); `phases + 1` means terminated.
    phase: usize,
    rounds_in_phase: u32,

    /// When set, gossipees are drawn only from `view ∩ scope`.
    /// `None` = complete view.
    view: Option<Box<PartialView>>,

    /// Cached for the current phase:
    scope: Addr,
    my_pos_in_scope: Option<usize>,
    /// components the phase waits for: members of my box in phase 1,
    /// children of `scope` that have members afterwards
    expected: usize,

    done_at: Option<Round>,
    estimate: Option<Arc<Tagged<A>>>,

    /// Per-phase completion trace: `(phase, components_known,
    /// components_expected, votes_covered)` recorded at each phase end.
    /// Cheap instrumentation used by diagnostics and tests.
    pub trace: Vec<PhaseTrace>,
}

/// One entry of [`HierGossip::trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTrace {
    /// The phase that just finished (1-based).
    pub phase: usize,
    /// Components (votes or child aggregates) known at phase end.
    pub known: usize,
    /// Components expected (box size or non-empty child count).
    pub expected: usize,
    /// Votes covered by the composed aggregate.
    pub votes: usize,
    /// Round at which the phase finished.
    pub at: Round,
}

impl<A: WireAggregate> HierGossip<A> {
    /// Create the protocol instance for member `me` with vote `vote`.
    pub fn new(me: MemberId, vote: f64, index: Arc<ScopeIndex>, cfg: HierGossipConfig) -> Self {
        let my_box = index.box_of(me);
        let my_pos = index.position_in(&my_box, me);
        let expected = index.count_in(&my_box);
        HierGossip {
            me,
            rounds_per_phase: cfg.rounds_per_phase(index.len()),
            index,
            cfg,
            my_box,
            known_votes: [(me, vote)].into(),
            rows: Vec::new(),
            view: None,
            phase: 1,
            rounds_in_phase: 0,
            scope: my_box,
            my_pos_in_scope: my_pos,
            expected,
            done_at: None,
            estimate: None,
            trace: Vec::new(),
        }
    }

    /// Restrict gossipee selection to a partial membership view (sorted
    /// and deduplicated internally). The member still *addresses* the
    /// full hierarchy — box addresses are computable from identifiers —
    /// but only contacts members it knows about, which is the paper's
    /// §2 view relaxation.
    pub fn with_view(mut self, mut view: Vec<MemberId>) -> Self {
        view.sort_unstable();
        view.dedup();
        self.view = Some(Box::new(PartialView {
            members: view,
            in_scope: Vec::new(),
        }));
        self.refresh_view_scope();
        self
    }

    /// Recompute `view ∩ scope` after a phase change.
    fn refresh_view_scope(&mut self) {
        let Some(view) = &mut self.view else { return };
        let (me, scope, index) = (self.me, self.scope, &self.index);
        let known = view.members.iter().copied();
        view.in_scope.clear();
        view.in_scope
            .extend(known.filter(|&m| m != me && scope.contains(&index.box_of(m))));
    }

    /// The current phase (for tests and instrumentation).
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// The per-phase round budget in effect.
    pub fn rounds_per_phase(&self) -> u32 {
        self.rounds_per_phase
    }

    /// The row a phase `≥ 2` gossips: the children of its scope.
    fn current_row(&self) -> Option<&Row<A>> {
        self.rows.get(self.scope.len())?.as_ref()
    }

    /// The child aggregates a phase `≥ 2` has so far, in digit order.
    fn current_aggs(&self) -> impl Iterator<Item = &Arc<Tagged<A>>> {
        self.current_row().into_iter().flat_map(Row::aggs)
    }

    /// Components of the current phase known so far.
    fn known(&self) -> usize {
        if self.phase == 1 {
            self.known_votes.len()
        } else {
            self.current_row().map_or(0, |row| usize::from(row.known))
        }
    }

    /// Whether every expected component of the current phase is known.
    fn phase_complete(&self) -> bool {
        self.known() >= self.expected
    }

    /// Votes covered by this member's current best aggregate: what it
    /// would report if forced to compose and terminate right now.
    fn current_coverage(&self) -> u64 {
        if let Some(est) = &self.estimate {
            return est.vote_count() as u64;
        }
        if self.phase == 1 {
            self.known_votes.len() as u64
        } else {
            // children are disjoint subtrees, so the sum is exact
            self.current_aggs().map(|a| a.vote_count() as u64).sum()
        }
    }

    /// Close out the current phase: compose this scope's aggregate from
    /// the known components and advance.
    fn finish_phase(&mut self, round: Round) {
        #[expect(
            clippy::disallowed_methods,
            reason = "counted sets (exact shadows only under strict-invariants) are exact here: `learn_vote` admits a member's vote once and child subtrees are disjoint by construction (see the voteset module docs)"
        )]
        let mut composed = Tagged::<A>::empty_for_scale(self.index.len());
        if self.phase == 1 {
            // deterministic fold order: by member id
            let mut votes = self.known_votes.to_vec();
            votes.sort_unstable_by_key(|(m, _)| *m);
            for (m, v) in votes {
                composed
                    .try_add_vote(m.index(), v)
                    .expect("votes are unique per member");
            }
        } else {
            for a in self.current_aggs() {
                composed
                    .try_merge(a)
                    .expect("child subtrees are disjoint by construction");
            }
        }
        if self.cfg.phase_trace {
            self.trace.push(PhaseTrace {
                phase: self.phase,
                known: self.known(),
                expected: self.expected,
                votes: composed.vote_count(),
                at: round,
            });
        }

        // Addr consistency: everything the composed aggregate claims to
        // cover must actually live inside the scope it is keyed under.
        // (Counted contributor sets carry no identity to check; their
        // disjointness rests on the structural dedup above.)
        #[cfg(feature = "strict-invariants")]
        if composed.votes().is_exact() {
            let scope = self.scope;
            let index = &self.index;
            assert!(
                composed
                    .votes()
                    .iter()
                    .all(|m| scope.contains(&index.box_of(MemberId(m as u32)))),
                "strict-invariants: phase-{} aggregate for {scope} covers a member \
                 outside its scope",
                self.phase
            );
        }

        self.phase += 1;
        self.rounds_in_phase = 0;
        // Phase monotonicity: phases only ever advance by one and never
        // run past the terminal `phases + 1` state.
        gridagg_aggregate::strict_assert!(
            self.phase <= self.my_box.len() + 2,
            "strict-invariants: phase {} advanced past termination ({} phases)",
            self.phase,
            self.my_box.len() + 1
        );
        let composed = Arc::new(composed);
        let Some((parent, digit)) = self.scope.split_last() else {
            // the scope was the root: its aggregate is the estimate
            self.estimate = Some(composed);
            self.done_at = Some(round);
            return;
        };
        // "M_j already knows about the aggregate value for its own
        // height-(i−1) subtree immediately after phase (i−1) concludes."
        // When a more complete evaluation of the same subtree was already
        // received from a faster peer, keep that one (see `learn_agg`).
        self.learn_agg(parent, usize::from(digit), &composed);

        self.scope = parent;
        self.my_pos_in_scope = self.index.position_in(&self.scope, self.me);
        self.expected = self.index.nonempty_children(&self.scope).len();
        self.refresh_view_scope();
    }

    /// One gossip emission: pick `M` gossipees in the current scope and
    /// send them the current-phase values (one random value or the full
    /// known set, per [`Exchange`]).
    // Every member gossips every round; a batch is the member's own
    // storage, the pick buffer is the outbox's.
    fn gossip(&mut self, ctx: &mut Ctx<'_>, out: &mut Outbox<A>) {
        // The payload is built before gossipees are sampled (the RNG
        // draw order is part of the protocol's deterministic behavior).
        let payload = match (self.phase == 1, self.cfg.exchange) {
            (true, Exchange::One) => {
                let &(member, value) = ctx
                    .rng
                    .choose(&self.known_votes)
                    .expect("own vote always known");
                Payload::Vote { member, value }
            }
            (true, Exchange::Batch) => Payload::VoteBatch {
                votes: Arc::clone(&self.known_votes),
                skip: 0,
                reply: false,
            },
            (false, exchange) => {
                // cannot be absent: own child stored when its phase ended
                let Some(row) = self.current_row() else {
                    return;
                };
                match exchange {
                    Exchange::Batch => row.payload(self.scope, 0, false),
                    Exchange::One => {
                        // one known child, uniformly: the pick-th present slot
                        let pick = ctx.rng.below(usize::from(row.known));
                        let known = row.slots.iter().enumerate();
                        let (digit, agg) = known
                            .filter_map(|(d, slot)| Some((d, slot.as_ref()?)))
                            .nth(pick)
                            .expect("`known` counts the present slots");
                        Payload::Agg {
                            subtree: self
                                .scope
                                .child(digit as u8)
                                .expect("slot digit is below the base"),
                            agg: Arc::clone(agg),
                        }
                    }
                }
            }
        };
        let fanout = self.cfg.fanout as usize;
        if let Some(view) = &self.view {
            // partial view: gossip only to known members of the scope
            let pool = &view.in_scope;
            if !pool.is_empty() {
                out.send_sampled(ctx.rng, pool.len(), None, fanout, |p| pool[p], payload);
            }
            return;
        }
        let pool = self.index.members_in(&self.scope);
        if pool.len() <= 1 {
            return;
        }
        let skip = self.my_pos_in_scope;
        out.send_sampled(ctx.rng, pool.len(), skip, fanout, |p| pool[p], payload);
    }

    /// Record a received vote. A vote is new iff its member is not in
    /// `known_votes`, so a batch costs its length times the box's. That
    /// is little with the few-member boxes of `K ≤ 16`, but 256-member
    /// boxes (`K = 64`, `N = 16384`) spend about half a run here
    /// (EXPERIMENTS, "One allocation per contributor set"). Only votes
    /// of the member's own grid box belong in its phase-1 aggregate
    /// (gossip never crosses boxes in phase 1, but guard the invariant
    /// anyway — `position_in` answers `None` for members of other
    /// boxes); the list holds box-mates only, so a vote it names needs
    /// no second check. Returns whether the vote was new.
    fn learn_vote(&mut self, member: MemberId, value: f64) -> bool {
        if self.known_votes.iter().any(|&(m, _)| m == member)
            || self.index.position_in(&self.my_box, member).is_none()
        {
            return false;
        }
        let known = self.known_votes.iter().copied();
        self.known_votes = known.chain([(member, value)]).collect();
        true
    }

    /// Whether `parent`'s children are what one of this member's phases
    /// gossips, i.e. `parent` is a proper ancestor of its box — then
    /// `rows[parent.len()]` is their row. Anything else is irrelevant:
    /// another base, a foreign subtree, or the box itself (whose
    /// children would be deeper than any slot).
    fn is_chain_parent(&self, parent: &Addr) -> bool {
        parent.is_proper_prefix_of(&self.my_box)
    }

    /// Record an aggregate for the child `digit` of the chain parent
    /// `parent`, keeping whichever version covers more votes when two
    /// evaluations of the same subtree collide. Returns whether the
    /// stored state changed.
    ///
    /// Different members legitimately compute different vote subsets for
    /// the same subtree (their phases saw different gossip); all versions
    /// cover only that subtree's members, so *replacing* (never merging)
    /// preserves the no-double-counting invariant while letting complete
    /// evaluations displace partial ones as they spread — the same
    /// convergence rule Astrolabe-style systems use.
    fn learn_agg(&mut self, parent: Addr, digit: usize, agg: &Arc<Tagged<A>>) -> bool {
        let level = parent.len();
        let held = self
            .rows
            .get(level)
            .and_then(Option::as_ref)
            .and_then(|row| row.slots[digit].as_ref());
        if held.is_some_and(|held| agg.vote_count() <= held.vote_count()) {
            return false;
        }
        if held.is_none() || cfg!(feature = "strict-invariants") {
            let Ok(subtree) = parent.child(digit as u8) else {
                return false;
            };
            // A child without members has no aggregate: nobody lives
            // there to compute one, and a forged one would count towards
            // `phase_complete`. Asked once per slot, when first filled.
            if held.is_none() && self.index.count_in(&subtree) == 0 {
                return false;
            }
            // Addr consistency: a received subtree aggregate must only
            // cover members of that subtree, or adopting it would
            // double-count once sibling aggregates are composed.
            // (Counted sets carry no identity to check.)
            #[cfg(feature = "strict-invariants")]
            if agg.votes().is_exact() {
                let index = &self.index;
                assert!(
                    agg.votes()
                        .iter()
                        .all(|m| subtree.contains(&index.box_of(MemberId(m as u32)))),
                    "strict-invariants: received aggregate for {subtree} covers a member \
                     outside that subtree"
                );
            }
        }
        if self.rows.is_empty() {
            self.rows = (0..self.my_box.len()).map(|_| None).collect();
        }
        self.rows[level]
            .get_or_insert_with(|| Row::empty(&parent))
            .store(digit, agg);
        true
    }

    /// Narrate a phase transition that just happened: the phase entered
    /// (unless the protocol terminated — the engine emits `Terminate`)
    /// and the coverage carried into it. No-op on untraced runs.
    fn emit_phase_transition(&self, ctx: &mut Ctx<'_>) {
        if !ctx.is_traced() {
            return;
        }
        let me = self.me;
        let round = ctx.round;
        let votes = self.current_coverage();
        if self.done_at.is_none() {
            let phase = self.phase;
            ctx.emit(|| TraceEvent::PhaseEnter {
                member: me,
                round,
                phase,
            });
        }
        ctx.emit(|| TraceEvent::Coverage {
            member: me,
            round,
            votes,
        });
    }
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::wildcard_enum_match_arm
)]
impl<A: WireAggregate> AggregationProtocol<A> for HierGossip<A> {
    fn on_round(&mut self, ctx: &mut Ctx<'_>, out: &mut Outbox<A>) {
        if self.done_at.is_some() {
            return;
        }
        if self.phase == 1 && self.rounds_in_phase == 0 {
            // the first round: phases gossip inside subtrees, so the
            // member's home is its place in (box, id) order
            if let Some(rank) = self.index.rank(self.me).and_then(|r| u32::try_from(r).ok()) {
                ctx.home(rank);
            }
        }
        // Step 2(b): bump up as soon as the phase is complete. Phase 1
        // is fixed-length, as in the paper.
        let early_ok = self.phase > 1 && self.cfg.early_bump;
        while self.done_at.is_none() && early_ok && self.phase_complete() {
            let me = self.me;
            let round = ctx.round;
            let leaving = self.phase;
            ctx.emit(|| TraceEvent::EarlyBump {
                member: me,
                round,
                phase: leaving,
            });
            self.finish_phase(ctx.round);
            self.emit_phase_transition(ctx);
        }
        if self.done_at.is_some() {
            return;
        }
        self.gossip(ctx, out);
        self.rounds_in_phase += 1;
        if self.rounds_in_phase >= self.rounds_per_phase {
            self.finish_phase(ctx.round);
            self.emit_phase_transition(ctx);
        }
    }

    fn on_message(
        &mut self,
        from: MemberId,
        payload: Payload<A>,
        ctx: &mut Ctx<'_>,
        out: &mut Outbox<A>,
    ) {
        // Learn the content (terminated members keep serving replies
        // but no longer update their final state), then — "gossiping
        // with" is an exchange — answer a push with our known set at
        // its level if that holds strictly more values than the push
        // carried. Replies are never answered, so exchanges always
        // terminate. This is what lets members that progressed (or
        // terminated) early keep rescuing stragglers: without it, phase
        // laggards starve once their peers bump up (see DESIGN.md).
        //
        // The reply skips what the push showed the pusher holds: its
        // counts only grow, so it would drop those entries anyway. By
        // pigeonhole at least one entry is left to carry.
        let learning = self.done_at.is_none();
        let changed = match payload {
            Payload::Vote { member, value } => learning && self.learn_vote(member, value),
            Payload::VoteBatch { votes, skip, reply } => {
                let mut changed = false;
                if learning {
                    for (_, &(member, value)) in carried(&votes, skip) {
                        changed |= self.learn_vote(member, value);
                    }
                }
                // phase-1 votes: only meaningful within the same box
                if !reply
                    && self.known_votes.len() > votes.len()
                    && self.index.box_of(from) == self.my_box
                {
                    let mut listed = 0;
                    for (i, (mine, _)) in self.known_votes.iter().take(SKIP_BITS).enumerate() {
                        if carried(&votes, skip).any(|(_, (theirs, _))| theirs == mine) {
                            listed |= 1 << i;
                        }
                    }
                    let votes = Arc::clone(&self.known_votes);
                    out.send(
                        from,
                        Payload::VoteBatch {
                            votes,
                            skip: listed,
                            reply: true,
                        },
                    );
                }
                changed
            }
            Payload::Agg { subtree, agg } => match subtree.split_last() {
                // the root aggregate is never gossiped
                Some((parent, digit)) if learning && self.is_chain_parent(&parent) => {
                    self.learn_agg(parent, usize::from(digit), &agg)
                }
                _ => false,
            },
            Payload::AggBatch {
                parent,
                known,
                skip,
                slots,
                reply,
                ..
            } => {
                // the codec builds a row its parent's base wide, and a
                // chain parent's base is `K`
                if !self.is_chain_parent(&parent) {
                    return;
                }
                let mut changed = false;
                if learning {
                    for (digit, agg) in carried(&slots, skip) {
                        if let Some(agg) = agg {
                            changed |= self.learn_agg(parent, digit, agg);
                        }
                    }
                }
                // the sender gossips within its own scope at this
                // level; answer only if we share it
                let row = self.rows.get(parent.len()).and_then(Option::as_ref);
                if let (false, Some(row)) = (reply, row) {
                    if row.known > known && parent.contains(&self.index.box_of(from)) {
                        // leave off each entry the push held with at
                        // least as many votes as ours
                        let mut pushed_as_well = 0;
                        for (digit, pushed) in carried(&slots, skip) {
                            if digit >= SKIP_BITS {
                                break;
                            }
                            let ours = row.slots.get(digit).and_then(Option::as_ref);
                            if let (Some(ours), Some(pushed)) = (ours, pushed) {
                                if ours.vote_count() <= pushed.vote_count() {
                                    pushed_as_well |= 1 << digit;
                                }
                            }
                        }
                        out.send(from, row.payload(parent, pushed_as_well, true));
                    }
                }
                changed
            }
            // Hierarchical gossip never emits Final, and Flow belongs to
            // the Flow-Updating baseline; ignore.
            Payload::Final { .. } | Payload::Flow { .. } => false,
        };
        if changed && ctx.is_traced() {
            let me = self.me;
            let round = ctx.round;
            let votes = self.current_coverage();
            ctx.emit(|| TraceEvent::Coverage {
                member: me,
                round,
                votes,
            });
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
    use gridagg_aggregate::{Aggregate, Average, VoteSet};
    use gridagg_group::view::View;
    use gridagg_hierarchy::{FairHashPlacement, Hierarchy};
    use gridagg_simnet::rng::DetRng;

    fn index(n: usize, k: u8) -> Arc<ScopeIndex> {
        let h = Hierarchy::for_group(k, n).unwrap();
        ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, 7))
    }

    fn ctx_rng() -> DetRng {
        DetRng::seeded(1)
    }

    #[test]
    fn rounds_per_phase_formula() {
        let cfg = HierGossipConfig::default();
        // N=200, M=2, C=1 → ceil(log2 200) = 8
        assert_eq!(cfg.rounds_per_phase(200), 8);
        let fig8 = HierGossipConfig {
            rounds_per_phase: Some(3),
            ..Default::default()
        };
        assert_eq!(fig8.rounds_per_phase(200), 3);
        let c2 = HierGossipConfig {
            round_factor: 2.0,
            ..Default::default()
        };
        assert_eq!(c2.rounds_per_phase(200), 16);
    }

    #[test]
    fn solo_run_times_out_through_all_phases() {
        // Without any delivered messages, the member still terminates
        // after phases × rounds_per_phase rounds with its own vote only.
        let idx = index(16, 2);
        let phases = idx.hierarchy().phases();
        let cfg = HierGossipConfig::default();
        let rpp = cfg.rounds_per_phase(16);
        let mut p: HierGossip<Average> = HierGossip::new(MemberId(0), 5.0, idx, cfg);
        // it starts in phase 1 knowing its own vote, with no estimate
        assert_eq!((p.phase(), p.known_votes.len()), (1, 1));
        assert!(!p.is_done() && p.estimate().is_none());
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut round = 0;
        while !p.is_done() && round < 10_000 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
            round += 1;
        }
        assert!(p.is_done());
        assert_eq!(round as u32, phases as u32 * rpp);
        let est = p.estimate().unwrap();
        assert_eq!(est.vote_count(), 1);
        assert_eq!(est.aggregate().unwrap().summary(), 5.0);
    }

    #[test]
    fn phase_one_gossip_targets_own_box() {
        // with no vote delivered, a batch holds only the member's own,
        // and `One` sends single votes
        let idx = index(64, 4);
        let me = MemberId(0);
        let my_box = idx.box_of(me);
        for exchange in [Exchange::Batch, Exchange::One] {
            let cfg = HierGossipConfig {
                exchange,
                ..Default::default()
            };
            let mut p: HierGossip<Average> = HierGossip::new(me, 1.0, idx.clone(), cfg);
            let mut rng = ctx_rng();
            let mut out = Outbox::new();
            for round in 0..3 {
                let mut ctx = Ctx::new(round, &mut rng);
                p.on_round(&mut ctx, &mut out);
            }
            for (to, payload) in out.drain() {
                assert_eq!(idx.box_of(to), my_box, "phase-1 gossip left the box");
                match (exchange, payload) {
                    (Exchange::One, Payload::Vote { .. }) => {}
                    (
                        Exchange::Batch,
                        Payload::VoteBatch {
                            votes,
                            skip: 0,
                            reply: false,
                        },
                    ) => assert_eq!(votes.len(), 1),
                    (_, other) => panic!("{exchange:?} sent {other:?}"),
                }
            }
        }
    }

    #[test]
    fn vote_received_joins_known_set_once() {
        let idx = index(64, 4);
        let me = MemberId(0);
        // find a box-mate
        let mate = *idx
            .members_in(&idx.box_of(me))
            .iter()
            .find(|&&m| m != me)
            .expect("box has a mate");
        let mut p: HierGossip<Average> =
            HierGossip::new(me, 1.0, idx.clone(), HierGossipConfig::default());
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        let v = Payload::Vote {
            member: mate,
            value: 9.0,
        };
        p.on_message(mate, v.clone(), &mut ctx, &mut out);
        p.on_message(mate, v, &mut ctx, &mut out);
        assert_eq!(p.known_votes.len(), 2);
    }

    #[test]
    fn cross_box_vote_rejected() {
        let idx = index(64, 4);
        let me = MemberId(0);
        let my_box = idx.box_of(me);
        let stranger = (0..64u32)
            .map(MemberId)
            .find(|&m| idx.box_of(m) != my_box)
            .expect("another box exists");
        let mut p: HierGossip<Average> = HierGossip::new(me, 1.0, idx, HierGossipConfig::default());
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        p.on_message(
            stranger,
            Payload::Vote {
                member: stranger,
                value: 9.0,
            },
            &mut ctx,
            &mut out,
        );
        assert_eq!(p.known_votes.len(), 1);
    }

    #[test]
    fn sizes_of_the_member_the_payload_and_the_envelope() {
        use std::mem::size_of;
        assert_eq!(size_of::<Addr>(), 8);
        // a slot is a pointer, a level a fat pointer with its two counts
        assert_eq!(size_of::<ChildSlot<Average>>(), 8);
        assert_eq!(size_of::<Option<Row<Average>>>(), 24);
        // 376 B with the slab, the two cached batches, the `children`
        // copy, the two scratch vectors and the view inline
        assert_eq!(size_of::<HierGossip<Average>>(), 192);
        assert_eq!(size_of::<Payload<Average>>(), 32);
        assert_eq!(
            size_of::<gridagg_simnet::network::Envelope<Payload<Average>>>(),
            48
        );
    }

    /// An aggregate as it arrives off the wire: a value of `votes` votes
    /// of 1.0 and the count of its contributors (no identity, so it fits
    /// any subtree under `strict-invariants` too). Zero votes is the
    /// empty aggregate.
    fn counted(votes: usize) -> Arc<Tagged<Average>> {
        let value = (votes > 0).then(|| Average::from_parts(votes as f64, votes as u64));
        Arc::new(Tagged::from_parts(value, VoteSet::counted(votes)).unwrap())
    }

    /// Every aggregate `p` holds, by subtree.
    fn held(p: &HierGossip<Average>) -> Vec<(Addr, Arc<Tagged<Average>>)> {
        let mut held = Vec::new();
        for (len, row) in p.rows.iter().enumerate() {
            let slots = row.iter().flat_map(|row| row.slots.iter().enumerate());
            for (d, slot) in slots {
                let subtree = p.my_box.prefix(len).child(d as u8).unwrap();
                held.extend(slot.clone().map(|agg| (subtree, agg)));
            }
        }
        held
    }

    #[test]
    fn an_aggregate_for_a_child_without_members_is_not_stored() {
        // 10 members over 64 boxes: most subtrees are empty
        let h = Hierarchy::with_depth(4, 3).unwrap();
        let idx = ScopeIndex::build(&View::complete(10), &FairHashPlacement::new(h, 1));
        let me = MemberId(0);
        let my_box = idx.box_of(me);
        let (parent, empty) = (0..3)
            .map(|len| my_box.prefix(len))
            .find_map(|p| Some((p, p.children().find(|c| idx.count_in(c) == 0)?)))
            .expect("some chain level has an empty child");
        let mut p: HierGossip<Average> =
            HierGossip::new(me, 1.0, idx.clone(), HierGossipConfig::default());
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        let agg = counted(1);
        let forged = Payload::Agg {
            subtree: empty,
            agg: agg.clone(),
        };
        p.on_message(MemberId(1), forged, &mut ctx, &mut out);
        assert!(held(&p).is_empty());
        // in a row, the populated children are learned and it is not
        let row = Payload::agg_batch(parent, (0..4).map(|_| Some(agg.clone())).collect(), true);
        p.on_message(MemberId(1), row, &mut ctx, &mut out);
        let stored: Vec<Addr> = held(&p).into_iter().map(|(a, _)| a).collect();
        assert_eq!(stored, idx.nonempty_children(&parent));
    }

    /// A member of an `n`-member, base-4 group driven alone until it
    /// gossips child aggregates (phase 2), with its sends discarded.
    fn in_phase_two(n: usize, me: MemberId) -> (HierGossip<Average>, DetRng, Outbox<Average>) {
        let cfg = HierGossipConfig {
            rounds_per_phase: Some(1),
            ..Default::default()
        };
        let mut p = HierGossip::new(me, 1.0, index(n, 4), cfg);
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        p.on_round(&mut Ctx::new(0, &mut rng), &mut out);
        assert_eq!(p.phase(), 2);
        out.drain().for_each(drop);
        (p, rng, out)
    }

    /// A row's entry count and bytes after the tag, recounted from its
    /// encoding as the batch of `parent` less what `skip` flags.
    fn recount(parent: Addr, slots: &Arc<[ChildSlot<Average>]>, skip: u16) -> (u8, u16) {
        let (known, wire, reply, slots) = (0, 0, false, Arc::clone(slots));
        let present = carried(&slots, skip)
            .filter(|(_, slot)| slot.is_some())
            .count();
        let batch = Payload::AggBatch {
            parent,
            known,
            wire,
            skip,
            slots,
            reply,
        };
        let mut encoded = Vec::new();
        crate::message::codec::encode(&batch, &mut encoded);
        (present as u8, encoded.len() as u16 - 1)
    }

    #[test]
    fn a_sent_batch_keeps_its_contents_when_the_member_adopts_later() {
        let (mut p, mut rng, mut out) = in_phase_two(256, MemberId(0));
        let mut ctx = Ctx::new(1, &mut rng);
        p.gossip(&mut ctx, &mut out);
        let (_, sent) = out.drain().next().expect("phase 2 gossips");
        let mut before = Vec::new();
        crate::message::codec::encode(&sent, &mut before);
        let Payload::AggBatch {
            parent,
            known: 1,
            slots,
            ..
        } = &sent
        else {
            panic!("expected the own child alone, got {sent:?}");
        };
        let parent = *parent;
        assert!(Arc::ptr_eq(slots, &p.current_row().unwrap().slots));

        // a sibling arrives while `sent` is still in flight
        let sibling = (0..4)
            .find(|&d| slots[d].is_none() && p.index.count_in(&parent.child(d as u8).unwrap()) > 0)
            .expect("a populated sibling");
        let agg = counted(1);
        let subtree = parent.child(sibling as u8).unwrap();
        p.on_message(
            MemberId(9),
            Payload::Agg { subtree, agg },
            &mut ctx,
            &mut out,
        );
        let row = p.current_row().unwrap();
        assert_eq!(row.known, 2);
        assert!(!Arc::ptr_eq(slots, &row.slots), "the shared row was copied");
        assert!(slots[sibling].is_none(), "the snapshot did not move");
        let mut after = Vec::new();
        crate::message::codec::encode(&sent, &mut after);
        assert_eq!(before, after);

        // with no copy in flight the next adoption writes in place
        drop(sent);
        let at = Arc::as_ptr(&p.current_row().unwrap().slots);
        for agg in [counted(0), counted(2)] {
            p.on_message(
                MemberId(9),
                Payload::Agg { subtree, agg },
                &mut ctx,
                &mut out,
            );
        }
        let row = p.current_row().unwrap();
        assert_eq!(Arc::as_ptr(&row.slots), at);
        assert_eq!(row.slots[sibling].as_ref().unwrap().vote_count(), 2);
        assert_eq!((row.known, row.wire), recount(parent, &row.slots, 0));
    }

    #[test]
    fn a_reply_at_any_level_is_the_stored_row() {
        // run alone to the end: every level holds the own child
        let idx = index(256, 4);
        let me = MemberId(0);
        let cfg = HierGossipConfig {
            rounds_per_phase: Some(1),
            ..Default::default()
        };
        let mut p: HierGossip<Average> = HierGossip::new(me, 1.0, idx.clone(), cfg);
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        for round in 0..8 {
            p.on_round(&mut Ctx::new(round, &mut rng), &mut out);
        }
        assert!(p.is_done());
        out.drain().for_each(drop);
        let my_box = idx.box_of(me);
        let mut ctx = Ctx::new(9, &mut rng);
        for len in 0..my_box.len() {
            let parent = my_box.prefix(len);
            let peer = *idx.members_in(&parent).iter().find(|&&m| m != me).unwrap();
            // a push that carries nothing we could learn, and less
            // than we know: the codec never builds one, a test can
            let push = Payload::agg_batch(parent, (0..4).map(|_| None).collect(), false);
            p.on_message(peer, push, &mut ctx, &mut out);
            let (to, reply) = out.drain().next().expect("a reply at every level");
            assert_eq!(to, peer);
            let stored = p.rows.get(len).and_then(Option::as_ref).unwrap();
            match &reply {
                Payload::AggBatch {
                    parent: of,
                    known,
                    wire,
                    skip,
                    slots,
                    reply: true,
                } => {
                    assert!(Arc::ptr_eq(slots, &stored.slots), "level {len} rebuilt");
                    assert_eq!((*of, *known, *wire), (parent, stored.known, stored.wire));
                    assert_eq!(*skip, 0, "the push held nothing to skip");
                }
                other => panic!("expected a reply row, got {other:?}"),
            }
            // a push that carries as much as we know is not answered,
            // nor is one from outside the subtree
            p.on_message(peer, reply, &mut ctx, &mut out);
            let outsider = (0..256)
                .map(MemberId)
                .find(|&m| !parent.contains(&idx.box_of(m)));
            if let Some(outsider) = outsider {
                let push = Payload::agg_batch(parent, (0..4).map(|_| None).collect(), false);
                p.on_message(outsider, push, &mut ctx, &mut out);
            }
            assert!(out.is_empty());
        }
    }

    #[test]
    fn carried_count_and_bytes_equal_a_recount_over_random_learn_sequences() {
        for seed in 0..40 {
            let mut draw = DetRng::seeded(0xA66 + seed);
            let me = MemberId(draw.below(256) as u32);
            let (mut p, mut rng, mut out) = in_phase_two(256, me);
            let my_box = p.my_box;
            let mut in_flight = Vec::new();
            for step in 0..60 {
                let mut ctx = Ctx::new(1, &mut rng);
                // an aggregate whose count varint is 1, 2 or 3 bytes
                // (0: the empty aggregate, which has no value bytes) for
                // a random child of a random chain level, alone or in a
                // row
                let parent = my_box.prefix(draw.below(my_box.len()));
                let agg = counted([0, 1, 127, 128, 16_383, 16_384][draw.below(6)]);
                let payload = if draw.below(2) == 0 {
                    let subtree = parent.child(draw.below(4) as u8).unwrap();
                    Payload::Agg { subtree, agg }
                } else {
                    let slots = (0..4).map(|_| (draw.below(2) == 0).then(|| agg.clone()));
                    Payload::agg_batch(parent, slots.collect(), draw.below(2) == 0)
                };
                p.on_message(MemberId(1), payload, &mut ctx, &mut out);
                if step % 7 == 0 {
                    // sent copies in flight force the copy-on-write path
                    p.gossip(&mut ctx, &mut out);
                }
                in_flight.extend(out.drain().map(|(_, payload)| payload));
                if in_flight.len() > 6 {
                    in_flight.clear();
                }
                for (len, row) in p.rows.iter().enumerate() {
                    let Some(row) = row else { continue };
                    let parent = my_box.prefix(len);
                    assert_eq!((row.known, row.wire), recount(parent, &row.slots, 0));
                    let sent = row.payload(parent, 0, false);
                    let mut encoded = Vec::new();
                    crate::message::codec::encode(&sent, &mut encoded);
                    assert_eq!(sent.wire_size() as usize, encoded.len());
                    assert_eq!(sent, Payload::agg_batch(parent, row.slots.clone(), false));
                }
            }
            // every message sent along the way still carries what it
            // was sent with
            for sent in &in_flight {
                if let Payload::AggBatch {
                    parent,
                    known,
                    wire,
                    skip,
                    slots,
                    ..
                } = sent
                {
                    assert_eq!((*known, *wire), recount(*parent, slots, *skip));
                }
            }
        }
    }

    #[test]
    fn a_reply_carries_only_what_the_pusher_lacks() {
        use crate::message::codec::{decode, encode};
        // a member whose box's parent has four populated children
        let idx = index(1024, 4);
        let me = (0..1024).map(MemberId).find(|&m| {
            let parent = idx.box_of(m).parent().unwrap();
            let populated = parent.children().all(|c| idx.count_in(&c) > 0);
            populated
        });
        let me = me.expect("a parent with every child populated");
        let parent = idx.box_of(me).parent().unwrap();
        let peer = *idx.members_in(&parent).iter().find(|&&m| m != me).unwrap();
        let mut p = HierGossip::new(me, 1.0, idx.clone(), HierGossipConfig::default());
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        let shared = counted(4);
        let ours = [shared.clone(), counted(5), counted(3), counted(2)];
        for (digit, agg) in ours.into_iter().enumerate() {
            let subtree = parent.child(digit as u8).unwrap();
            p.on_message(peer, Payload::Agg { subtree, agg }, &mut ctx, &mut out);
        }
        // the very same aggregate, one of an equal count, a smaller one,
        // and none
        let pushed = [Some(shared), Some(counted(5)), Some(counted(1)), None];
        let push = Payload::agg_batch(parent, pushed.into(), false);
        p.on_message(peer, push, &mut ctx, &mut out);
        let (to, reply) = out.drain().next().expect("p knows more than the push");
        assert_eq!(to, peer);
        let stored = p.rows.get(parent.len()).and_then(Option::as_ref).unwrap();
        let Payload::AggBatch {
            parent: of,
            known,
            wire,
            skip,
            slots,
            reply: true,
        } = &reply
        else {
            panic!("expected a reply row, got {reply:?}");
        };
        assert_eq!(*of, parent);
        assert!(
            Arc::ptr_eq(slots, &stored.slots),
            "the reply shares the row"
        );
        assert_eq!(*skip, 0b0011);
        assert_eq!((*known, *wire), recount(*of, slots, *skip));
        assert_eq!(*known, 2);
        let mut buf = Vec::new();
        encode(&reply, &mut buf);
        assert_eq!(buf.len(), reply.wire_size() as usize);
        let got = decode::<Average, _>(&mut buf.as_slice()).unwrap();
        let Payload::AggBatch {
            known: 2,
            skip: 0,
            slots,
            ..
        } = got
        else {
            panic!("expected the two carried entries, got {got:?}");
        };
        let counts: Vec<_> = slots
            .iter()
            .map(|s| s.as_ref().map(|a| a.vote_count()))
            .collect();
        assert_eq!(counts, [None, None, Some(3), Some(2)]);
    }

    /// Messages that teach a member aggregates of random counts for
    /// random children of `parent`, some of them `pool`'s own `Arc`s.
    fn aggs_for(
        parent: Addr,
        pool: &[Arc<Tagged<Average>>],
        draw: &mut DetRng,
    ) -> Vec<Payload<Average>> {
        let len = draw.below(2 * pool.len());
        (0..len)
            .map(|_| {
                let digit = draw.below(pool.len());
                let subtree = parent.child(digit as u8).unwrap();
                let agg = match draw.below(2) {
                    0 => pool[digit].clone(),
                    _ => counted(draw.below(6)),
                };
                Payload::Agg { subtree, agg }
            })
            .collect()
    }

    /// Messages that teach a member random votes of `mates`.
    fn votes_of(mates: &[MemberId], draw: &mut DetRng) -> Vec<Payload<Average>> {
        let len = draw.below(mates.len() + 1);
        (0..len)
            .map(|_| {
                let member = mates[draw.below(mates.len())];
                let value = f64::from(member.0);
                Payload::Vote { member, value }
            })
            .collect()
    }

    /// Deliver `msgs` from `from` to each member of `to`.
    fn deliver(
        to: &mut [&mut HierGossip<Average>],
        from: MemberId,
        msgs: Vec<Payload<Average>>,
        ctx: &mut Ctx<'_>,
        out: &mut Outbox<Average>,
    ) {
        for msg in msgs {
            for p in to.iter_mut() {
                p.on_message(from, msg.clone(), ctx, out);
            }
        }
    }

    #[test]
    fn a_pusher_that_only_gained_learns_the_same_from_a_reply_as_from_the_whole_set() {
        let (mut skipped, mut past_the_bits) = (0, 0);
        for k in [2u8, 4, 16, 17] {
            // K = 2 puts 20 members in a box, more than `SKIP_BITS`
            let n = (4 * usize::from(k) * usize::from(k)).max(80);
            let h = Hierarchy::with_depth(k, 2).unwrap();
            let idx = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, 7));
            let member = |m| {
                HierGossip::<Average>::new(
                    m,
                    f64::from(m.0),
                    idx.clone(),
                    HierGossipConfig::default(),
                )
            };
            for seed in 0..60 {
                let mut draw = DetRng::seeded(0x5C1F + seed);
                let mut rng = ctx_rng();
                let mut out = Outbox::new();
                let mut ctx = Ctx::new(0, &mut rng);
                // replier `p` and pusher `them`: box-mates exchanging
                // votes, or members under one chain parent exchanging
                // its row
                let me = MemberId(draw.below(n) as u32);
                let my_box = idx.box_of(me);
                let mates = idx.members_in(&my_box);
                let parent = (draw.below(2) == 0).then(|| my_box.prefix(draw.below(my_box.len())));
                let scope = parent.map_or(mates, |parent| idx.members_in(&parent));
                let them = scope[draw.below(scope.len())];
                if them == me {
                    continue;
                }
                let pool: Vec<_> = (0..k).map(|_| counted(draw.below(6))).collect();
                let mut teach = || match parent {
                    None => votes_of(mates, &mut draw),
                    Some(parent) => aggs_for(parent, &pool, &mut draw),
                };
                // the pusher twice over: one learns the reply, the other
                // the whole set it shares
                let (mut p, mut q) = (member(me), [member(them), member(them)]);
                deliver(&mut [&mut p], them, teach(), &mut ctx, &mut out);
                deliver(&mut q.each_mut(), me, teach(), &mut ctx, &mut out);
                let push = match parent {
                    None => Payload::VoteBatch {
                        votes: q[0].known_votes.clone(),
                        skip: 0,
                        reply: false,
                    },
                    Some(parent) => match q[0].rows.get(parent.len()).and_then(Option::as_ref) {
                        Some(row) => row.payload(parent, 0, false),
                        None => continue,
                    },
                };
                // the pusher only gains while its push is in flight
                deliver(&mut q.each_mut(), me, teach(), &mut ctx, &mut out);
                assert!(out.is_empty(), "no single value is answered");
                p.on_message(them, push, &mut ctx, &mut out);
                let Some((_, reply)) = out.drain().next() else {
                    continue;
                };
                let whole = match &reply {
                    Payload::VoteBatch { votes, skip, .. } => {
                        assert!(carried(votes, *skip).count() > 0, "an empty reply");
                        skipped += skip.count_ones();
                        past_the_bits += usize::from(votes.len() > SKIP_BITS);
                        Payload::VoteBatch {
                            votes: votes.clone(),
                            skip: 0,
                            reply: true,
                        }
                    }
                    Payload::AggBatch {
                        parent,
                        known,
                        wire,
                        skip,
                        slots,
                        ..
                    } => {
                        assert!(*known > 0, "an empty reply");
                        assert_eq!((*known, *wire), recount(*parent, slots, *skip));
                        skipped += skip.count_ones();
                        past_the_bits += usize::from(slots.len() > SKIP_BITS);
                        Payload::agg_batch(*parent, slots.clone(), true)
                    }
                    other => panic!("expected a batch reply, got {other:?}"),
                };
                let [mut by_reply, mut by_whole] = q;
                by_reply.on_message(me, reply, &mut ctx, &mut out);
                by_whole.on_message(me, whole, &mut ctx, &mut out);
                assert!(out.is_empty(), "a reply is not answered");
                assert_eq!(
                    by_reply.known_votes, by_whole.known_votes,
                    "k {k} seed {seed}"
                );
                let (a, b) = (held(&by_reply), held(&by_whole));
                let same = a.len() == b.len()
                    && a.iter()
                        .zip(&b)
                        .all(|(a, b)| a.0 == b.0 && Arc::ptr_eq(&a.1, &b.1));
                assert!(same, "k {k} seed {seed} under {parent:?}: {a:?} vs {b:?}");
            }
        }
        assert!(
            skipped > 0 && past_the_bits > 0,
            "{skipped} skipped, {past_the_bits} wide"
        );
    }

    #[test]
    fn early_bump_skips_waiting() {
        // Phase 1 runs its fixed length; with all child aggregates
        // present the member then cascades upward without waiting out
        // phase 2.
        let idx = index(4, 2); // depth 1, 2 boxes, 2 phases
        let me = MemberId(0);
        let mut p: HierGossip<Average> =
            HierGossip::new(me, 1.0, idx.clone(), HierGossipConfig::default());
        // hand it the sibling box aggregate straight away
        let my_box = idx.box_of(me);
        let sibling = my_box
            .parent()
            .unwrap()
            .children()
            .find(|c| *c != my_box)
            .unwrap();
        // fill in my box votes
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        for &m in idx.members_in(&my_box) {
            if m != me {
                p.on_message(
                    m,
                    Payload::Vote {
                        member: m,
                        value: 2.0,
                    },
                    &mut ctx,
                    &mut out,
                );
            }
        }
        if idx.count_in(&sibling) > 0 {
            let mut sib_agg = Tagged::<Average>::empty(4);
            for &m in idx.members_in(&sibling) {
                sib_agg
                    .try_merge(&Tagged::from_vote(m.index(), 3.0, 4))
                    .unwrap();
            }
            p.on_message(
                MemberId(1),
                Payload::Agg {
                    subtree: sibling,
                    agg: Arc::new(sib_agg),
                },
                &mut ctx,
                &mut out,
            );
        }
        let phase1 = u64::from(p.rounds_per_phase());
        for round in 0..phase1 {
            p.on_round(&mut Ctx::new(round, &mut rng), &mut out);
        }
        assert!(!p.is_done(), "phase 1 timed out into phase 2");
        p.on_round(&mut Ctx::new(phase1, &mut rng), &mut out);
        assert!(p.is_done(), "early bump should cascade to completion");
        assert_eq!(p.estimate().unwrap().vote_count(), 4);
    }

    #[test]
    fn push_from_behind_peer_gets_reply() {
        let idx = index(64, 4);
        let me = MemberId(0);
        let my_box = idx.box_of(me);
        let mate = *idx
            .members_in(&my_box)
            .iter()
            .find(|&&m| m != me)
            .expect("box mate");
        let mut p: HierGossip<Average> = HierGossip::new(me, 1.0, idx, HierGossipConfig::default());
        // teach p a second vote so it knows strictly more than the push
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        p.on_message(
            mate,
            Payload::Vote {
                member: mate,
                value: 2.0,
            },
            &mut ctx,
            &mut out,
        );
        assert!(out.is_empty(), "single-value Vote pushes are not answered");
        // now a batch push carrying less than p knows triggers a reply
        p.on_message(
            mate,
            Payload::VoteBatch {
                votes: [(mate, 2.0)].into(),
                skip: 0,
                reply: false,
            },
            &mut ctx,
            &mut out,
        );
        let msgs: Vec<_> = out.drain().collect();
        assert_eq!(msgs.len(), 1, "expected exactly one reply");
        assert_eq!(msgs[0].0, mate);
        match &msgs[0].1 {
            Payload::VoteBatch { votes, skip, reply } => {
                assert!(*reply);
                // the mate listed its own vote: the reply carries p's
                assert!(Arc::ptr_eq(votes, &p.known_votes));
                let carried: Vec<_> = carried(votes, *skip).map(|(_, &vote)| vote).collect();
                assert_eq!(carried, [(me, 1.0)]);
            }
            other => panic!("expected reply VoteBatch, got {other:?}"),
        }
        let mut buf = Vec::new();
        crate::message::codec::encode(&msgs[0].1, &mut buf);
        assert_eq!(buf.len(), msgs[0].1.wire_size() as usize);
        let got = crate::message::codec::decode::<Average, _>(&mut buf.as_slice()).unwrap();
        let own: Arc<[_]> = [(me, 1.0)].into();
        let expect = Payload::VoteBatch {
            votes: own,
            skip: 0,
            reply: true,
        };
        assert_eq!(got, expect);
    }

    #[test]
    fn replies_are_never_answered() {
        let idx = index(64, 4);
        let me = MemberId(0);
        let my_box = idx.box_of(me);
        let mate = *idx
            .members_in(&my_box)
            .iter()
            .find(|&&m| m != me)
            .expect("box mate");
        let mut p: HierGossip<Average> = HierGossip::new(me, 1.0, idx, HierGossipConfig::default());
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        // a reply carrying *less* than we know must not trigger another
        // reply (termination of exchanges)
        p.on_message(
            mate,
            Payload::VoteBatch {
                votes: [].into(),
                skip: 0,
                reply: true,
            },
            &mut ctx,
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn terminated_member_still_serves_replies() {
        let idx = index(4, 2);
        let me = MemberId(0);
        let cfg = HierGossipConfig {
            rounds_per_phase: Some(1),
            ..Default::default()
        };
        let mut p: HierGossip<Average> = HierGossip::new(me, 1.0, idx.clone(), cfg);
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        for round in 0..10 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
            out.drain().for_each(drop);
        }
        assert!(p.is_done());
        // a straggler in the same box pushes an empty-ish batch; the
        // done member must answer with its known votes
        let mate = idx
            .members_in(&idx.box_of(me))
            .iter()
            .copied()
            .find(|&m| m != me);
        if let Some(mate) = mate {
            let mut ctx = Ctx::new(11, &mut rng);
            p.on_message(
                mate,
                Payload::VoteBatch {
                    votes: [].into(),
                    skip: 0,
                    reply: false,
                },
                &mut ctx,
                &mut out,
            );
            let msgs: Vec<_> = out.drain().collect();
            assert_eq!(msgs.len(), 1, "done member must still serve state");
        }
        // but its estimate learns nothing more
        let before = p.estimate().unwrap().vote_count();
        let (member, value) = (MemberId(1), 5.0);
        let mut ctx = Ctx::new(12, &mut rng);
        p.on_message(member, Payload::Vote { member, value }, &mut ctx, &mut out);
        assert_eq!(p.estimate().unwrap().vote_count(), before);
    }

    #[test]
    fn partial_view_limits_gossip_targets() {
        let idx = index(64, 4);
        let me = MemberId(0);
        let my_box = idx.box_of(me);
        let known: Vec<MemberId> = idx
            .members_in(&my_box)
            .iter()
            .copied()
            .filter(|&m| m != me)
            .take(1)
            .collect();
        assert!(!known.is_empty(), "box has a mate");
        let allowed = known[0];
        let mut p: HierGossip<Average> =
            HierGossip::new(me, 1.0, idx, HierGossipConfig::default()).with_view(vec![me, allowed]);
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        for round in 0..4 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
            for (to, _) in out.drain() {
                assert_eq!(to, allowed, "gossip must stay inside the view");
            }
            if p.phase() > 1 {
                break;
            }
        }
    }

    #[test]
    fn trace_records_phase_progress() {
        let idx = index(16, 4);
        let phases = idx.hierarchy().phases();
        let mut p: HierGossip<Average> =
            HierGossip::new(MemberId(0), 1.0, idx, HierGossipConfig::default());
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut round = 0;
        while !p.is_done() && round < 1000 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
            out.drain().for_each(drop);
            round += 1;
        }
        assert_eq!(p.trace.len(), phases);
        for (i, t) in p.trace.iter().enumerate() {
            assert_eq!(t.phase, i + 1);
            assert!(t.known <= t.expected.max(t.known));
            assert!(t.votes >= 1);
        }
        // votes covered can only grow phase over phase
        for w in p.trace.windows(2) {
            assert!(w[1].votes >= w[0].votes);
        }
    }
}
