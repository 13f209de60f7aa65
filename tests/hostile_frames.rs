//! Generated hostile frames against all six protocols.
//!
//! The paper's members are fail-stop processes on a lossy network (§7),
//! so on sockets a member must survive any byte string, and the one
//! payload check between the wire and a protocol is `codec::decode_for`.
//! From a fixed `DetRng` seed range this builds frames of every
//! `Payload` variant: member ids from `[0, n)` plus `n` and `u32::MAX`,
//! contributor counts from `[0, n]` plus `n + 1` and `usize::MAX`, every
//! `f64` from the vote hull plus NaN and ±∞, and addresses in every
//! relation to the receiver's box. Fixed frames ride along: batches and
//! addresses no encoder writes (an empty batch of either kind, a mask
//! bit at or above the base, a code past its base's capacity among
//! them), varints in other than their one
//! encoding, reply flags on variants that never reply, masks and counts
//! with nothing behind them, a byte after a whole payload of each
//! variant, and payloads every protocol must drop.
//!
//! An aggregate's vote count crosses the wire once, as its contributor
//! count, with a value behind it iff it is above zero. So two frames
//! can no longer be written: an average weighted other than the
//! coverage it claims (2³², `u64::MAX`, or 1 beside any count), and a
//! value beside count 0. What is left of them is fixed frames: a count
//! above `n` with its value, and count 0 followed by value bytes, which
//! are bytes after the payload.
//!
//! Asserted: a frame decodes, to what was encoded, if and only if its
//! ids, counts and values are in range (a prefix of it never does, and
//! a corrupted copy never panics the decoder), and a decoded payload's
//! `wire_size()` is the frame's length; delivered between a
//! member's rounds until it terminates, traced or not, to each of the
//! six protocols, nothing panics, a delivery queues at most one message
//! (none for a payload to drop), and the final estimate names only
//! members and lies in the vote hull (for Flow-Updating, whose flows the
//! hull does not bound: is finite).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use gridagg::aggregate::wire::clamp_len;
use gridagg::core::baselines::ring_chord_neighbors;
use gridagg::core::message::codec::{self, DecodeError};
use gridagg::core::protocol::{step, Effects, Outbox};
use gridagg::core::trace::{DynSink, TraceEvent, TraceSink};
use gridagg::core::Payload;
use gridagg::prelude::*;
use gridagg::simnet::network::Envelope;

/// Depth 3: a member's box has three proper ancestors.
const N: usize = 256;
const K: u8 = 4;
const SEEDS: std::ops::Range<u64> = 0..512;
const FRAMES_PER_SEED: usize = 24;
/// Every vote, and every value an in-range frame carries, lies here.
const HULL: (f64, f64) = (-1.0, 1.0);
/// What the fixed frames carry: finite, and so far outside the hull that
/// a protocol adopting one shows it in its estimate.
const FAR: f64 = 1e9;
const MAX_ROUNDS: u64 = 200;

/// A frame's payload bytes; what `decode_for` must return for them; and
/// the messages one delivery of that payload may queue.
type Frame = (Vec<u8>, Result<Payload<Average>, DecodeError>, usize);

fn encode(payload: &Payload<Average>) -> Vec<u8> {
    let mut bytes = Vec::new();
    codec::encode(payload, &mut bytes);
    bytes
}

/// Draws the fields of frames for one receiver, noting whether the frame
/// under construction has left the group's range.
struct Gen<'a> {
    rng: DetRng,
    my_box: Addr,
    /// The receiver's box-mates and overlay neighbours.
    near: [&'a [MemberId]; 2],
    in_range: bool,
}

impl Gen<'_> {
    /// One of the out-of-range `edges`, one time in eight, else `inside`.
    fn draw<T: Copy>(&mut self, edges: &[T], inside: impl FnOnce(&mut Self) -> T) -> T {
        match edges.get(self.rng.below(8 * edges.len())) {
            Some(&edge) => {
                self.in_range = false;
                edge
            }
            None => inside(self),
        }
    }

    /// A member of the group, often one the receiver listens to.
    fn member(&mut self) -> MemberId {
        let near = self.near[self.rng.below(2)];
        match self.rng.choose(near) {
            Some(&m) if self.rng.chance(0.7) => m,
            _ => MemberId(self.rng.below(N) as u32),
        }
    }

    fn id(&mut self) -> MemberId {
        self.draw(&[MemberId(N as u32), MemberId(u32::MAX)], Self::member)
    }

    fn count(&mut self) -> usize {
        self.draw(&[N + 1, usize::MAX], |g| g.rng.below(N + 1))
    }

    fn value(&mut self) -> f64 {
        self.draw(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY], |g| {
            let at = [0.0, 1.0, g.rng.unit()][g.rng.below(3)];
            HULL.0 + (HULL.1 - HULL.0) * at
        })
    }

    /// A counted aggregate, as every one that crossed a socket is: the
    /// average of as many votes as it claims contributors (of `u32::MAX`
    /// for a claim past it, which the wire writes as that), empty when it
    /// claims nobody.
    fn tagged(&mut self) -> Arc<Tagged<Average>> {
        let count = self.count();
        let votes = u64::from(clamp_len(count));
        let agg = (count > 0).then(|| Average::from_parts(self.value(), votes));
        Arc::new(Tagged::from_parts(agg, VoteSet::counted(count)).expect("a value iff a count"))
    }

    fn digits(&mut self, base: u8, len: usize) -> Vec<u8> {
        let digit = |g: &mut Self| g.rng.below(usize::from(base)) as u8;
        (0..len).map(|_| digit(self)).collect()
    }

    /// An address in one of its relations to the receiver's box: the
    /// box, the box plus a digit, a chain parent, a chain parent's child,
    /// a foreign subtree, another base, the root, a digit past the depth.
    fn addr(&mut self) -> Addr {
        let depth = self.my_box.len();
        let (mut base, mut digits): (u8, Vec<u8>) = (K, self.my_box.digits().collect());
        let len = self.rng.below(depth); // of a chain parent
        match self.rng.below(8) {
            0 => {}
            1 => digits.extend(self.digits(K, 1)),
            2 => digits.truncate(len),
            3 => {
                digits.truncate(len);
                digits.extend(self.digits(K, 1));
            }
            4 => {
                digits[0] = (digits[0] + 1 + self.digits(K - 1, 1)[0]) % K;
                digits.truncate(1 + len);
            }
            5 => {
                base = K + 1;
                digits = self.digits(base, len + 1);
            }
            6 => digits.clear(),
            _ => digits = self.digits(K, depth + 1),
        }
        Addr::from_digits(base, &digits).expect("an address")
    }

    fn frame(&mut self) -> Frame {
        self.in_range = true;
        let reply = self.rng.chance(0.5);
        let (payload, variant) = match self.rng.below(6) {
            0 => {
                let (member, value) = (self.id(), self.value());
                (Payload::Vote { member, value }, "vote")
            }
            1 => {
                // the honest shape, the receiver's box-mates, or any ids;
                // none at all is never sent, and answering it would
                // reflect the receiver's votes
                let (mates, len) = (self.near[0], self.rng.below(2 * usize::from(K) + 2));
                let votes = if self.rng.chance(0.5) {
                    mates.iter().map(|&m| (m, self.value())).collect()
                } else {
                    self.in_range &= len > 0;
                    (0..len).map(|_| (self.id(), self.value())).collect()
                };
                let skip = 0;
                (Payload::VoteBatch { votes, skip, reply }, "vote-batch")
            }
            2 => {
                let (subtree, agg) = (self.addr(), self.tagged());
                (Payload::Agg { subtree, agg }, "agg")
            }
            3 => (Payload::Final { agg: self.tagged() }, "final"),
            4 => {
                // a row its parent's base wide, with at least one entry
                let parent = self.addr();
                let first = self.rng.below(usize::from(parent.base()));
                let slots = (0..usize::from(parent.base()))
                    .map(|d| (d == first || self.rng.chance(0.5)).then(|| self.tagged()))
                    .collect();
                (Payload::agg_batch(parent, slots, reply), "agg-batch")
            }
            _ => {
                let (flow, estimate) = (self.value(), self.value());
                let influenced = Arc::new(VoteSet::counted(self.count()));
                let flow = Payload::Flow {
                    flow,
                    estimate,
                    reply,
                    influenced,
                };
                (flow, "flow")
            }
        };
        let expect = self.in_range.then(|| payload.clone());
        let expect = expect.ok_or(DecodeError::Malformed { variant });
        (encode(&payload), expect, 1)
    }
}

/// Frames no encoder writes, and payloads that no member in `my_box` may
/// adopt or answer.
fn fixed_frames(my_box: Addr) -> Vec<Frame> {
    let far = Tagged::from_parts(Some(Average::from_vote(FAR)), VoteSet::counted(1));
    let far = Arc::new(far.expect("one vote"));
    let row = |k: u8, has: fn(u8) -> bool| (0..k).map(|d| has(d).then(|| far.clone())).collect();
    let agg_at = |base, digits: &[u8]| {
        let subtree = Addr::from_digits(base, digits).expect("address");
        let agg = far.clone();
        Payload::Agg { subtree, agg }
    };
    // an `AggBatch` under `parent` with the presence mask `mask`,
    // followed by `entries` hand-made entries, each the aggregate as
    // `Final` writes it
    let tagged = encode(&Payload::Final { agg: far.clone() }).split_off(1);
    let batch_of = |parent: Addr, mask: &[u8], entries: usize| {
        let mut bytes = encode(&Payload::agg_batch(
            parent,
            row(parent.base(), |_| true),
            false,
        ));
        bytes.truncate(1 + codec::addr_len(&parent)); // tag, base, code
        bytes.extend_from_slice(mask);
        for _ in 0..entries {
            bytes.extend_from_slice(&tagged);
        }
        bytes
    };
    let batch = |mask: u8, entries| batch_of(my_box, &[mask], entries);
    let rejected = |bytes, variant| (bytes, Err(DecodeError::Malformed { variant }), 0);
    let cut = |bytes, variant| (bytes, Err(DecodeError::Truncated { variant }), 0);
    let dropped = |payload: Payload<Average>| (encode(&payload), Ok(payload), 0);
    // an `Agg` is its tag, base, one-byte code, aggregate; the box's
    // code is one byte too (21 shorter codes come first), so either
    // payload takes another base and code at byte 1
    let valid = encode(&agg_at(4, &[3, 3]));
    let with_code =
        |bytes: &[u8], base: u8, code: &[u8]| [&bytes[..1], &[base], code, &bytes[3..]].concat();
    // the first code past base 255's four digits, and base 4's fifteen
    let past_capacity = |base: u8, top: usize| {
        let deepest = u64::from(base).pow(top as u32) - 1;
        let deepest = Addr::from_index(base, top, deepest).expect("at capacity");
        let mut code = Vec::new();
        gridagg::aggregate::wire::put_varint(deepest.code() + 1, &mut code);
        code
    };
    let too_wide = with_code(&valid, 255, &past_capacity(255, 4));
    let bad_base = with_code(&valid, 1, &valid[2..3]);
    let overlong_code = with_code(&valid, 4, &[valid[2] | 0x80, 0x00]);
    let my_row = encode(&Payload::agg_batch(my_box, row(K, |_| true), false));
    let row_too_deep = with_code(&my_row, K, &past_capacity(K, 15));
    let row_overlong = with_code(&my_row, K, &[my_row[2] | 0x80, 0x00]);
    // base 255 holds four digits: this parent's children are past it
    let full = Addr::from_digits(255, &[0; 4]).expect("at capacity");
    let one_of_255 = [&[1][..], &[0; 31]].concat();
    let foreign = (my_box.digit(0) + 1) % K;
    let parent = Addr::from_digits(K, &[foreign]).expect("foreign");
    let by_hand = batch_of(parent, &[0b1001], 2);
    let in_order = Payload::agg_batch(parent, row(K, |d| d % 3 == 0), false);
    let past_the_box: Vec<u8> = my_box.digits().chain([0]).collect();
    let root = Addr::root(K + 1).expect("root");
    // a vote of member 5 is its tag, the id's one varint byte, the value
    let vote = encode(&Payload::Vote {
        member: MemberId(5),
        value: FAR,
    });
    let overlong = [&vote[..1], &[0x85, 0x00], &vote[2..]].concat();
    // a `Final` is its tag, its count of one contributor, the value:
    // count 2^32 + 1; count 0, leaving the value after the payload
    let final_bytes = encode(&Payload::Final { agg: far.clone() });
    let past = [0x81, 0x80, 0x80, 0x80, 0x10];
    let past_u32 = [&final_bytes[..1], &past, &final_bytes[2..]].concat();
    let nobodys = |mut bytes: Vec<u8>, count_at: usize| {
        bytes[count_at] = 0;
        bytes
    };
    // a value of one more vote than the group holds
    let over = Average::from_parts(FAR, N as u64 + 1);
    let over = Tagged::from_parts(Some(over), VoteSet::counted(N + 1)).expect("honest");
    let over_n = Payload::Final {
        agg: Arc::new(over),
    };
    let replying = |mut bytes: Vec<u8>| {
        bytes[0] |= 0x80;
        bytes
    };
    let one_vote: Arc<[_]> = [(MemberId(5), FAR)].into();
    let vote_batch = Payload::VoteBatch {
        votes: one_vote,
        skip: 0,
        reply: false,
    };
    let no_votes = Payload::VoteBatch {
        votes: [].into(),
        skip: 0,
        reply: false,
    };
    let mut three_votes = encode(&vote_batch);
    three_votes[1] = 3;
    // a whole payload of each variant and one byte more
    let trailing = |bytes: &[u8], variant| rejected([bytes, &[0]].concat(), variant);
    let flow = Payload::Flow {
        flow: FAR,
        estimate: FAR,
        reply: false,
        influenced: Arc::new(VoteSet::counted(1)),
    };
    vec![
        // an address code past its base's capacity, a base below 2, an
        // overlong code; in a batch, past capacity and overlong
        rejected(too_wide, "agg"),
        rejected(bad_base, "agg"),
        rejected(overlong_code, "agg"),
        rejected(row_too_deep, "agg-batch"),
        rejected(row_overlong, "agg-batch"),
        // no vote; mask 0, a mask bit at the base alone and beside a
        // child, more entries than the mask names, a parent whose
        // children are past the address capacity
        rejected(encode(&no_votes), "vote-batch"),
        rejected(batch(0, 0), "agg-batch"),
        rejected(batch(1 << K, 1), "agg-batch"),
        rejected(batch(1 << K | 1, 1), "agg-batch"),
        rejected(batch(0b1111, 5), "agg-batch"),
        rejected(batch_of(full, &one_of_255, 1), "agg-batch"),
        // an overlong id, a count past `u32::MAX`, a reply flag on each
        // variant that never replies
        rejected(overlong, "vote"),
        rejected(past_u32, "final"),
        // a count above the group with its value; count 0 with a value
        // behind it
        rejected(encode(&over_n), "final"),
        rejected(nobodys(final_bytes.clone(), 1), "final"),
        rejected(nobodys(valid.clone(), 3), "agg"),
        trailing(&vote, "vote"),
        trailing(&encode(&agg_at(K, &[foreign, 0])), "agg"),
        trailing(&final_bytes, "final"),
        trailing(&encode(&vote_batch), "vote-batch"),
        trailing(&encode(&in_order), "agg-batch"),
        trailing(&encode(&flow), "flow"),
        rejected(replying(vote), "vote"),
        rejected(replying(valid), "agg"),
        rejected(replying(final_bytes), "final"),
        // a mask cut short; entries named with their bytes missing
        cut(batch_of(my_box, &[], 0), "agg-batch"),
        cut(batch(0b1011, 1), "agg-batch"),
        cut(three_votes, "vote-batch"),
        // a foreign row, written by hand; a foreign subtree; the root,
        // whose aggregate is never gossiped; the box plus a digit, deeper
        // than any slot; rows of the box's and of another base's root
        (by_hand, Ok(in_order), 0),
        dropped(agg_at(K, &[foreign, 0])),
        dropped(agg_at(K, &[])),
        dropped(agg_at(K, &past_the_box)),
        dropped(Payload::agg_batch(my_box, row(K, |_| true), false)),
        dropped(Payload::agg_batch(root, row(K + 1, |_| true), false)),
    ]
}

/// Counts what one step sends and, when `.1`, takes its events too.
struct Sent(usize, bool);

impl TraceSink for Sent {
    fn record(&mut self, _: TraceEvent) {}
}

impl Effects<Average> for Sent {
    fn sink(&mut self) -> Option<&mut dyn DynSink> {
        self.1.then_some(self as &mut dyn DynSink)
    }

    fn send(&mut self, _: Round, _: MemberId, _: MemberId, _: Payload<Average>, _: bool) {
        self.0 += 1;
    }
}

/// One seed's receiver and the payloads that decoded for it, each with
/// its sender and the messages it may make the receiver queue.
struct Receiver {
    me: MemberId,
    mail: Vec<(MemberId, Payload<Average>, usize)>,
    seed: u64,
}

impl Receiver {
    /// Deliver the mail to `p`, two payloads before each of its rounds,
    /// until it has terminated and the mail is out (a terminated member
    /// still answers); then check its estimate, which must lie in the
    /// hull or, `finite_only`, be finite. The first promise broken, and
    /// where.
    fn drive<P>(&self, mut p: P, finite_only: bool) -> Result<(), (&'static str, String)>
    where
        P: AggregationProtocol<Average>,
    {
        let (me, seed) = (self.me, self.seed);
        let (mut rng, mut out, mut mail) = (DetRng::seeded(seed), Outbox::new(), self.mail.iter());
        let mut round = 0;
        while !(p.is_done() && mail.len() == 0) {
            if round == MAX_ROUNDS {
                return Err(("terminates", format!("seed {seed}")));
            }
            for msg in mail.by_ref().take(2).map(Some).chain([None]) {
                let env = msg.map(|(from, payload, _)| Envelope {
                    from: *from,
                    to: me,
                    sent_at: round,
                    payload: payload.clone(),
                });
                let mut fx = Sent(0, seed % 4 >= 2);
                let stepped = catch_unwind(AssertUnwindSafe(|| {
                    step(&mut p, &mut rng, me, round, N, env, &mut out, &mut fx)
                }));
                let broken = match stepped {
                    Err(_) => "nothing panics",
                    Ok(_) if fx.0 > msg.map_or(usize::MAX, |m| m.2) => "at most one reply",
                    Ok(_) => continue,
                };
                let at = format!("{:?} (seed {seed}, round {round})", msg.map(|m| &m.1));
                return Err((broken, at));
            }
            round += 1;
        }
        let Some(estimate) = p.estimate() else {
            return Ok(());
        };
        // who an estimate counts is known where its set is exact
        if let Some(m) = estimate.votes().iter().find(|&m| m >= N) {
            return Err(("estimate counts only members", format!("{m} (seed {seed})")));
        }
        let Some(value) = estimate.aggregate().map(Aggregate::summary) else {
            return Ok(());
        };
        let (promise, kept) = if finite_only {
            ("estimate is finite", value.is_finite())
        } else {
            let hull = HULL.0 - 1e-9..=HULL.1 + 1e-9;
            ("estimate in the vote hull", hull.contains(&value))
        };
        kept.then_some(())
            .ok_or_else(|| (promise, format!("{value} (seed {seed})")))
    }
}

#[test]
fn generated_hostile_frames_decode_for_the_group_and_every_protocol_survives_them() {
    let hierarchy = Hierarchy::for_group(K, N).expect("shape");
    let index = ScopeIndex::build(&View::complete(N), &FairHashPlacement::new(hierarchy, 7));
    let le_cfg = LeaderElectionConfig::default();
    let directory = LeaderDirectory::build(&index, &le_cfg);
    let everyone: Vec<MemberId> = (0..N as u32).map(MemberId).collect();
    let decode = |mut bytes: &[u8]| codec::decode_for::<Average, _>(N as u32, &mut bytes);
    let (mut admitted, mut rejected) = (0, 0);

    for seed in SEEDS {
        let mut rng = DetRng::seeded(seed);
        let me = MemberId(rng.below(N) as u32);
        let my_box = index.box_of(me);
        let neighbors = ring_chord_neighbors(&everyone, me.index());
        let near = [index.members_in(&my_box), &neighbors[..]];
        let in_range = true;
        let mut gen = Gen {
            rng,
            my_box,
            near,
            in_range,
        };
        let mut frames: Vec<Frame> = (0..FRAMES_PER_SEED).map(|_| gen.frame()).collect();
        // each frame's decode is asserted below; the balance is the
        // generator's (most fixed frames are rejections by design)
        let inside = frames
            .iter()
            .filter(|(_, expect, _)| expect.is_ok())
            .count();
        admitted += inside;
        rejected += FRAMES_PER_SEED - inside;
        for fixed in fixed_frames(my_box) {
            frames.insert(gen.rng.below(frames.len() + 1), fixed);
        }

        let mut mail = Vec::new();
        for (bytes, expect, replies) in frames {
            let decoded = decode(&bytes);
            assert_eq!(decoded, expect, "seed {seed}");
            // one to three flipped bytes, then cut anywhere: any answer
            // but a panic
            let mut bad = bytes.clone();
            for _ in 0..=gen.rng.below(2) {
                let at = gen.rng.below(bad.len());
                bad[at] ^= 1 + gen.rng.below(255) as u8;
            }
            let _ = decode(&bad[..gen.rng.below(bad.len() + 1)]);
            let Ok(payload) = decoded else {
                continue;
            };
            // what the simulator would charge for it is what arrived,
            // the decoder's sum of a batch's entries included
            let charged = payload.wire_size() as usize;
            assert_eq!(charged, bytes.len(), "{payload:?} (seed {seed})");
            let cut_short = (0..bytes.len()).all(|cut| decode(&bytes[..cut]).is_err());
            assert!(cut_short, "a prefix of {payload:?} decoded (seed {seed})");
            mail.push((gen.member(), payload, replies));
        }

        let vote = HULL.0 + (HULL.1 - HULL.0) * me.index() as f64 / (N - 1) as f64;
        let mut central = CentralizedConfig::for_group(N);
        if seed % 2 == 0 {
            central.leader = me; // the receiver leads every other seed
        }
        let central = Centralized::new(me, vote, N, central);
        let hier = HierGossip::new(me, vote, index.clone(), HierGossipConfig::default());
        let flat = FlatGossip::new(me, vote, N, FlatGossipConfig::default());
        let flood = Flood::new(me, vote, N, FloodConfig::default());
        let leader = LeaderElection::new(me, vote, index.clone(), directory.clone(), le_cfg);
        let fu = FlowUpdating::new(me, vote, N, neighbors, FlowUpdatingConfig::default());
        let to = Receiver { me, mail, seed };
        let runs = [
            ("hiergossip", to.drive(hier, false)),
            ("flatgossip", to.drive(flat, false)),
            ("flood", to.drive(flood, false)),
            ("centralized", to.drive(central, false)),
            ("leader", to.drive(leader, false)),
            ("flow-updating", to.drive(fu, true)),
        ];
        let broken = runs.into_iter().filter_map(|(protocol, run)| {
            let (promise, at) = run.err()?;
            Some(format!("{protocol}: \"{promise}\" broken at {at}"))
        });
        let broken: Vec<String> = broken.collect();
        assert!(broken.is_empty(), "\n{}", broken.join("\n"));
    }
    // generated frames stay mostly in range: admitted ones outnumber
    // rejected ones by more than two a seed
    let margin = 2 * SEEDS.count();
    assert!(
        rejected > 0 && admitted > rejected + margin,
        "{admitted} generated frames admitted, {rejected} rejected"
    );
}
