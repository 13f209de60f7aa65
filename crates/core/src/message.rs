//! Protocol messages and their wire sizes.
//!
//! All protocols in this crate exchange the same small message
//! vocabulary, so the engine and the network layer can be shared. The
//! paper's constant-message-size assumption is honoured: a message
//! carries one vote, one subtree aggregate, one final result, or a
//! *bounded* batch — at most `K` child aggregates, or the votes of one
//! grid box (expected `K`) — never anything that grows with `N`.
//! Contributor sets are local instrumentation and are never encoded:
//! [`codec`] writes each set's *count*, a 1–5 B varint ahead of every
//! carried `Tagged`, which is followed by its value iff the count is
//! above zero and is the only place the value's own vote count is
//! written (see `gridagg_aggregate::wire::encode_tagged`). And
//! [`Payload::wire_size`], what the simulator charges, is exactly the
//! length [`codec::encode`] writes.
//!
//! **A batch body is the sender's own storage.** [`Payload::VoteBatch`]
//! holds the `Arc` of the member's known-vote list (a slice: a new vote
//! makes a new list, a sent one never changes) and
//! [`Payload::AggBatch`] the `Arc` of its row of child aggregates (one
//! [`ChildSlot`] per last digit, with the row's entry count and encoded
//! bytes carried beside it), so sending or replying is a
//! reference-count bump, and an aggregate batch's
//! [`Payload::wire_size`] a field read. The
//! member writes its row through `Arc::make_mut`: a message in flight
//! keeps the snapshot it was sent with. On the wire an aggregate batch
//! is its parent's address once, a presence mask of one bit per child
//! slot, then the aggregates of the slots the mask names, in digit
//! order; an address is its base and one varint, [`Addr::code`], which
//! names its length and digits together.
//!
//! A reply carries only what its pusher lacks, and still shares the
//! replier's storage: a batch's `skip` marks the entries at an index
//! below [`SKIP_BITS`] that are left off the wire (see [`carried`]). A
//! batch's counts, its length on the wire and what a receiver learns
//! from it are of the carried entries alone, and [`codec::decode`]
//! returns only those, with `skip` 0.

use std::sync::Arc;

use gridagg_aggregate::wire::WireAggregate;
use gridagg_aggregate::Tagged;
use gridagg_group::MemberId;
use gridagg_hierarchy::Addr;

/// One slot of a row of child aggregates: what is known for the child
/// subtree with that last digit (see [`Payload::AggBatch`]).
pub type ChildSlot<A> = Option<Arc<Tagged<A>>>;

/// A protocol message payload.
///
/// Heavy bodies (aggregates, batches) are [`Arc`]-shared so that
/// fanning one payload out to `F` gossip targets is `F` reference-count
/// bumps, not `F` deep clones of the `Tagged` contributor bitsets. The
/// `Arc` is a simulation/runtime artifact — wire sizes and the codec
/// are unaffected.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload<A> {
    /// One member's vote, with the identifier of the member whose vote it
    /// is (phase-1 gossip; also flood/centralized gather traffic).
    Vote {
        /// Whose vote this is (not necessarily the sender: phase-1
        /// gossip relays known votes).
        member: MemberId,
        /// The vote value.
        value: f64,
    },
    /// The aggregate for one subtree (phase ≥ 2 gossip; leader-election
    /// upward traffic).
    Agg {
        /// The subtree this aggregate summarizes.
        subtree: Addr,
        /// The aggregate (instrumented with its contributor set).
        agg: Arc<Tagged<A>>,
    },
    /// The final group-wide result, disseminated by centralized /
    /// leader-election protocols.
    Final {
        /// The group aggregate.
        agg: Arc<Tagged<A>>,
    },
    /// A batch of known votes (phase-1 batch gossip). Bounded by the
    /// grid box size (expected `K`), so still constant-size in `N`.
    VoteBatch {
        /// `(owner, vote)` pairs.
        votes: Arc<[(MemberId, f64)]>,
        /// The pairs left off the wire: bit `i` set skips `votes[i]`
        /// (see [`carried`]).
        skip: u16,
        /// Whether this is a reactive reply to a push (replies are never
        /// answered, so exchanges terminate).
        reply: bool,
    },
    /// The known aggregates of one subtree's children (phase ≥ 2 batch
    /// gossip): the sender's row for that subtree, shared, not copied.
    /// Bounded by `K` entries — constant-size in `N`. Entries are
    /// themselves `Arc`-shared so a receiver can adopt one without
    /// copying its contributor bitmap.
    AggBatch {
        /// The subtree whose children the row describes.
        parent: Addr,
        /// Carried present slots: the bits set in the mask on the wire.
        known: u8,
        /// Encoded bytes after the tag: the parent's address and the
        /// mask ([`codec::agg_batch_head`]), then the carried present
        /// entries ([`codec::agg_entry_wire`] each).
        wire: u16,
        /// The slots left off the wire: bit `d` set skips `slots[d]`
        /// (see [`carried`]).
        skip: u16,
        /// One slot per last digit: `slots[d]` is the aggregate of
        /// `parent.child(d)`.
        slots: Arc<[ChildSlot<A>]>,
        /// Whether this is a reactive reply to a push.
        reply: bool,
    },
    /// One Flow-Updating edge update: the sender's current flow on the
    /// edge to the receiver plus its current estimate (the
    /// mass-conserving averaging baseline; see
    /// [`crate::baselines::FlowUpdating`]). Constant-size in `N` — the
    /// `influenced` contributor set is simulation instrumentation for
    /// completeness scoring; like the `Tagged` sets it crosses the codec,
    /// and is charged, as a count.
    Flow {
        /// Flow the sender currently assigns to the (sender → receiver)
        /// edge.
        flow: f64,
        /// The sender's current average estimate.
        estimate: f64,
        /// Whether this is the responder half of a pairwise exchange
        /// (the receiver adopts without answering) or an initiating
        /// request (the receiver averages and answers).
        reply: bool,
        /// Members whose votes have (transitively) influenced the
        /// sender's estimate — instrumentation, not protocol state.
        influenced: Arc<gridagg_aggregate::VoteSet>,
    },
}

impl<A: WireAggregate> Payload<A> {
    /// An [`Payload::AggBatch`] over all of `slots`, the children of
    /// `parent`, with `known` and `wire` counted from the slots: for a
    /// caller that does not already keep the two beside its row. (A row
    /// wider than any base is nobody's; its counts saturate.)
    pub fn agg_batch(parent: Addr, slots: Arc<[ChildSlot<A>]>, reply: bool) -> Self {
        let entries = || slots.iter().flatten();
        Payload::AggBatch {
            parent,
            known: u8::try_from(entries().count()).unwrap_or(u8::MAX),
            wire: entries()
                .map(|agg| codec::agg_entry_wire(agg))
                .fold(codec::agg_batch_head(&parent), u16::saturating_add),
            skip: 0,
            slots,
            reply,
        }
    }
}

/// The entries a batch's `skip` can leave off the wire: those at an index
/// below this. Every later one is carried, which is correct but not
/// minimal. No shipped configuration has more than 16 children, and a
/// grid box holds `K` members on average.
pub const SKIP_BITS: usize = u16::BITS as usize;

/// The entries of a batch body that cross the wire, with their indices:
/// all of `entries` but those whose bit is set in `skip`.
pub fn carried<T>(entries: &[T], skip: u16) -> impl Iterator<Item = (usize, &T)> + Clone {
    let kept = move |i: usize| i >= SKIP_BITS || skip >> i & 1 == 0;
    entries.iter().enumerate().filter(move |&(i, _)| kept(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridagg_aggregate::wire::MAX_VARINT_LEN;
    use gridagg_aggregate::Average;

    #[test]
    fn agg_size_bounded_regardless_of_votes() {
        let mut t = Tagged::<Average>::from_vote(0, 1.0, 1000);
        let subtree = Addr::from_digits(4, &[1, 2]).unwrap();
        let one = Payload::Agg {
            subtree,
            agg: Arc::new(t.clone()),
        }
        .wire_size();
        for i in 1..500 {
            t.try_merge(&Tagged::from_vote(i, i as f64, 1000)).unwrap();
        }
        let many = Payload::Agg {
            subtree,
            agg: Arc::new(t),
        }
        .wire_size();
        // only the count varint grows, and never past its widest
        assert!(one < many && many - one < MAX_VARINT_LEN as u32);
        assert!(many < 64);
    }

    #[test]
    fn flow_size_excludes_instrumentation() {
        use gridagg_aggregate::VoteSet;
        let small: Payload<Average> = Payload::Flow {
            flow: 1.0,
            estimate: 2.0,
            reply: false,
            influenced: Arc::new(VoteSet::singleton(0, 8)),
        };
        let big: Payload<Average> = Payload::Flow {
            flow: 1.0,
            estimate: 2.0,
            reply: true,
            influenced: Arc::new((0..500usize).collect()),
        };
        // the tag, two `f64`s and a one-byte count
        assert_eq!(small.wire_size(), 18);
        let (small, big) = (small.wire_size(), big.wire_size());
        assert!(
            small < big && big - small < MAX_VARINT_LEN as u32,
            "the contributor set is instrumentation: only its count is wire bytes"
        );
    }
}

/// Binary codec for protocol payloads — used by the real-network
/// runtime (`gridagg-runtime`) and by transport tests. A payload is one
/// tag byte, holding its variant and (`0x80`) its reply flag, then its
/// body:
///
/// ```text
/// Vote       member: varint | value: f64
/// Agg        subtree: addr | tagged
/// Final      tagged
/// VoteBatch  len: varint | (member: varint | value: f64) * len
/// AggBatch   parent: addr | mask: u8 * ⌈base/8⌉ | tagged * (bits set in mask)
/// Flow       flow: f64 | estimate: f64 | influenced count: varint
///
/// addr       base: u8 | code: varint
/// tagged     contributor count: varint | value (WireAggregate), iff count > 0
/// ```
///
/// An address's `code` is [`Addr::code`]: `(base^len − 1)/(base − 1) +
/// index`, the number of the address when all of its base are counted
/// breadth first, so one varint names both the length and the digits.
/// The capacity keeps it below `u32::MAX`. An aggregate batch's `mask`
/// has bit `d % 8` of byte `d / 8` set iff the slot of last digit `d`
/// is carried, and the carried entries follow in digit order. A batch
/// writes only the entries it carries (see [`carried`]), and a vote
/// batch's `len` or an aggregate batch's mask says which: a reply that
/// skips entries is a shorter batch of the same layout.
///
/// Aggregate values keep their constant-size [`WireAggregate`] form
/// less their vote count, every contributor set is written as its count,
/// which is the value's count too, and ids, lengths and
/// counts are `u32` varints (1 to 5 B; see
/// [`put_varint`](gridagg_aggregate::wire::put_varint)). So a payload's
/// length stays under a ceiling of its shape that does not depend on
/// `N`. [`Payload::wire_size`] is that length, computed here from the
/// same layout without writing a byte: the simulator charges what a
/// socket sends.
///
/// [`decode_for`](codec::decode_for) is the one place a payload is
/// checked against the group, so every payload it returns is in range
/// by construction, and what is left to a protocol is relevance.
pub mod codec {
    // Decoding input from outside the program never panics, and no
    // `Payload` variant reaches a `_ =>` arm.
    #![cfg_attr(
        not(test),
        deny(
            clippy::unwrap_used,
            clippy::expect_used,
            clippy::panic,
            clippy::unreachable,
            clippy::wildcard_enum_match_arm
        )
    )]

    use std::sync::Arc;

    use bytes::{Buf, BufMut};
    use gridagg_aggregate::wire::{
        clamp_len, decode_tagged, encode_tagged, get_varint, put_varint, tagged_len, varint_len,
        WireAggregate, WireError, MAX_AGGREGATE_WIRE_SIZE, MAX_VARINT_LEN,
    };
    use gridagg_aggregate::Tagged;
    use gridagg_group::MemberId;
    use gridagg_hierarchy::Addr;

    use super::{carried, ChildSlot, Payload};

    const TAG_VOTE: u8 = 1;
    const TAG_AGG: u8 = 2;
    const TAG_FINAL: u8 = 3;
    const TAG_VOTE_BATCH: u8 = 4;
    const TAG_AGG_BATCH: u8 = 5;
    const TAG_FLOW: u8 = 6;
    /// Set in the tag byte of a batch or `Flow` that is a reply; no other
    /// variant may carry it.
    const REPLY: u8 = 0x80;

    /// Why a payload failed to decode, with the variant being decoded as
    /// context — a bare [`WireError`] can't tell a clipped vote batch
    /// from a clipped aggregate, which is the first thing a transport
    /// bug report needs. Malformed input is an error value, never a
    /// panic (`decode` denies clippy's `unwrap_used`/`expect_used`/`panic`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DecodeError {
        /// The buffer ended before the named variant was complete.
        Truncated {
            /// Variant under decode (`"tag"` when even the one-byte
            /// discriminant was missing).
            variant: &'static str,
        },
        /// The named variant's bytes decoded but violated an invariant
        /// (bad address digits, zero-count average, inconsistent
        /// contributor set, a non-finite value, an overlong varint or
        /// one past `u32::MAX`, a reply flag on a variant that never
        /// replies, …) or left the group (a vote owner or a contributor
        /// count past its size).
        Malformed {
            /// Variant under decode.
            variant: &'static str,
        },
        /// The discriminant byte matches no known payload variant.
        UnknownTag(
            /// The unrecognized discriminant.
            u8,
        ),
    }

    impl DecodeError {
        fn from_wire(variant: &'static str) -> impl Fn(WireError) -> DecodeError {
            move |e| match e {
                WireError::Truncated => DecodeError::Truncated { variant },
                WireError::Malformed => DecodeError::Malformed { variant },
            }
        }
    }

    impl std::fmt::Display for DecodeError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                DecodeError::Truncated { variant } => {
                    write!(f, "payload truncated while decoding `{variant}`")
                }
                DecodeError::Malformed { variant } => {
                    write!(f, "malformed `{variant}` payload")
                }
                DecodeError::UnknownTag(tag) => {
                    write!(f, "unknown payload tag {tag:#04x}")
                }
            }
        }
    }

    impl std::error::Error for DecodeError {}

    /// Encoded bytes of one [`Payload::AggBatch`] entry: its aggregate.
    pub fn agg_entry_wire<A: WireAggregate>(agg: &Tagged<A>) -> u16 {
        tagged_len(agg) as u16
    }

    /// Encoded bytes of a [`Payload::AggBatch`] before its entries: the
    /// parent's address and the presence mask. A member keeps them with
    /// its row, so a send adds nothing to them.
    pub fn agg_batch_head(parent: &Addr) -> u16 {
        (addr_len(parent) + mask_len(parent.base())) as u16
    }

    // A batch's `wire` holds its head and 255 entries at their widest:
    // 1 + 5 + 32 + 255 × 85 = 21,713 B.
    const _: () = assert!(
        1 + MAX_VARINT_LEN + 32 + u8::MAX as usize * (MAX_VARINT_LEN + MAX_AGGREGATE_WIRE_SIZE)
            <= u16::MAX as usize
    );

    impl<A: WireAggregate> Payload<A> {
        /// Serialized size in bytes, for network byte accounting: exactly
        /// the length [`encode`] writes, walking only a vote batch's
        /// carried ids (an aggregate batch carries its entries' bytes).
        pub fn wire_size(&self) -> u32 {
            let body = match self {
                Payload::Vote { member, .. } => varint_len(member.0) + 8,
                Payload::Agg { subtree, agg } => addr_len(subtree) + tagged_len(agg),
                Payload::Final { agg } => tagged_len(agg),
                Payload::VoteBatch { votes, skip, .. } => {
                    let (mut count, mut ids) = (0, 0);
                    for (_, (member, _)) in carried(votes, *skip) {
                        count += 1;
                        ids += varint_len(member.0);
                    }
                    varint_len(clamp_len(count)) + ids + 8 * count
                }
                Payload::AggBatch { wire, .. } => usize::from(*wire),
                Payload::Flow { influenced, .. } => 16 + varint_len(clamp_len(influenced.len())),
            };
            let len = 1 + body;
            gridagg_aggregate::strict_assert!(
                len == {
                    let mut buf = Vec::new();
                    encode(self, &mut buf);
                    buf.len()
                }
            );
            len as u32
        }
    }

    /// Bytes an address takes on the wire: its base and its code.
    pub fn addr_len(addr: &Addr) -> usize {
        1 + varint_len(addr.code())
    }

    /// Bytes of an aggregate batch's presence mask under a parent of
    /// `base`: a bit per child slot.
    pub fn mask_len(base: u8) -> usize {
        usize::from(base).div_ceil(8)
    }

    /// An address on the wire: base, then its code.
    fn put_addr<B: BufMut>(addr: &Addr, buf: &mut B) {
        buf.put_u8(addr.base());
        put_varint(addr.code(), buf);
    }

    fn get_addr<B: Buf>(buf: &mut B) -> Result<Addr, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        let base = buf.get_u8();
        // a bad base, or a code past the base's capacity, is malformed
        let code = get_varint(buf)?;
        Addr::from_code(base, code).map_err(|_| WireError::Malformed)
    }

    fn put_vote<B: BufMut>(member: MemberId, value: f64, buf: &mut B) {
        put_varint(member.0, buf);
        buf.put_f64(value);
    }

    fn get_vote<B: Buf>(buf: &mut B) -> Result<(MemberId, f64), WireError> {
        let member = MemberId(get_varint(buf)?);
        if buf.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        Ok((member, buf.get_f64()))
    }

    /// A carried aggregate that claims at most the group's `n`
    /// contributors: a larger count can only be forged, and would
    /// displace the real subtree aggregate under "whichever covers more
    /// votes".
    fn get_tagged<A: WireAggregate, B: Buf>(
        n: u32,
        buf: &mut B,
        variant: &'static str,
    ) -> Result<Tagged<A>, DecodeError> {
        let agg = decode_tagged(buf).map_err(DecodeError::from_wire(variant))?;
        let in_group = agg.vote_count() <= n as usize;
        in_group
            .then_some(agg)
            .ok_or(DecodeError::Malformed { variant })
    }

    /// Serialize a payload.
    pub fn encode<A: WireAggregate, B: BufMut>(payload: &Payload<A>, buf: &mut B) {
        let tag = |tag: u8, reply: bool| if reply { tag | REPLY } else { tag };
        match payload {
            Payload::Vote { member, value } => {
                buf.put_u8(TAG_VOTE);
                put_vote(*member, *value, buf);
            }
            Payload::Agg { subtree, agg } => {
                buf.put_u8(TAG_AGG);
                put_addr(subtree, buf);
                encode_tagged(agg, buf);
            }
            Payload::Final { agg } => {
                buf.put_u8(TAG_FINAL);
                encode_tagged(agg, buf);
            }
            Payload::VoteBatch { votes, skip, reply } => {
                buf.put_u8(tag(TAG_VOTE_BATCH, *reply));
                put_varint(clamp_len(carried(votes, *skip).count()), buf);
                for (_, &(member, value)) in carried(votes, *skip) {
                    put_vote(member, value, buf);
                }
            }
            Payload::AggBatch {
                parent,
                skip,
                slots,
                reply,
                ..
            } => {
                buf.put_u8(tag(TAG_AGG_BATCH, *reply));
                put_addr(parent, buf);
                let entries = carried(slots, *skip).filter_map(|(d, agg)| Some((d, agg.as_ref()?)));
                let mut mask = [0u8; 32];
                for (digit, _) in entries.clone() {
                    mask[digit / 8] |= 1 << (digit % 8);
                }
                buf.put_slice(&mask[..mask_len(parent.base())]);
                for (_, agg) in entries {
                    encode_tagged(agg, buf);
                }
            }
            Payload::Flow {
                flow,
                estimate,
                reply,
                influenced,
            } => {
                buf.put_u8(tag(TAG_FLOW, *reply));
                buf.put_f64(*flow);
                buf.put_f64(*estimate);
                put_varint(clamp_len(influenced.len()), buf);
            }
        }
    }

    /// Deserialize a payload written by [`encode`], with no group in
    /// mind: [`decode_for`] at the widest group a [`MemberId`] can name.
    ///
    /// # Errors
    ///
    /// As [`decode_for`].
    pub fn decode<A: WireAggregate, B: Buf>(buf: &mut B) -> Result<Payload<A>, DecodeError> {
        decode_for(u32::MAX, buf)
    }

    /// Deserialize a payload written by [`encode`] and admit it to a
    /// group of `n` members. Every vote it returns is owned by a member
    /// id below `n`, no contributor set claims more than `n` members,
    /// and every value is finite. A batch holds what crossed the wire
    /// and skips nothing.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input, naming
    /// the payload variant that failed. A payload outside the group, or
    /// followed by bytes of no field (`buf` holds one payload), is
    /// [`DecodeError::Malformed`].
    pub fn decode_for<A: WireAggregate, B: Buf>(
        n: u32,
        buf: &mut B,
    ) -> Result<Payload<A>, DecodeError> {
        // a vote of a member id ≥ `n` would index past the member tables
        let in_group = |(member, value): (MemberId, f64)| member.0 < n && value.is_finite();
        let malformed = |variant| DecodeError::Malformed { variant };
        if buf.remaining() < 1 {
            return Err(DecodeError::Truncated { variant: "tag" });
        }
        let byte = buf.get_u8();
        let reply = byte & REPLY != 0;
        // only a batch or a `Flow` answers a push
        let no_reply = |variant| (!reply).then_some(()).ok_or(malformed(variant));
        let payload = match byte & !REPLY {
            TAG_VOTE => {
                no_reply("vote")?;
                let vote = get_vote(buf).map_err(DecodeError::from_wire("vote"))?;
                let (member, value) = vote;
                let vote = in_group(vote).then_some(Payload::Vote { member, value });
                vote.ok_or(malformed("vote"))
            }
            TAG_AGG => {
                no_reply("agg")?;
                Ok(Payload::Agg {
                    subtree: get_addr(buf).map_err(DecodeError::from_wire("agg"))?,
                    agg: Arc::new(get_tagged(n, buf, "agg")?),
                })
            }
            TAG_FINAL => {
                no_reply("final")?;
                Ok(Payload::Final {
                    agg: Arc::new(get_tagged(n, buf, "final")?),
                })
            }
            TAG_VOTE_BATCH => {
                let variant = "vote-batch";
                let count = get_varint(buf).map_err(DecodeError::from_wire(variant))?;
                // An empty batch is never sent: a push carries the
                // sender's own vote and a reply at least one the pusher
                // lacked. Answering one would reflect a box's votes to a
                // frame's claimed source for 2 B.
                if count == 0 {
                    return Err(malformed(variant));
                }
                // every vote is at least 9 bytes: a count with nothing
                // behind it fails here, before anything is allocated
                let count = usize::try_from(count)
                    .ok()
                    .filter(|&count| count <= buf.remaining() / 9)
                    .ok_or(DecodeError::Truncated { variant })?;
                // an exact-length iterator, so the list is one
                // allocation; after the first bad vote nothing is read
                let mut status = Ok(());
                let votes = (0..count)
                    .map(|_| {
                        let vote = status.and_then(|()| {
                            let vote = get_vote(buf).map_err(DecodeError::from_wire(variant))?;
                            in_group(vote).then_some(vote).ok_or(malformed(variant))
                        });
                        vote.unwrap_or_else(|e| {
                            status = Err(e);
                            (MemberId(0), 0.0)
                        })
                    })
                    .collect();
                status.map(|()| Payload::VoteBatch {
                    votes,
                    skip: 0,
                    reply,
                })
            }
            TAG_AGG_BATCH => {
                let variant = "agg-batch";
                let parent = get_addr(buf).map_err(DecodeError::from_wire(variant))?;
                // a parent at the address capacity has no child to carry
                parent.child(0).map_err(|_| malformed(variant))?;
                let mut mask = [0u8; 32];
                let mask = &mut mask[..mask_len(parent.base())];
                if buf.remaining() < mask.len() {
                    return Err(DecodeError::Truncated { variant });
                }
                buf.copy_to_slice(mask);
                // An empty batch is never sent: a member always knows
                // its own child. A bit at or above the base names no
                // child.
                let base = usize::from(parent.base());
                let carried = |d: usize| mask[d / 8] >> (d % 8) & 1 == 1;
                if !(0..base).any(carried) || (base..8 * mask.len()).any(carried) {
                    return Err(malformed(variant));
                }
                // The entries fill the parent's row, a slot per digit
                // below its base, in digit order.
                let mut slots: Arc<[ChildSlot<A>]> = (0..base).map(|_| None).collect();
                let row = Arc::get_mut(&mut slots).ok_or(malformed(variant))?;
                let (mut known, mut wire) = (0, agg_batch_head(&parent));
                for (_, slot) in row.iter_mut().enumerate().filter(|&(d, _)| carried(d)) {
                    let agg = get_tagged(n, buf, variant)?;
                    known += 1;
                    wire += agg_entry_wire(&agg);
                    *slot = Some(Arc::new(agg));
                }
                Ok(Payload::AggBatch {
                    parent,
                    known,
                    wire,
                    skip: 0,
                    slots,
                    reply,
                })
            }
            TAG_FLOW => {
                let variant = "flow";
                if buf.remaining() < 16 {
                    return Err(DecodeError::Truncated { variant });
                }
                let (flow, estimate) = (buf.get_f64(), buf.get_f64());
                let count = get_varint(buf).map_err(DecodeError::from_wire(variant))?;
                let admitted = count <= n && flow.is_finite() && estimate.is_finite();
                let count = usize::try_from(count)
                    .ok()
                    .filter(|_| admitted)
                    .ok_or(malformed(variant))?;
                Ok(Payload::Flow {
                    flow,
                    estimate,
                    reply,
                    influenced: Arc::new(gridagg_aggregate::VoteSet::counted(count)),
                })
            }
            _ => Err(DecodeError::UnknownTag(byte)),
        }?;
        // one encoding per payload: no bytes after its last field
        match buf.remaining() {
            0 => Ok(payload),
            _ => Err(malformed(variant_name(&payload))),
        }
    }

    /// The name a [`DecodeError`] gives `payload`'s variant.
    fn variant_name<A>(payload: &Payload<A>) -> &'static str {
        match payload {
            Payload::Vote { .. } => "vote",
            Payload::Agg { .. } => "agg",
            Payload::Final { .. } => "final",
            Payload::VoteBatch { .. } => "vote-batch",
            Payload::AggBatch { .. } => "agg-batch",
            Payload::Flow { .. } => "flow",
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use gridagg_aggregate::{Average, Tagged};

        /// The base-4 row of `parent` holding `agg` at each of `digits`.
        fn batch(parent: Addr, digits: &[u8], agg: &Arc<Tagged<Average>>) -> Payload<Average> {
            let slots = (0..4)
                .map(|d| digits.contains(&d).then(|| agg.clone()))
                .collect();
            Payload::agg_batch(parent, slots, false)
        }

        /// `batch` as a reply that leaves off the entries flagged in
        /// `skip`, its counts of the carried entries alone; any other
        /// payload as it is.
        fn skipping(batch: &Payload<Average>, skip: u16) -> Payload<Average> {
            match batch.clone() {
                Payload::VoteBatch { votes, reply, .. } => {
                    Payload::VoteBatch { votes, skip, reply }
                }
                Payload::AggBatch {
                    parent,
                    slots,
                    reply,
                    ..
                } => {
                    let entries = carried(&slots, skip).filter_map(|(_, slot)| slot.as_ref());
                    let entries: Vec<_> = entries.collect();
                    let head = agg_batch_head(&parent);
                    Payload::AggBatch {
                        parent,
                        known: entries.len() as u8,
                        wire: head + entries.iter().map(|agg| agg_entry_wire(agg)).sum::<u16>(),
                        skip,
                        slots,
                        reply,
                    }
                }
                other => other,
            }
        }

        #[test]
        fn empty_batches_are_malformed() {
            // nobody sends either: a push carries the member's own vote
            // or child, and a reply at least one entry its pusher lacks
            let none = (0..4).map(|_| None).collect();
            let empty: Payload<Average> = Payload::agg_batch(Addr::root(4).unwrap(), none, true);
            let mut buf = Vec::new();
            encode(&empty, &mut buf);
            // tag and reply flag, the root of base 4 (code 0), mask 0
            assert_eq!(buf, [TAG_AGG_BATCH | REPLY, 4, 0, 0]);
            let malformed = DecodeError::Malformed {
                variant: "agg-batch",
            };
            assert_eq!(decode::<Average, _>(&mut buf.as_slice()), Err(malformed));
            // count 0, pushed or replied, and a reply that skips its one
            // vote: the tag and count 0 alike
            let malformed = DecodeError::Malformed {
                variant: "vote-batch",
            };
            let one: Arc<[_]> = [(MemberId(1), 1.0)].into();
            for reply in [false, true] {
                for (votes, skip) in [(Arc::from([]), 0), (one.clone(), 1)] {
                    let empty = Payload::<Average>::VoteBatch { votes, skip, reply };
                    let mut buf = Vec::new();
                    encode(&empty, &mut buf);
                    let flag = if reply { REPLY } else { 0 };
                    assert_eq!(buf, [TAG_VOTE_BATCH | flag, 0]);
                    assert_eq!(decode::<Average, _>(&mut buf.as_slice()), Err(malformed));
                }
            }
        }

        /// What the byte-count samples are built from: the owner of a
        /// vote, the owners in a vote batch, an aggregate and a
        /// `Flow`'s contributor set.
        struct Fields {
            member: MemberId,
            voters: Vec<MemberId>,
            agg: Arc<Tagged<Average>>,
            influenced: Arc<gridagg_aggregate::VoteSet>,
        }

        /// The fields of a group of `n`, built as the build's protocols
        /// build them, with 40 contributors spread over the whole id
        /// range, so an exact bitmap is as long as it gets at this `n`.
        #[expect(
            clippy::disallowed_methods,
            reason = "the samples must carry the sets the build's protocols carry"
        )]
        fn at_scale(n: usize) -> Fields {
            let members = || (0..40).map(|i| i * (n - 1) / 39);
            let mut agg = Tagged::<Average>::empty_for_scale(n);
            let mut influenced = gridagg_aggregate::VoteSet::for_scale(n);
            for m in members() {
                agg.try_merge(&Tagged::from_vote_for_scale(m, m as f64, n))
                    .unwrap();
                influenced.insert(m);
            }
            Fields {
                member: MemberId(n as u32 - 1),
                voters: members().map(|m| MemberId(m as u32)).collect(),
                agg: Arc::new(agg),
                influenced: Arc::new(influenced),
            }
        }

        /// The shapes of `fields` with every id and count at its widest:
        /// `u32::MAX`, and a count past it, which is written as
        /// `u32::MAX`.
        fn widest(fields: &Fields) -> Fields {
            use gridagg_aggregate::VoteSet;
            let value = Some(Average::from_parts(1.0, u64::from(u32::MAX)));
            let agg = Tagged::from_parts(value, VoteSet::counted(usize::MAX)).unwrap();
            Fields {
                member: MemberId(u32::MAX),
                voters: vec![MemberId(u32::MAX); fields.voters.len()],
                agg: Arc::new(agg),
                influenced: Arc::new(VoteSet::counted(usize::MAX)),
            }
        }

        /// The shapes with nothing in them: no vote in a batch, and every
        /// aggregate and contributor set empty.
        fn empty() -> Fields {
            Fields {
                member: MemberId(0),
                voters: Vec::new(),
                agg: Arc::new(Tagged::empty(64)),
                influenced: Arc::new(gridagg_aggregate::VoteSet::new(64)),
            }
        }

        /// The sample after `prev` in declaration order. Exhaustive on
        /// purpose: a new variant does not compile until it has a sample.
        fn next_sample(
            prev: Option<&Payload<Average>>,
            fields: &Fields,
        ) -> Option<Payload<Average>> {
            let (member, value, reply) = (fields.member, -1.25, false);
            let agg = fields.agg.clone();
            let subtree = Addr::from_digits(4, &[2, 1]).unwrap();
            Some(match prev {
                None => Payload::Vote { member, value },
                Some(Payload::Vote { .. }) => Payload::Agg { subtree, agg },
                Some(Payload::Agg { .. }) => Payload::Final { agg },
                Some(Payload::Final { .. }) => {
                    let votes = fields.voters.iter().map(|&m| (m, 1.0)).collect();
                    Payload::VoteBatch {
                        votes,
                        skip: 0,
                        reply,
                    }
                }
                Some(Payload::VoteBatch { .. }) => batch(subtree, &[0, 1, 2, 3], &agg),
                Some(Payload::AggBatch { .. }) => Payload::Flow {
                    flow: 0.5,
                    estimate: -2.0,
                    reply,
                    influenced: fields.influenced.clone(),
                },
                Some(Payload::Flow { .. }) => return None,
            })
        }

        /// The one byte count: for every variant, `wire_size()` is the
        /// length `encode` writes — at N = 64, 4096 and 65536 (both sides
        /// of `EXACT_TRACK_MAX`), with every id and count at its widest,
        /// with every aggregate and set empty, and for a batch with
        /// entries skipped. Each shape's length is
        /// at most its widest-field length, a ceiling that is the same at
        /// every N.
        #[test]
        fn wire_size_is_the_encoded_length() {
            let lens = |fields: &Fields| {
                let mut lens = Vec::new();
                let mut prev = None;
                while let Some(p) = next_sample(prev.as_ref(), fields) {
                    let mut buf = Vec::new();
                    encode(&p, &mut buf);
                    assert_eq!(buf.len(), p.wire_size() as usize, "{p:?}");
                    lens.push(buf.len());
                    // and a batch that leaves entries off, in and past
                    // the skippable ones
                    for skip in [0b1, 0b1010, u16::MAX] {
                        let reply = skipping(&p, skip);
                        let mut buf = Vec::new();
                        encode(&reply, &mut buf);
                        assert_eq!(buf.len(), reply.wire_size() as usize, "{reply:?}");
                    }
                    prev = Some(p);
                }
                assert_eq!(lens.len(), 6, "one sample per variant");
                lens
            };
            let under = |lens: Vec<usize>, ceiling: &[usize]| {
                let fits = lens.iter().zip(ceiling).all(|(len, max)| len <= max);
                assert!(fits, "{lens:?} over {ceiling:?}");
            };
            let sizes = [64usize, 4096, 65536];
            assert!(sizes[1] <= gridagg_aggregate::EXACT_TRACK_MAX);
            assert!(sizes[2] > gridagg_aggregate::EXACT_TRACK_MAX);
            let all = sizes.map(at_scale);
            let all = all.into_iter().chain([widest(&at_scale(64))]);
            let mut ceilings = Vec::new();
            for fields in all {
                let ceiling = lens(&widest(&fields));
                under(lens(&fields), &ceiling);
                ceilings.push(ceiling);
            }
            assert!(
                ceilings.windows(2).all(|w| w[0] == w[1]),
                "the ceiling moved with N: {ceilings:?}"
            );
            under(lens(&empty()), &ceilings[0]);
        }

        /// One frame of every variant, byte for byte: this freezes the
        /// layout. Values are chosen to read at a glance: `2.0` is
        /// `40 00 …`, `1.5` is `3F F8 …`, and 300 is the varint `AC 02`.
        /// The address `21` in base 4 is code `0E`: the root and the four
        /// one-digit addresses come before the two-digit ones, where it
        /// is index 9. Slots 1 and 3 carried is the mask `0A`.
        #[test]
        fn golden_frames_freeze_the_layout() {
            use gridagg_aggregate::VoteSet;
            let value = Some(Average::from_parts(2.0, 300));
            let agg = Arc::new(Tagged::from_parts(value, VoteSet::counted(300)).unwrap());
            let subtree = Addr::from_digits(4, &[2, 1]).unwrap();
            // 300 contributors, then the sum 2.0 of their votes
            let tagged: &[u8] = &[0xAC, 0x02, 0x40, 0, 0, 0, 0, 0, 0, 0];
            let votes = [(MemberId(1), 1.5), (MemberId(128), -2.0)].into();
            let row = [None, Some(agg.clone()), None, Some(agg.clone())].into();
            let flow = Payload::Flow {
                flow: 0.5,
                estimate: -2.0,
                reply: false,
                influenced: Arc::new(VoteSet::counted(300)),
            };
            let cases: [(Payload<Average>, Vec<u8>); 6] = [
                (
                    Payload::Vote {
                        member: MemberId(300),
                        value: 1.5,
                    },
                    vec![0x01, 0xAC, 0x02, 0x3F, 0xF8, 0, 0, 0, 0, 0, 0],
                ),
                (
                    Payload::Agg {
                        subtree,
                        agg: agg.clone(),
                    },
                    [&[0x02, 4, 0x0E], tagged].concat(),
                ),
                (Payload::Final { agg }, [&[0x03], tagged].concat()),
                (
                    Payload::VoteBatch {
                        votes,
                        skip: 0,
                        reply: true,
                    },
                    vec![
                        0x84, 2, 0x01, 0x3F, 0xF8, 0, 0, 0, 0, 0, 0, 0x80, 0x01, 0xC0, 0, 0, 0, 0,
                        0, 0, 0,
                    ],
                ),
                (
                    Payload::agg_batch(subtree, row, true),
                    [&[0x85, 4, 0x0E, 0x0A], tagged, tagged].concat(),
                ),
                (
                    flow,
                    vec![
                        0x06, 0x3F, 0xE0, 0, 0, 0, 0, 0, 0, 0xC0, 0, 0, 0, 0, 0, 0, 0, 0xAC, 0x02,
                    ],
                ),
            ];
            for (payload, golden) in cases {
                let mut buf = Vec::new();
                encode(&payload, &mut buf);
                assert_eq!(buf, golden, "{payload:?}");
                assert_eq!(decode(&mut golden.as_slice()), Ok(payload));
            }
        }

        /// Every varint field, in every variant that has one, is admitted
        /// in its one encoding only: overlong, past `u32::MAX` or cut
        /// inside it, it is refused as that variant; and a reply flag on
        /// a variant that never replies is malformed.
        #[test]
        fn varint_fields_admit_one_encoding_and_only_batches_and_flows_reply() {
            use gridagg_aggregate::VoteSet;
            let agg = Tagged::from_parts(Some(Average::from_parts(1.5, 5)), VoteSet::counted(5));
            let agg = Arc::new(agg.unwrap());
            let subtree = Addr::from_digits(4, &[2, 1]).unwrap();
            let (member, value, reply) = (MemberId(5), 1.5, false);
            let votes = [(member, value)].into();
            let skip = 0;
            let influenced = Arc::new(VoteSet::counted(5));
            let flow = Payload::Flow {
                flow: value,
                estimate: value,
                reply,
                influenced,
            };
            // each payload with the offset of a one-byte varint in it:
            // an address's code follows the tag and base, an aggregate's
            // count the tag and address (and in a row the mask)
            let fields = [
                (Payload::Vote { member, value }, "vote", Some(1)),
                (
                    Payload::VoteBatch { votes, skip, reply },
                    "vote-batch",
                    Some(1),
                ),
                (
                    Payload::VoteBatch {
                        votes: [(member, value)].into(),
                        skip,
                        reply,
                    },
                    "vote-batch",
                    Some(2),
                ),
                (
                    Payload::Agg {
                        subtree,
                        agg: agg.clone(),
                    },
                    "agg",
                    Some(2),
                ),
                (
                    Payload::Agg {
                        subtree,
                        agg: agg.clone(),
                    },
                    "agg",
                    Some(3),
                ),
                (Payload::Final { agg: agg.clone() }, "final", Some(1)),
                (batch(subtree, &[3], &agg), "agg-batch", Some(2)),
                (batch(subtree, &[3], &agg), "agg-batch", Some(4)),
                (flow, "flow", None),
            ];
            for (payload, variant, at) in fields {
                let mut honest = Vec::new();
                encode(&payload, &mut honest);
                assert_eq!(decode(&mut honest.as_slice()), Ok(payload.clone()));
                // a flow's count is its last byte
                let at = at.unwrap_or(honest.len() - 1);
                let low = honest[at];
                assert!(low < 0x80, "a one-byte varint at {at} of {payload:?}");
                let spliced = |with: &[u8]| [&honest[..at], with, &honest[at + 1..]].concat();
                let malformed = Err(DecodeError::Malformed { variant });
                for bad in [
                    spliced(&[low | 0x80, 0x00]),
                    spliced(&[low | 0x80, 0x80, 0x80, 0x80, 0x00]),
                    spliced(&[low | 0x80, 0x80, 0x80, 0x80, 0x10]),
                    spliced(&[low | 0x80, 0x80, 0x80, 0x80, 0x80, 0x00]),
                ] {
                    assert_eq!(
                        decode::<Average, _>(&mut bad.as_slice()),
                        malformed,
                        "{bad:02x?}"
                    );
                }
                let cut = [&honest[..at], &[low | 0x80]].concat();
                let truncated = Err(DecodeError::Truncated { variant });
                assert_eq!(
                    decode::<Average, _>(&mut cut.as_slice()),
                    truncated,
                    "{cut:02x?}"
                );
                honest[0] |= REPLY;
                let replying = decode::<Average, _>(&mut honest.as_slice());
                let never_replies = ["vote", "agg", "final"].contains(&variant);
                assert_eq!(replying.is_err(), never_replies, "{payload:?} as a reply");
                if never_replies {
                    assert_eq!(replying, malformed);
                }
            }
        }

        /// An address is admitted only as a code within its base's
        /// capacity (an overlong code is one of the varints above), and
        /// an aggregate batch's mask only with a bit set and none at or
        /// above the base. Each is checked under a parent of base 4 (one
        /// mask byte) and of base 10 (two).
        #[test]
        fn address_codes_and_batch_masks_are_checked() {
            let agg = Arc::new(Tagged::<Average>::from_vote(5, 2.5, 64));
            let malformed = Err(DecodeError::Malformed {
                variant: "agg-batch",
            });
            let truncated = Err(DecodeError::Truncated {
                variant: "agg-batch",
            });
            for (base, top) in [(4u8, 15), (10, 9)] {
                let parent = Addr::from_digits(base, &[2, 1]).unwrap();
                let slots = (0..base).map(|d| (d == 1).then(|| agg.clone())).collect();
                let mut honest = Vec::new();
                encode(&Payload::agg_batch(parent, slots, false), &mut honest);
                // tag, base, one code byte, then the mask
                let (head, mask) = (3, mask_len(base));
                assert_eq!(honest[head], 0b10);
                let decode = |bytes: &[u8]| decode::<Average, _>(&mut &bytes[..]);
                assert!(decode(&honest).is_ok());
                let with_mask = |m: &[u8]| [&honest[..head], m, &honest[head + mask..]].concat();
                let mut empty = vec![0; mask];
                assert_eq!(decode(&with_mask(&empty)), malformed, "mask 0");
                // the first bit past the base, with and without slot 1
                let past = usize::from(base);
                empty[past / 8] |= 1 << (past % 8);
                assert_eq!(decode(&with_mask(&empty)), malformed, "bit {past}");
                empty[0] |= 0b10;
                assert_eq!(decode(&with_mask(&empty)), malformed, "bits 1, {past}");
                // a mask cut short is a frame cut short
                assert_eq!(decode(&honest[..head + mask - 1]), truncated);
                // the first code past the base's deepest address
                let deepest = Addr::from_index(base, top, u64::from(base).pow(top as u32) - 1);
                let past = deepest.unwrap().code() + 1;
                let mut code = Vec::new();
                put_varint(past, &mut code);
                let bytes = [&honest[..2], &code, &honest[head..]].concat();
                assert_eq!(decode(&bytes), malformed, "code {past}");
                // the same code for a lone aggregate's subtree
                let mut lone = Vec::new();
                encode(
                    &Payload::Agg {
                        subtree: parent,
                        agg: agg.clone(),
                    },
                    &mut lone,
                );
                assert!(decode(&lone).is_ok());
                let lone = [&lone[..2], &code, &lone[3..]].concat();
                let malformed_agg = Err(DecodeError::Malformed { variant: "agg" });
                assert_eq!(decode(&lone), malformed_agg, "code {past}");
            }
        }

        #[test]
        fn decode_errors_name_the_variant() {
            // truncate a real AggBatch encoding mid-aggregate: the error
            // must say which variant was being decoded
            let addr = Addr::from_digits(4, &[2, 1]).unwrap();
            let p = batch(addr, &[1], &Arc::new(Tagged::from_vote(5, 2.5, 64)));
            let mut buf = Vec::new();
            encode(&p, &mut buf);
            let cut = buf.len() - 4;
            let err = decode::<Average, _>(&mut &buf[..cut]).unwrap_err();
            assert_eq!(
                err,
                DecodeError::Truncated {
                    variant: "agg-batch"
                }
            );
            assert!(err.to_string().contains("agg-batch"), "{err}");
            // a vote batch claiming `u32::MAX` votes with no bytes behind them
            let claim = [TAG_VOTE_BATCH, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
            assert_eq!(
                decode::<Average, _>(&mut claim.as_slice()).unwrap_err(),
                DecodeError::Truncated {
                    variant: "vote-batch"
                }
            );
            assert_eq!(
                decode::<Average, _>(&mut [0xEEu8, 0, 0].as_slice()).unwrap_err(),
                DecodeError::UnknownTag(0xEE)
            );
            assert_eq!(
                decode::<Average, _>(&mut [].as_slice()).unwrap_err(),
                DecodeError::Truncated { variant: "tag" }
            );
        }
    }
}
