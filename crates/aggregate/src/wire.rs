//! Wire encoding for aggregate values.
//!
//! The paper's scalability argument rests on "all messages sent over the
//! network are constant size bounded … larger than the byte-size of
//! individual votes and any composable function evaluation". This module
//! makes that concrete: every [`Aggregate`] implementation here
//! serializes to at most [`MAX_AGGREGATE_WIRE_SIZE`] bytes, independent
//! of the group size — and the tests enforce it.
//!
//! A contributor [`crate::VoteSet`] is never encoded: it is local
//! instrumentation and would be O(N) on the wire. [`encode_tagged`]
//! ships the contributor *count* first, as a [`put_varint`] of 1 to
//! [`MAX_VARINT_LEN`] bytes, then the aggregate value if the count is
//! above zero. The count is written once: a value that holds it (an
//! [`Average`]'s weight, a [`Count`], a [`MeanVar`]'s `count`) leaves it
//! out and [`WireAggregate::decode`] is handed it back, so a receiver
//! cannot be sent a value whose weight disagrees with the coverage it
//! ranks the value by. [`varint_len`] and [`tagged_len`] give the
//! lengths those two write without writing a byte, so a payload's size
//! can be counted from the same layout as its encoding.
//!
//! Ids, lengths and counts on the wire are unsigned LEB128 varints of a
//! `u32` ([`put_varint`] / [`get_varint`]): seven bits a byte, low bits
//! first, the high bit set on every byte but the last. Each value has
//! exactly one accepted encoding, the shortest.

// Decoding input from outside the program never panics.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::num::NonZeroU32;

use bytes::{Buf, BufMut};

use crate::funcs::{
    All, Any, Average, Count, Histogram16, Max, MeanVar, Min, Sum, TopK, HISTOGRAM_BUCKETS, TOP_K,
};
use crate::Aggregate;

/// Most bytes a [`put_varint`] encoding takes: a `u32` has 32 bits, 7 a
/// byte.
pub const MAX_VARINT_LEN: usize = 5;

/// Upper bound (bytes) on any encoded aggregate value: the histogram's
/// 16 bucket counts, each a varint, are the widest (a [`TopK`] is at
/// most 33 B).
pub const MAX_AGGREGATE_WIRE_SIZE: usize = HISTOGRAM_BUCKETS * MAX_VARINT_LEN;

/// Errors from decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A length, count or discriminant field was invalid, or a value
    /// was NaN or infinite.
    Malformed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("buffer too short for aggregate value"),
            WireError::Malformed => f.write_str("malformed aggregate encoding"),
        }
    }
}

impl std::error::Error for WireError {}

/// An [`Aggregate`] with a binary wire form.
///
/// Implementations append to any [`BufMut`] and decode from any [`Buf`]
/// (C-RW-VALUE: pass `&mut buf` when you need to keep using the buffer).
pub trait WireAggregate: Aggregate {
    /// Append the encoded value to `buf`, less its count of votes, which
    /// [`encode_tagged`] writes before it.
    fn encode<B: BufMut>(&self, buf: &mut B);

    /// Decode the value of `count` votes from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncated or malformed input.
    fn decode<B: Buf>(count: NonZeroU32, buf: &mut B) -> Result<Self, WireError>;

    /// Exact encoded size in bytes. Must be `<=`
    /// [`MAX_AGGREGATE_WIRE_SIZE`] for every value.
    fn wire_size(&self) -> usize;
}

/// Every `f64` field of every aggregate: finite, or the encoding is
/// malformed. No honest vote or fold is NaN or infinite. The check is
/// per field: two finite values near `f64::MAX` still merge to ±∞,
/// which is a sender lying within range and not a decode error.
fn get_f64<B: Buf>(buf: &mut B) -> Result<f64, WireError> {
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Some(buf.get_f64())
        .filter(|v| v.is_finite())
        .ok_or(WireError::Malformed)
}

/// Append `value` as an unsigned LEB128 varint: 1 byte below 128, 2
/// below 16,384, at most [`MAX_VARINT_LEN`].
pub fn put_varint<B: BufMut>(mut value: u32, buf: &mut B) {
    while value >= 0x80 {
        buf.put_u8(value.to_le_bytes()[0] | 0x80);
        value >>= 7;
    }
    buf.put_u8(value.to_le_bytes()[0]);
}

/// Bytes [`put_varint`] writes for `value`: one per started 7 bits.
#[inline]
pub fn varint_len(value: u32) -> usize {
    match value {
        0..=0x7F => 1,
        0x80..=0x3FFF => 2,
        0x4000..=0x1F_FFFF => 3,
        0x20_0000..=0x0FFF_FFFF => 4,
        _ => MAX_VARINT_LEN,
    }
}

/// A length or count as the varint value it is written as. Nothing a
/// group holds exceeds `u32::MAX` (a member id is a `u32`), so a larger
/// one, which only a forger builds, is written as `u32::MAX` and refused
/// by every smaller group.
#[inline]
pub fn clamp_len(len: usize) -> u32 {
    u32::try_from(len).unwrap_or(u32::MAX)
}

/// Read a varint written by [`put_varint`].
///
/// # Errors
///
/// [`WireError::Truncated`] if the buffer ends inside it, and
/// [`WireError::Malformed`] if it is overlong (a zero last byte after
/// the first: a shorter encoding of the same value exists) or worth more
/// than `u32::MAX`.
pub fn get_varint<B: Buf>(buf: &mut B) -> Result<u32, WireError> {
    let mut value = 0u32;
    for i in 0..MAX_VARINT_LEN {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        let byte = buf.get_u8();
        value |= u32::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            // the fifth byte holds the top 4 bits of a `u32`
            let overlong = byte == 0 && i > 0;
            let past_u32 = i == MAX_VARINT_LEN - 1 && byte > 0x0F;
            return (!overlong && !past_u32)
                .then_some(value)
                .ok_or(WireError::Malformed);
        }
    }
    // a fifth byte that is not the last
    Err(WireError::Malformed)
}

impl WireAggregate for Average {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64(self.sum());
    }

    fn decode<B: Buf>(count: NonZeroU32, buf: &mut B) -> Result<Self, WireError> {
        let sum = get_f64(buf)?;
        Ok(Average::from_parts(sum, u64::from(count.get())))
    }

    fn wire_size(&self) -> usize {
        8
    }
}

impl WireAggregate for Sum {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64(self.summary());
    }

    fn decode<B: Buf>(_: NonZeroU32, buf: &mut B) -> Result<Self, WireError> {
        Ok(Sum::from_vote(get_f64(buf)?))
    }

    fn wire_size(&self) -> usize {
        8
    }
}

impl WireAggregate for Min {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64(self.summary());
    }

    fn decode<B: Buf>(_: NonZeroU32, buf: &mut B) -> Result<Self, WireError> {
        Ok(Min::from_vote(get_f64(buf)?))
    }

    fn wire_size(&self) -> usize {
        8
    }
}

impl WireAggregate for Max {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64(self.summary());
    }

    fn decode<B: Buf>(_: NonZeroU32, buf: &mut B) -> Result<Self, WireError> {
        Ok(Max::from_vote(get_f64(buf)?))
    }

    fn wire_size(&self) -> usize {
        8
    }
}

impl WireAggregate for Count {
    /// Nothing: a count is its count of votes.
    fn encode<B: BufMut>(&self, _: &mut B) {}

    fn decode<B: Buf>(count: NonZeroU32, _: &mut B) -> Result<Self, WireError> {
        Ok(Count::from_parts(u64::from(count.get())))
    }

    fn wire_size(&self) -> usize {
        0
    }
}

/// A bucket count as the varint it is written as: an honest one is at
/// most its histogram's count of votes, which is at most `u32::MAX`.
fn bucket(count: u64) -> u32 {
    u32::try_from(count).unwrap_or(u32::MAX)
}

impl WireAggregate for Histogram16 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        for &b in self.buckets() {
            put_varint(bucket(b), buf);
        }
    }

    /// The buckets, which must hold the `count` votes between them.
    fn decode<B: Buf>(count: NonZeroU32, buf: &mut B) -> Result<Self, WireError> {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for c in &mut counts {
            *c = u64::from(get_varint(buf)?);
        }
        // 16 `u32`s cannot overflow a `u64`
        if counts.iter().sum::<u64>() != u64::from(count.get()) {
            return Err(WireError::Malformed);
        }
        Ok(Histogram16::from_parts(counts))
    }

    fn wire_size(&self) -> usize {
        let buckets = self.buckets().iter();
        buckets.map(|&b| varint_len(bucket(b))).sum()
    }
}

impl WireAggregate for TopK {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a TopK holds at most TOP_K = 4 items"
        )]
        buf.put_u8(self.items().len() as u8);
        for &v in self.items() {
            buf.put_f64(v);
        }
    }

    fn decode<B: Buf>(_: NonZeroU32, buf: &mut B) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        let len = buf.get_u8() as usize;
        if len == 0 || len > TOP_K {
            return Err(WireError::Malformed);
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(get_f64(buf)?);
        }
        Ok(TopK::from_parts(items))
    }

    fn wire_size(&self) -> usize {
        1 + self.items().len() * 8
    }
}

impl WireAggregate for MeanVar {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64(self.mean());
        buf.put_f64(self.m2());
    }

    fn decode<B: Buf>(count: NonZeroU32, buf: &mut B) -> Result<Self, WireError> {
        let mean = get_f64(buf)?;
        let m2 = get_f64(buf)?;
        if m2 < 0.0 {
            return Err(WireError::Malformed);
        }
        Ok(MeanVar::from_parts(u64::from(count.get()), mean, m2))
    }

    fn wire_size(&self) -> usize {
        16
    }
}

impl WireAggregate for Any {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(u8::from(self.holds()));
    }

    fn decode<B: Buf>(_: NonZeroU32, buf: &mut B) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(Any::from_vote(0.0)),
            1 => Ok(Any::from_vote(1.0)),
            _ => Err(WireError::Malformed),
        }
    }

    fn wire_size(&self) -> usize {
        1
    }
}

impl WireAggregate for All {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(u8::from(self.holds()));
    }

    fn decode<B: Buf>(_: NonZeroU32, buf: &mut B) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(All::from_vote(0.0)),
            1 => Ok(All::from_vote(1.0)),
            _ => Err(WireError::Malformed),
        }
    }

    fn wire_size(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tagged;
    use bytes::BytesMut;

    fn fold<A: Aggregate>(votes: &[f64]) -> A {
        let mut acc = A::from_vote(votes[0]);
        for &v in &votes[1..] {
            acc.merge(&A::from_vote(v));
        }
        acc
    }

    const VOTES: [f64; 5] = [3.5, -2.0, 7.25, 0.0, 11.0];
    const FIVE: NonZeroU32 = NonZeroU32::new(5).unwrap();

    #[test]
    fn malformed_input_errors() {
        // a histogram whose buckets hold other than its count of votes
        let h: Histogram16 = fold(&VOTES);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        for count in [4, 6] {
            let count = NonZeroU32::new(count).unwrap();
            let got = Histogram16::decode(count, &mut buf.as_slice());
            assert_eq!(got, Err(WireError::Malformed), "at {count}");
        }
        // a bucket count in other than its one encoding
        buf[0] |= 0x80;
        buf.insert(1, 0);
        let got = Histogram16::decode(FIVE, &mut buf.as_slice());
        assert_eq!(got, Err(WireError::Malformed));
        // topk with oversized length, a boolean other than 0 or 1
        let mut buf = BytesMut::new();
        buf.put_u8(200);
        let buf = buf.freeze();
        assert_eq!(
            TopK::decode(FIVE, &mut buf.clone()),
            Err(WireError::Malformed)
        );
        assert_eq!(
            Any::decode(FIVE, &mut buf.clone()),
            Err(WireError::Malformed)
        );
        assert_eq!(
            All::decode(FIVE, &mut buf.clone()),
            Err(WireError::Malformed)
        );
        // a NaN or an infinity in any `f64` field, at its byte offset
        fn rejects<A: WireAggregate>(honest: &A, at: usize) {
            let mut buf = Vec::new();
            honest.encode(&mut buf);
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                buf[at..at + 8].copy_from_slice(&bad.to_be_bytes());
                let got = A::decode(FIVE, &mut buf.as_slice()).err();
                assert_eq!(got, Some(WireError::Malformed), "{bad} at byte {at}");
            }
        }
        let (top, mv): (TopK, MeanVar) = (fold(&VOTES), fold(&VOTES));
        rejects(&fold::<Average>(&VOTES), 0); // the sum
        rejects(&fold::<Sum>(&VOTES), 0);
        rejects(&fold::<Min>(&VOTES), 0);
        rejects(&fold::<Max>(&VOTES), 0);
        (0..top.items().len()).for_each(|item| rejects(&top, 1 + 8 * item));
        rejects(&mv, 0); // the mean
        rejects(&mv, 8); // m2
    }

    #[test]
    fn a_count_is_written_once() {
        // a count writes nothing but its count, an average its sum, and
        // a box-sized histogram a byte a bucket
        let tagged = |votes: &[f64]| {
            let mut t = Tagged::<Count>::empty(votes.len());
            votes.iter().enumerate().for_each(|(m, &v)| {
                t.try_add_vote(m, v).unwrap();
            });
            t
        };
        let mut buf = Vec::new();
        encode_tagged(&tagged(&VOTES), &mut buf);
        assert_eq!(buf, [5]);
        assert_eq!(fold::<Average>(&VOTES).wire_size(), 8);
        assert_eq!(fold::<MeanVar>(&VOTES).wire_size(), 16);
        let h: Histogram16 = fold(&[5.0, 15.0, 15.0, 95.0]);
        assert_eq!(h.wire_size(), HISTOGRAM_BUCKETS);
    }

    #[test]
    fn error_display() {
        assert!(WireError::Truncated.to_string().contains("short"));
        assert!(WireError::Malformed.to_string().contains("malformed"));
    }
}

/// Encode a [`Tagged`](crate::Tagged) aggregate as
/// `[count varint][value]`: how many votes it contains, then, if that
/// is above zero, the constant-size [`WireAggregate`] value less what
/// it shares with the count. No group holds more than `u32::MAX`
/// members, so a larger count (which only a forger builds) is written
/// as `u32::MAX`, and every group smaller than that refuses it.
///
/// Contributor identity stays with the sender — exact sets are an
/// instrument of the simulator and of each runtime member's own phase-1
/// composition, and a receiver gets [`crate::VoteSet::counted`]. The
/// frame is therefore the same size at every group size.
pub fn encode_tagged<A: WireAggregate, B: BufMut>(tagged: &crate::Tagged<A>, buf: &mut B) {
    let count = clamp_len(tagged.vote_count());
    put_varint(count, buf);
    if let Some(agg) = tagged.aggregate() {
        agg.encode(buf);
        crate::strict_assert!(
            decodes_to_itself(agg, count),
            "strict-invariants: a value of other than its {count} contributors' votes \
             went on the wire: {agg:?}"
        );
    }
}

/// Whether `agg`, decoded at `count` votes, is `agg` again — as it is
/// for every aggregate a protocol folds — or is refused whatever its
/// count, for a non-finite summary no honest vote makes.
#[cfg(feature = "strict-invariants")]
fn decodes_to_itself<A: WireAggregate>(agg: &A, count: u32) -> bool {
    let mut bytes = Vec::new();
    agg.encode(&mut bytes);
    let decoded = NonZeroU32::new(count).map(|count| A::decode(count, &mut bytes.as_slice()));
    match decoded {
        Some(Ok(back)) => back == *agg,
        Some(Err(_)) => !agg.summary().is_finite(),
        None => false,
    }
}

/// Bytes [`encode_tagged`] writes for `tagged`: the count's varint and
/// the value's [`WireAggregate::wire_size`].
pub fn tagged_len<A: WireAggregate>(tagged: &crate::Tagged<A>) -> usize {
    let value = tagged.aggregate().map_or(0, WireAggregate::wire_size);
    varint_len(clamp_len(tagged.vote_count())) + value
}

/// Decode a [`Tagged`](crate::Tagged) aggregate written by
/// [`encode_tagged`]; its contributor set is counted, and its value is
/// of exactly that many votes.
///
/// # Errors
///
/// Returns [`WireError`] on truncated or malformed input.
pub fn decode_tagged<A: WireAggregate, B: Buf>(buf: &mut B) -> Result<crate::Tagged<A>, WireError> {
    let count = get_varint(buf)?;
    let agg = NonZeroU32::new(count).map(|count| A::decode(count, buf));
    let votes = usize::try_from(count).map_err(|_| WireError::Malformed)?;
    crate::Tagged::from_parts(agg.transpose()?, crate::VoteSet::counted(votes))
        .map_err(|_| WireError::Malformed)
}

#[cfg(test)]
mod tagged_wire_tests {
    use super::*;
    use crate::{Average, DoubleCount, Tagged, VoteSet};

    #[test]
    fn mismatched_value_and_set_rejected() {
        // a value of nobody's vote, or contributors without a value, is
        // no `Tagged`: neither is built, so neither is written
        let one = Some(Average::from_vote(1.0));
        assert_eq!(
            Tagged::from_parts(one, VoteSet::counted(0)),
            Err(DoubleCount)
        );
        let none = Tagged::<Average>::from_parts(None, VoteSet::counted(1));
        assert_eq!(none, Err(DoubleCount));
        // on the wire, count 0 is the whole empty aggregate: value bytes
        // after it are not its own, and are left to the payload decoder,
        // which refuses them
        let mut buf = vec![0];
        Average::from_vote(1.0).encode(&mut buf);
        let mut rest = buf.as_slice();
        let back: Tagged<Average> = decode_tagged(&mut rest).unwrap();
        assert_eq!((back.aggregate(), back.vote_count()), (None, 0));
        assert_eq!(rest.len(), 8);
    }

    /// Flow-Updating's published estimate is such a value (one vote's
    /// over its influence set): it may be held, never sent.
    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "contributors' votes")]
    fn a_value_of_other_than_its_contributors_votes_is_not_written() {
        let one_vote = Some(Average::from_vote(1.0));
        let held = Tagged::from_parts(one_vote, VoteSet::counted(2)).unwrap();
        encode_tagged(&held, &mut Vec::new());
    }

    #[test]
    fn varints_roundtrip_at_every_width() {
        let cases: [(u32, &[u8]); 10] = [
            (0, &[0x00]),
            (127, &[0x7F]),
            (128, &[0x80, 0x01]),
            (16_383, &[0xFF, 0x7F]),
            (16_384, &[0x80, 0x80, 0x01]),
            (2_097_151, &[0xFF, 0xFF, 0x7F]),
            (2_097_152, &[0x80, 0x80, 0x80, 0x01]),
            (268_435_455, &[0xFF, 0xFF, 0xFF, 0x7F]),
            (268_435_456, &[0x80, 0x80, 0x80, 0x80, 0x01]),
            (u32::MAX, &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
        ];
        for (value, bytes) in cases {
            let mut buf = Vec::new();
            put_varint(value, &mut buf);
            assert_eq!(buf, bytes, "{value}");
            assert_eq!(varint_len(value), bytes.len(), "{value}");
            let mut rest = buf.as_slice();
            assert_eq!(get_varint(&mut rest), Ok(value));
            assert!(rest.is_empty(), "{value} left bytes behind");
        }
        assert_eq!(cases[9].1.len(), MAX_VARINT_LEN);
    }
}
