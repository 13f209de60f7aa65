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
//! ships the aggregate value plus the contributor *count* — a presence
//! flag and a [`put_varint`] count, 2 to [`MAX_VARINT_LEN`] + 1 bytes of
//! instrumentation per aggregate, never more at any group size.
//! [`varint_len`] and [`tagged_len`] give the lengths those two write
//! without writing a byte, so a payload's size can be counted from the
//! same layout as its encoding.
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

use bytes::{Buf, BufMut};

use crate::funcs::{
    All, Any, Average, Count, Histogram16, Max, MeanVar, Min, Sum, TopK, HISTOGRAM_BUCKETS, TOP_K,
};
use crate::Aggregate;

/// Upper bound (bytes) on any encoded aggregate value: the histogram is
/// the largest at `2·8 (range) + 16·8 (buckets) = 144`, plus slack.
pub const MAX_AGGREGATE_WIRE_SIZE: usize = 160;

/// Most bytes a [`put_varint`] encoding takes: a `u32` has 32 bits, 7 a
/// byte.
pub const MAX_VARINT_LEN: usize = 5;

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
    /// Append the encoded value to `buf`.
    fn encode<B: BufMut>(&self, buf: &mut B);

    /// Decode a value from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncated or malformed input.
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError>;

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

/// A count of votes, at least `min`, and no more than the widest group
/// (a vote per `u32` member id) holds: adding decoded counts can never
/// overflow.
fn get_count<B: Buf>(buf: &mut B, min: u64) -> Result<u64, WireError> {
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    let count = buf.get_u64();
    let in_range = (min..=u64::from(u32::MAX)).contains(&count);
    in_range.then_some(count).ok_or(WireError::Malformed)
}

impl WireAggregate for Average {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64(self.sum());
        buf.put_u64(self.count());
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let sum = get_f64(buf)?;
        Ok(Average::from_parts(sum, get_count(buf, 1)?))
    }

    fn wire_size(&self) -> usize {
        16
    }
}

impl WireAggregate for Sum {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64(self.summary());
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
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

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
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

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        Ok(Max::from_vote(get_f64(buf)?))
    }

    fn wire_size(&self) -> usize {
        8
    }
}

impl WireAggregate for Count {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        // the raw count, not `summary() as u64`: no float round-trip on
        // the wire
        buf.put_u64(self.value());
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        Ok(Count::from_parts(get_count(buf, 1)?))
    }

    fn wire_size(&self) -> usize {
        8
    }
}

impl WireAggregate for Histogram16 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        for &b in self.buckets() {
            buf.put_u64(b);
        }
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for c in &mut counts {
            *c = get_count(buf, 0)?;
        }
        if counts.iter().all(|&c| c == 0) {
            return Err(WireError::Malformed);
        }
        Ok(Histogram16::from_parts(counts))
    }

    fn wire_size(&self) -> usize {
        HISTOGRAM_BUCKETS * 8
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

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
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
        buf.put_u64(self.count());
        buf.put_f64(self.mean());
        buf.put_f64(if self.count() == 0 {
            0.0
        } else {
            self.variance() * crate::conv::count_to_f64(self.count())
        });
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let count = get_count(buf, 1)?;
        let mean = get_f64(buf)?;
        let m2 = get_f64(buf)?;
        if m2 < 0.0 {
            return Err(WireError::Malformed);
        }
        Ok(MeanVar::from_parts(count, mean, m2))
    }

    fn wire_size(&self) -> usize {
        24
    }
}

impl WireAggregate for Any {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(u8::from(self.holds()));
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
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

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
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
    use bytes::BytesMut;

    fn roundtrip<A: WireAggregate>(a: &A) -> A {
        let mut buf = BytesMut::new();
        a.encode(&mut buf);
        assert_eq!(buf.len(), a.wire_size(), "declared size mismatch");
        assert!(a.wire_size() <= MAX_AGGREGATE_WIRE_SIZE);
        let mut rd = buf.freeze();
        let out = A::decode(&mut rd).expect("decode");
        assert_eq!(rd.remaining(), 0, "trailing bytes");
        out
    }

    fn fold<A: Aggregate>(votes: &[f64]) -> A {
        let mut acc = A::from_vote(votes[0]);
        for &v in &votes[1..] {
            acc.merge(&A::from_vote(v));
        }
        acc
    }

    const VOTES: [f64; 5] = [3.5, -2.0, 7.25, 0.0, 11.0];

    #[test]
    fn average_roundtrip() {
        let a: Average = fold(&VOTES);
        let b = roundtrip(&a);
        assert_eq!(a.count(), b.count());
        assert!((a.sum() - b.sum()).abs() < 1e-9);
    }

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(roundtrip(&fold::<Sum>(&VOTES)), fold::<Sum>(&VOTES));
        assert_eq!(roundtrip(&fold::<Min>(&VOTES)), fold::<Min>(&VOTES));
        assert_eq!(roundtrip(&fold::<Max>(&VOTES)), fold::<Max>(&VOTES));
        assert_eq!(roundtrip(&fold::<Count>(&VOTES)), fold::<Count>(&VOTES));
    }

    #[test]
    fn histogram_roundtrip_preserves_buckets() {
        let h: Histogram16 = fold(&[5.0, 15.0, 15.0, 95.0]);
        let h2 = roundtrip(&h);
        assert_eq!(h.buckets(), h2.buckets());
    }

    #[test]
    fn topk_roundtrip() {
        let t: TopK = fold(&VOTES);
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn meanvar_roundtrip_close() {
        let mv: MeanVar = fold(&VOTES);
        let mv2 = roundtrip(&mv);
        assert_eq!(mv.count(), mv2.count());
        assert!((mv.mean() - mv2.mean()).abs() < 1e-9, "{mv:?} vs {mv2:?}");
        assert!(
            (mv.variance() - mv2.variance()).abs() < 1e-6,
            "{} vs {}",
            mv.variance(),
            mv2.variance()
        );
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = BytesMut::new();
        fold::<Average>(&VOTES).encode(&mut buf);
        let mut short = buf.freeze().slice(0..10);
        assert_eq!(Average::decode(&mut short), Err(WireError::Truncated));
        let mut empty = bytes::Bytes::new();
        assert_eq!(Sum::decode(&mut empty), Err(WireError::Truncated));
        assert_eq!(TopK::decode(&mut empty), Err(WireError::Truncated));
    }

    #[test]
    fn malformed_input_errors() {
        // an average of no vote, or of more than the widest group holds
        for count in [0, u64::from(u32::MAX) + 1] {
            let mut buf = Vec::new();
            buf.put_f64(1.0);
            buf.put_u64(count);
            let got = Average::decode(&mut buf.as_slice()).err();
            assert_eq!(got, Some(WireError::Malformed), "count {count}");
        }
        // topk with oversized length
        let mut buf = BytesMut::new();
        buf.put_u8(200);
        assert_eq!(TopK::decode(&mut buf.freeze()), Err(WireError::Malformed));
        // a NaN or an infinity in any `f64` field, at its byte offset
        fn rejects<A: WireAggregate>(honest: &A, at: usize) {
            let mut buf = Vec::new();
            honest.encode(&mut buf);
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                buf[at..at + 8].copy_from_slice(&bad.to_be_bytes());
                let got = A::decode(&mut buf.as_slice()).err();
                assert_eq!(got, Some(WireError::Malformed), "{bad} at byte {at}");
            }
        }
        let (top, mv): (TopK, MeanVar) = (fold(&VOTES), fold(&VOTES));
        rejects(&fold::<Average>(&VOTES), 0); // the sum
        rejects(&fold::<Sum>(&VOTES), 0);
        rejects(&fold::<Min>(&VOTES), 0);
        rejects(&fold::<Max>(&VOTES), 0);
        (0..top.items().len()).for_each(|item| rejects(&top, 1 + 8 * item));
        rejects(&mv, 8); // the mean
        rejects(&mv, 16); // m2
    }

    #[test]
    fn sizes_are_constant_bounded() {
        // wire size must not grow with the number of merged votes
        let small: Average = fold(&VOTES[..2]);
        let big: Average = fold(&VOTES);
        assert_eq!(small.wire_size(), big.wire_size());
        let h_small: Histogram16 = fold(&VOTES[..2]);
        let h_big: Histogram16 = fold(&VOTES);
        assert_eq!(h_small.wire_size(), h_big.wire_size());
    }

    #[test]
    fn bool_roundtrips() {
        assert_eq!(roundtrip(&Any::from_vote(1.0)), Any::from_vote(1.0));
        assert_eq!(roundtrip(&Any::from_vote(0.0)), Any::from_vote(0.0));
        assert_eq!(roundtrip(&All::from_vote(0.0)), All::from_vote(0.0));
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        assert_eq!(Any::decode(&mut buf.freeze()), Err(WireError::Malformed));
    }

    #[test]
    fn error_display() {
        assert!(WireError::Truncated.to_string().contains("short"));
        assert!(WireError::Malformed.to_string().contains("malformed"));
    }

    #[test]
    fn tagged_roundtrips_exact_and_counted() {
        // both local representations cross the wire as value + count,
        // in the same bytes, however many contributors there are
        let n = crate::EXACT_TRACK_MAX + 1;
        let mut counted = crate::Tagged::<Average>::empty_for_scale(n);
        let mut exact = crate::Tagged::<Average>::empty(n);
        for m in 0..100 {
            let vote = m as f64;
            counted
                .try_merge(&crate::Tagged::from_vote_for_scale(m, vote, n))
                .unwrap();
            exact
                .try_merge(&crate::Tagged::from_vote(m, vote, n))
                .unwrap();
        }
        assert!(exact.votes().is_exact() && !counted.votes().is_exact());
        let (mut a, mut b) = (BytesMut::new(), BytesMut::new());
        encode_tagged(&exact, &mut a);
        encode_tagged(&counted, &mut b);
        assert_eq!(a, b, "one wire form for both representations");
        // presence flag, value, and the count 100 in one varint byte
        assert_eq!(a.len(), 1 + 16 + 1);
        assert_eq!(tagged_len(&exact), a.len());
        let a = a.freeze();
        assert_eq!(a.slice(17..18).get_u8(), 100);
        let back: crate::Tagged<Average> = decode_tagged(&mut a.clone()).unwrap();
        assert_eq!(back, counted);
    }
}

/// Encode a [`Tagged`](crate::Tagged) aggregate as
/// `[present u8][value][count varint]`: the constant-size
/// [`WireAggregate`] value followed by how many votes it contains. No
/// group holds more than `u32::MAX` members, so a larger count (which
/// only a forger builds) is written as `u32::MAX`, and every group
/// smaller than that refuses it.
///
/// Contributor identity stays with the sender — exact sets are an
/// instrument of the simulator and of each runtime member's own phase-1
/// composition, and a receiver gets [`crate::VoteSet::counted`]. The
/// frame is therefore the same size at every group size.
pub fn encode_tagged<A: WireAggregate, B: BufMut>(tagged: &crate::Tagged<A>, buf: &mut B) {
    match tagged.aggregate() {
        Some(agg) => {
            buf.put_u8(1);
            agg.encode(buf);
        }
        None => buf.put_u8(0),
    }
    put_varint(clamp_len(tagged.vote_count()), buf);
}

/// Bytes [`encode_tagged`] writes for `tagged`: the presence flag, the
/// value's [`WireAggregate::wire_size`] and the count's varint.
pub fn tagged_len<A: WireAggregate>(tagged: &crate::Tagged<A>) -> usize {
    let value = tagged.aggregate().map_or(0, WireAggregate::wire_size);
    1 + value + varint_len(clamp_len(tagged.vote_count()))
}

/// Decode a [`Tagged`](crate::Tagged) aggregate written by
/// [`encode_tagged`]; its contributor set is counted.
///
/// # Errors
///
/// Returns [`WireError`] on truncated or malformed input.
pub fn decode_tagged<A: WireAggregate, B: Buf>(buf: &mut B) -> Result<crate::Tagged<A>, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    let agg = match buf.get_u8() {
        0 => None,
        1 => Some(A::decode(buf)?),
        _ => return Err(WireError::Malformed),
    };
    let count = usize::try_from(get_varint(buf)?).map_err(|_| WireError::Malformed)?;
    crate::Tagged::from_parts(agg, crate::VoteSet::counted(count)).map_err(|_| WireError::Malformed)
}

#[cfg(test)]
mod tagged_wire_tests {
    use super::*;
    use crate::{Average, Tagged};
    use bytes::BytesMut;

    #[test]
    fn tagged_roundtrip() {
        let mut t = Tagged::<Average>::from_vote(3, 10.0, 256);
        t.try_merge(&Tagged::from_vote(200, 30.0, 256)).unwrap();
        let mut buf = BytesMut::new();
        encode_tagged(&t, &mut buf);
        let back: Tagged<Average> = decode_tagged(&mut buf.freeze()).unwrap();
        assert_eq!(back.vote_count(), 2);
        assert!(!back.votes().is_exact(), "identity stays with the sender");
        assert_eq!(back.aggregate().unwrap().summary(), 20.0);
    }

    #[test]
    fn empty_tagged_roundtrip() {
        let t = Tagged::<Average>::empty(64);
        let mut buf = BytesMut::new();
        encode_tagged(&t, &mut buf);
        // a presence flag and a zero count
        assert_eq!((buf.len(), tagged_len(&t)), (2, 2));
        let back: Tagged<Average> = decode_tagged(&mut buf.freeze()).unwrap();
        assert!(back.aggregate().is_none());
        assert_eq!(back.vote_count(), 0);
    }

    #[test]
    fn mismatched_value_and_set_rejected() {
        // a tagged with a value but a fabricated zero count decodes
        // fine; a count without a value is rejected by from_parts
        let mut buf = BytesMut::new();
        buf.put_u8(0); // no value
        put_varint(1, &mut buf); // ...but one contributor
        let r: Result<Tagged<Average>, _> = decode_tagged(&mut buf.freeze());
        assert_eq!(r.unwrap_err(), WireError::Malformed);
        let valued = Tagged::<Average>::from_vote(0, 1.0, 8);
        let mut buf = Vec::new();
        encode_tagged(&valued, &mut buf);
        *buf.last_mut().unwrap() = 0; // a value of nobody's vote
        let back: Tagged<Average> = decode_tagged(&mut buf.as_slice()).unwrap();
        assert_eq!(
            (back.aggregate(), back.vote_count()),
            (valued.aggregate(), 0)
        );
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

    #[test]
    fn overlong_past_u32_and_cut_varints_are_rejected() {
        let rejected: [(&[u8], WireError); 9] = [
            // overlong: 0, 127 and 1 with a padding byte, 0 in five bytes
            (&[0x80, 0x00], WireError::Malformed),
            (&[0xFF, 0x00], WireError::Malformed),
            (&[0x81, 0x80, 0x00], WireError::Malformed),
            (&[0x80, 0x80, 0x80, 0x80, 0x00], WireError::Malformed),
            // past `u32::MAX`: 2^32, and a sixth byte
            (&[0x80, 0x80, 0x80, 0x80, 0x10], WireError::Malformed),
            (&[0xFF, 0xFF, 0xFF, 0xFF, 0x8F, 0x00], WireError::Malformed),
            // cut mid-varint
            (&[], WireError::Truncated),
            (&[0x80], WireError::Truncated),
            (&[0xFF, 0xFF, 0xFF, 0xFF], WireError::Truncated),
        ];
        for (bytes, err) in rejected {
            assert_eq!(get_varint(&mut &bytes[..]), Err(err), "{bytes:02x?}");
        }
        // as an aggregate's count too
        let mut buf = vec![0];
        buf.extend_from_slice(&[0x80, 0x00]);
        let r: Result<Tagged<Average>, _> = decode_tagged(&mut buf.as_slice());
        assert_eq!(r, Err(WireError::Malformed));
    }

    #[test]
    fn truncated_tagged_rejected() {
        let t = Tagged::<Average>::from_vote(0, 1.0, 64);
        let mut buf = BytesMut::new();
        encode_tagged(&t, &mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut short = full.slice(0..cut);
            let r: Result<Tagged<Average>, _> = decode_tagged(&mut short);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }
}
