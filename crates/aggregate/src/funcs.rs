//! The standard composable aggregate functions.
//!
//! "Average, minimum and maximum are all examples of composable
//! functions" (§1). We additionally provide sum, count, a numerically
//! stable mean+variance (Chan's parallel update), a fixed-width histogram
//! (for approximate quantiles), and a bounded top-K — all with
//! constant-size state, as the composability definition requires.

use crate::conv;
use crate::Aggregate;

/// Arithmetic mean: state is `(sum, count)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Average {
    sum: f64,
    count: u64,
}

impl Average {
    /// Reassemble from raw parts (used by the wire codec).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` — an average over nothing is represented
    /// as *absence* of an aggregate, not a zero-count value.
    pub fn from_parts(sum: f64, count: u64) -> Self {
        assert!(count > 0, "Average::from_parts with count 0");
        Average { sum, count }
    }

    /// Total of votes seen.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of votes composed in.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Aggregate for Average {
    fn from_vote(vote: f64) -> Self {
        Average {
            sum: vote,
            count: 1,
        }
    }

    fn merge(&mut self, other: &Self) {
        self.sum += other.sum;
        self.count += other.count;
    }

    fn summary(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / conv::count_to_f64(self.count)
        }
    }
}

/// Sum of votes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sum(f64);

impl Aggregate for Sum {
    fn from_vote(vote: f64) -> Self {
        Sum(vote)
    }

    fn merge(&mut self, other: &Self) {
        self.0 += other.0;
    }

    fn summary(&self) -> f64 {
        self.0
    }
}

/// Number of votes (e.g. live-member counting, a classic gossip
/// aggregation task).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Count(u64);

impl Count {
    /// Reassemble from a raw count (used by the wire codec).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn from_parts(n: u64) -> Self {
        assert!(n > 0, "Count::from_parts with 0");
        Count(n)
    }

    /// The raw count, without the float round-trip of
    /// [`Aggregate::summary`].
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Aggregate for Count {
    fn from_vote(_vote: f64) -> Self {
        Count(1)
    }

    fn merge(&mut self, other: &Self) {
        self.0 += other.0;
    }

    fn summary(&self) -> f64 {
        conv::count_to_f64(self.0)
    }
}

/// Minimum vote.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Min(f64);

impl Aggregate for Min {
    fn from_vote(vote: f64) -> Self {
        Min(vote)
    }

    fn merge(&mut self, other: &Self) {
        if other.0 < self.0 {
            self.0 = other.0;
        }
    }

    fn summary(&self) -> f64 {
        self.0
    }
}

/// Maximum vote.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Max(f64);

impl Aggregate for Max {
    fn from_vote(vote: f64) -> Self {
        Max(vote)
    }

    fn merge(&mut self, other: &Self) {
        if other.0 > self.0 {
            self.0 = other.0;
        }
    }

    fn summary(&self) -> f64 {
        self.0
    }
}

/// Mean and variance in one constant-size state, composed with Chan et
/// al.'s parallel update — useful for "is the sensor field anomalous"
/// queries without a second protocol run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanVar {
    count: u64,
    mean: f64,
    m2: f64,
}

impl MeanVar {
    /// Reassemble from raw parts `(count, mean, m2)` (wire codec).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `m2 < 0`.
    pub fn from_parts(count: u64, mean: f64, m2: f64) -> Self {
        assert!(count > 0, "MeanVar::from_parts with count 0");
        assert!(m2 >= 0.0, "negative sum of squared deviations");
        MeanVar { count, mean, m2 }
    }

    /// The mean of the composed votes.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The population variance of the composed votes.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.m2 / conv::count_to_f64(self.count)
        }
    }

    /// Number of votes composed in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The sum of squared deviations from the mean: the variance times
    /// the count, as the wire carries it.
    pub fn m2(&self) -> f64 {
        self.m2
    }
}

impl Aggregate for MeanVar {
    fn from_vote(vote: f64) -> Self {
        MeanVar {
            count: 1,
            mean: vote,
            m2: 0.0,
        }
    }

    fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let (na, nb) = (
            conv::count_to_f64(self.count),
            conv::count_to_f64(other.count),
        );
        let delta = other.mean - self.mean;
        let n = na + nb;
        self.mean += delta * nb / n;
        self.m2 += other.m2 + delta * delta * na * nb / n;
        self.count += other.count;
    }

    fn summary(&self) -> f64 {
        self.mean
    }
}

/// Number of buckets in [`Histogram16`].
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A fixed-range, 16-bucket histogram: constant-size state supporting
/// approximate quantile queries over the group's votes.
///
/// Votes below the range clamp into the first bucket, above into the
/// last. The range is part of the "well-known" protocol configuration
/// (like `K` and `H`), so all members agree on bucket boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Histogram16 {
    lo: f64,
    hi: f64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

/// The well-known histogram range, fixed for a protocol run.
/// Default `[0, 100]` suits the temperature examples.
pub static HISTOGRAM_RANGE: (f64, f64) = (0.0, 100.0);

impl Histogram16 {
    /// Reassemble from raw bucket counts (wire codec). Uses the
    /// well-known [`HISTOGRAM_RANGE`].
    ///
    /// # Panics
    ///
    /// Panics if all buckets are zero.
    pub fn from_parts(buckets: [u64; HISTOGRAM_BUCKETS]) -> Self {
        assert!(
            buckets.iter().any(|&c| c > 0),
            "Histogram16::from_parts with no votes"
        );
        let (lo, hi) = HISTOGRAM_RANGE;
        Histogram16 { lo, hi, buckets }
    }

    /// Bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1) assuming uniform spread
    /// within buckets.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * conv::count_to_f64(total))
            .ceil()
            .max(1.0);
        let target = conv::f64_to_count(rank);
        let width = (self.hi - self.lo) / conv::count_to_f64(HISTOGRAM_BUCKETS as u64);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if seen + c >= target {
                let into = if c == 0 {
                    0.5
                } else {
                    conv::count_to_f64(target - seen) / conv::count_to_f64(c)
                };
                return self.lo + (conv::count_to_f64(i as u64) + into) * width;
            }
            seen += c;
        }
        self.hi
    }
}

impl Aggregate for Histogram16 {
    fn from_vote(vote: f64) -> Self {
        let (lo, hi) = HISTOGRAM_RANGE;
        let width = (hi - lo) / conv::count_to_f64(HISTOGRAM_BUCKETS as u64);
        let idx = conv::f64_to_bucket((vote - lo) / width, HISTOGRAM_BUCKETS);
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[idx] = 1;
        Histogram16 { lo, hi, buckets }
    }

    fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    fn summary(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Bound on the number of items a [`TopK`] retains.
pub const TOP_K: usize = 4;

/// The `TOP_K` largest votes seen — constant-size state, so still
/// composable in the paper's sense. Useful for "which sensors are
/// hottest" follow-up queries.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    items: Vec<f64>, // sorted descending, len <= TOP_K
}

impl TopK {
    /// Reassemble from raw items (wire codec); sorts and truncates.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn from_parts(mut items: Vec<f64>) -> Self {
        assert!(!items.is_empty(), "TopK::from_parts with no items");
        items.sort_by(|a, b| b.total_cmp(a));
        items.truncate(TOP_K);
        TopK { items }
    }

    /// The retained items, largest first.
    pub fn items(&self) -> &[f64] {
        &self.items
    }
}

impl Aggregate for TopK {
    fn from_vote(vote: f64) -> Self {
        TopK { items: vec![vote] }
    }

    fn merge(&mut self, other: &Self) {
        self.items.extend_from_slice(&other.items);
        self.items.sort_by(|a, b| b.total_cmp(a));
        self.items.truncate(TOP_K);
    }

    fn summary(&self) -> f64 {
        self.items.first().copied().unwrap_or(f64::NAN)
    }
}

/// Logical OR over predicate votes: a vote is "true" iff non-zero.
/// Answers queries like "is *any* sensor above the threshold?" with
/// one byte of state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Any(bool);

impl Any {
    /// Whether any composed vote was true.
    pub fn holds(&self) -> bool {
        self.0
    }
}

impl Aggregate for Any {
    fn from_vote(vote: f64) -> Self {
        Any(vote != 0.0)
    }

    fn merge(&mut self, other: &Self) {
        self.0 |= other.0;
    }

    fn summary(&self) -> f64 {
        if self.0 {
            1.0
        } else {
            0.0
        }
    }
}

/// Logical AND over predicate votes: a vote is "true" iff non-zero.
/// Answers "are *all* sensors healthy?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct All(bool);

impl All {
    /// Whether every composed vote was true.
    pub fn holds(&self) -> bool {
        self.0
    }
}

impl Aggregate for All {
    fn from_vote(vote: f64) -> Self {
        All(vote != 0.0)
    }

    fn merge(&mut self, other: &Self) {
        self.0 &= other.0;
    }

    fn summary(&self) -> f64 {
        if self.0 {
            1.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{
        decode_tagged, encode_tagged, tagged_len, WireAggregate, WireError, MAX_AGGREGATE_WIRE_SIZE,
    };
    use crate::{Tagged, VoteSet};

    fn fold<A: Aggregate>(votes: &[f64]) -> A {
        let mut it = votes.iter();
        let mut acc = A::from_vote(*it.next().expect("non-empty"));
        for &v in it {
            acc.merge(&A::from_vote(v));
        }
        acc
    }

    fn merged<A: Aggregate>(mut a: A, b: &A) -> A {
        a.merge(b);
        a
    }

    fn close(got: f64, want: f64) -> bool {
        (got - want).abs() < 1e-9
    }

    /// A zero among them, so `Any` and `All` differ.
    const VOTES: [f64; 7] = [3.0, -1.0, 0.0, 4.0, 1.0, 5.0, 9.0];

    /// `reads` holds for `A` of `VOTES` however they are ordered and
    /// grouped: folded forwards and backwards, merged as two parts in
    /// either order at every split (commutativity and grouping) and as
    /// three parts both ways (associativity). And a `Tagged<A>`, exact or
    /// counted, of 1 vote, of `VOTES` and on either side of a count's
    /// varint widths, crosses the wire in one form: in the bytes
    /// `tagged_len` counts, at most `MAX_AGGREGATE_WIRE_SIZE` of them its
    /// value, back as the same value of the same count in a counted set,
    /// and no shorter prefix of it decodes. An empty one is the one byte
    /// 0.
    fn law<A: WireAggregate>(reads: impl Fn(&A)) {
        let name = std::any::type_name::<A>();
        let n = VOTES.len();
        let mut reversed = VOTES;
        reversed.reverse();
        reads(&fold::<A>(&VOTES));
        reads(&fold::<A>(&reversed));
        for i in 1..n {
            let (left, right) = (fold::<A>(&VOTES[..i]), fold::<A>(&VOTES[i..]));
            reads(&merged(left.clone(), &right));
            reads(&merged(right, &left));
            for j in i + 1..n {
                let (mid, right) = (fold::<A>(&VOTES[i..j]), fold::<A>(&VOTES[j..]));
                reads(&merged(merged(left.clone(), &mid), &right));
                reads(&merged(left.clone(), &merged(mid, &right)));
            }
        }
        for votes in [1, n, 127, 128, 16_383, 16_384] {
            let mut exact = Tagged::<A>::empty(votes);
            let mut counted = Tagged::<A>::from_parts(None, VoteSet::counted(0)).unwrap();
            for m in 0..votes {
                // spread over the histogram's range, zeros included
                let vote = VOTES.get(m).copied().filter(|_| votes == n);
                let vote = vote.unwrap_or((m * 37 % 1000) as f64 / 10.0);
                exact.try_add_vote(m, vote).unwrap();
                counted.try_add_vote(m, vote).unwrap();
            }
            let (mut buf, mut other) = (Vec::new(), Vec::new());
            encode_tagged(&exact, &mut buf);
            encode_tagged(&counted, &mut other);
            assert_eq!(buf, other, "{name} of {votes}: one form for both sets");
            assert_eq!(tagged_len(&exact), buf.len(), "{name} of {votes}");
            let value = exact.aggregate().unwrap();
            assert!(value.wire_size() <= MAX_AGGREGATE_WIRE_SIZE, "{name}");
            let mut rest = buf.as_slice();
            let back: Tagged<A> = decode_tagged(&mut rest).unwrap();
            assert!(rest.is_empty(), "{name} of {votes} left bytes behind");
            assert_eq!(back.aggregate(), Some(value), "{name} of {votes}");
            assert_eq!(back.vote_count(), votes);
            assert!(!back.votes().is_exact(), "identity stays with the sender");
            for cut in 0..buf.len() {
                let got = decode_tagged::<A, _>(&mut &buf[..cut]).err();
                assert_eq!(got, Some(WireError::Truncated), "{name} cut at {cut}");
            }
        }
        let empty = Tagged::<A>::empty(64);
        let mut buf = Vec::new();
        encode_tagged(&empty, &mut buf);
        assert_eq!((buf.as_slice(), tagged_len(&empty)), (&[0u8][..], 1));
        let back: Tagged<A> = decode_tagged(&mut buf.as_slice()).unwrap();
        assert_eq!((back.aggregate(), back.vote_count()), (None, 0));
    }

    /// Aggregation is a semigroup: each of the ten reads the same of
    /// `VOTES` in any order and grouping, and keeps it across the wire.
    #[test]
    fn every_aggregate_merges_as_a_semigroup_and_roundtrips_at_its_count() {
        law::<Average>(|a| {
            assert!(close(a.summary(), 3.0) && close(a.sum(), 21.0));
            assert_eq!(a.count(), 7);
        });
        law::<Sum>(|a| assert!(close(a.summary(), 21.0)));
        law::<Count>(|a| assert_eq!(a.summary(), 7.0));
        law::<Min>(|a| assert_eq!(a.summary(), -1.0));
        law::<Max>(|a| assert_eq!(a.summary(), 9.0));
        // the two-pass variance: squared deviations 70 over 7 votes
        law::<MeanVar>(|a| {
            assert!(close(a.mean(), 3.0) && close(a.variance(), 10.0));
            assert_eq!(a.count(), 7);
        });
        // six votes below 6.25, the first clamped up into it, and the 9
        law::<Histogram16>(|a| {
            assert_eq!(a.buckets()[..2], [6, 1]);
            assert_eq!(a.buckets().iter().sum::<u64>(), 7);
            assert!((0.0..6.25).contains(&a.summary()));
        });
        law::<TopK>(|a| {
            assert_eq!(a.items(), &[9.0, 5.0, 4.0, 3.0]);
            assert_eq!(a.summary(), 9.0);
        });
        law::<Any>(|a| assert!(a.holds() && a.summary() == 1.0));
        law::<All>(|a| assert!(!a.holds() && a.summary() == 0.0));
        assert!(!fold::<Any>(&[0.0, 0.0]).holds());
        assert!(fold::<All>(&[1.0, 2.0]).holds());
        assert!(Average { sum: 0.0, count: 0 }.summary().is_nan());
        // out of range clamps into the end buckets; the median lies in
        // the bucket that holds it
        let h: Histogram16 = fold(&[-50.0, 500.0]);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
        let h: Histogram16 = fold(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert!((25.0..=37.5).contains(&h.summary()));
        let h: Histogram16 = fold(&[50.0]);
        assert!(h.quantile(0.0) <= h.quantile(1.0));
    }
}
