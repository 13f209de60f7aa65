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

#[cfg(test)]
mod tests {
    use super::*;

    fn fold<A: Aggregate>(votes: &[f64]) -> A {
        let mut it = votes.iter();
        let mut acc = A::from_vote(*it.next().expect("non-empty"));
        for &v in it {
            acc.merge(&A::from_vote(v));
        }
        acc
    }

    const VOTES: [f64; 6] = [3.0, -1.0, 4.0, 1.0, 5.0, 9.0];

    #[test]
    fn average_matches_direct() {
        let a: Average = fold(&VOTES);
        assert!((a.summary() - 3.5).abs() < 1e-12);
        assert_eq!(a.count(), 6);
        assert!((a.sum() - 21.0).abs() < 1e-12);
    }

    #[test]
    fn sum_count_min_max() {
        assert_eq!(fold::<Sum>(&VOTES).summary(), 21.0);
        assert_eq!(fold::<Count>(&VOTES).summary(), 6.0);
        assert_eq!(fold::<Min>(&VOTES).summary(), -1.0);
        assert_eq!(fold::<Max>(&VOTES).summary(), 9.0);
    }

    #[test]
    fn meanvar_matches_two_pass() {
        let mv: MeanVar = fold(&VOTES);
        let mean = VOTES.iter().sum::<f64>() / VOTES.len() as f64;
        let var = VOTES.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / VOTES.len() as f64;
        assert!((mv.mean() - mean).abs() < 1e-12);
        assert!((mv.variance() - var).abs() < 1e-9);
        assert_eq!(mv.count(), 6);
    }

    #[test]
    fn meanvar_merge_grouping_invariance() {
        // ((a b) (c d e f)) == fold in order
        let left: MeanVar = fold(&VOTES[..2]);
        let right: MeanVar = fold(&VOTES[2..]);
        let mut grouped = left;
        grouped.merge(&right);
        let folded: MeanVar = fold(&VOTES);
        assert!((grouped.mean() - folded.mean()).abs() < 1e-12);
        assert!((grouped.variance() - folded.variance()).abs() < 1e-9);
    }

    #[test]
    fn average_empty_summary_is_nan() {
        let a = Average { sum: 0.0, count: 0 };
        assert!(a.summary().is_nan());
    }

    #[test]
    fn histogram_counts_and_median() {
        let h: Histogram16 = fold(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(h.buckets().iter().sum::<u64>(), 5);
        let med = h.quantile(0.5);
        assert!((25.0..=37.5).contains(&med), "median {med}");
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let h: Histogram16 = fold(&[-50.0, 500.0]);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn histogram_quantile_extremes() {
        let h: Histogram16 = fold(&[50.0]);
        assert!(h.quantile(0.0) <= h.quantile(1.0));
    }

    #[test]
    fn topk_keeps_largest() {
        let t: TopK = fold(&VOTES);
        assert_eq!(t.items(), &[9.0, 5.0, 4.0, 3.0]);
        assert_eq!(t.summary(), 9.0);
    }

    #[test]
    fn topk_is_order_insensitive() {
        let mut shuffled = VOTES;
        shuffled.reverse();
        assert_eq!(fold::<TopK>(&VOTES), fold::<TopK>(&shuffled));
    }

    #[test]
    fn merge_commutes_for_all() {
        fn comm<A: Aggregate>(x: f64, y: f64) {
            let mut ab = A::from_vote(x);
            ab.merge(&A::from_vote(y));
            let mut ba = A::from_vote(y);
            ba.merge(&A::from_vote(x));
            assert_eq!(ab, ba, "{}", std::any::type_name::<A>());
        }
        comm::<Sum>(1.5, -2.0);
        comm::<Count>(1.5, -2.0);
        comm::<Min>(1.5, -2.0);
        comm::<Max>(1.5, -2.0);
        comm::<Average>(1.5, -2.0);
        comm::<TopK>(1.5, -2.0);
        comm::<Histogram16>(15.0, 85.0);
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
mod bool_tests {
    use super::*;

    #[test]
    fn any_is_or() {
        let mut a = Any::from_vote(0.0);
        assert!(!a.holds());
        a.merge(&Any::from_vote(0.0));
        assert!(!a.holds());
        a.merge(&Any::from_vote(3.5));
        assert!(a.holds());
        a.merge(&Any::from_vote(0.0));
        assert!(a.holds(), "OR is monotone");
        assert_eq!(a.summary(), 1.0);
    }

    #[test]
    fn all_is_and() {
        let mut a = All::from_vote(1.0);
        assert!(a.holds());
        a.merge(&All::from_vote(2.0));
        assert!(a.holds());
        a.merge(&All::from_vote(0.0));
        assert!(!a.holds());
        a.merge(&All::from_vote(1.0));
        assert!(!a.holds(), "AND is monotone");
        assert_eq!(a.summary(), 0.0);
    }

    #[test]
    fn bool_duality() {
        // Any(v) == !All(!v) over the same votes
        let votes = [0.0, 1.0, 0.0];
        let mut any = Any::from_vote(votes[0]);
        let mut all_negated = All::from_vote(if votes[0] == 0.0 { 1.0 } else { 0.0 });
        for &v in &votes[1..] {
            any.merge(&Any::from_vote(v));
            all_negated.merge(&All::from_vote(if v == 0.0 { 1.0 } else { 0.0 }));
        }
        assert_eq!(any.holds(), !all_negated.holds());
    }
}
