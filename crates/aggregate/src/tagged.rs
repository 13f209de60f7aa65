//! Aggregates tagged with their contributor sets.
//!
//! [`Tagged`] pairs an [`Aggregate`] value with the [`VoteSet`] of
//! members whose votes it contains, enforcing the paper's *no double
//! counting* constraint at merge time and enabling exact completeness
//! measurement at the end of a run.
//!
//! Two folds: [`Tagged::try_merge`] composes two partial aggregates
//! (one pass over the bitmaps when both sides are exact, O(1) when
//! either is counted), and [`Tagged::try_add_vote`] folds in a single
//! member's vote in O(1) without building a singleton to merge. The
//! `*_for_scale` constructors pick the counted representation in a
//! default build and the exact shadow in a `strict-invariants` one; see
//! the [`crate::voteset`] module docs.

use crate::voteset::VoteSet;
use crate::Aggregate;

/// Error returned by [`Tagged::try_merge`] and [`Tagged::try_add_vote`]
/// when the two sides share at least one contributing member — merging
/// them would count a vote twice, which the paper's problem statement
/// forbids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoubleCount;

impl std::fmt::Display for DoubleCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("aggregates share contributing members (no-double-counting violation)")
    }
}

impl std::error::Error for DoubleCount {}

/// An aggregate value together with the set of members it covers.
///
/// An empty `Tagged` (no votes yet) has `aggregate() == None`; the first
/// merge or vote initialises it. See the crate-level example.
#[derive(Debug, Clone, PartialEq)]
pub struct Tagged<A> {
    agg: Option<A>,
    votes: VoteSet,
}

impl<A: Aggregate> Tagged<A> {
    /// An empty aggregate sized for a group of `n` members, with an
    /// **exact** contributor set.
    pub fn empty(n: usize) -> Self {
        Tagged {
            agg: None,
            votes: VoteSet::new(n),
        }
    }

    /// The partial aggregate for a single member's vote, with an
    /// **exact** contributor set.
    pub fn from_vote(member: usize, vote: f64, n: usize) -> Self {
        Tagged {
            agg: Some(A::from_vote(vote)),
            votes: VoteSet::singleton(member, n),
        }
    }

    /// An empty aggregate in the contributor representation
    /// [`VoteSet::for_scale`] picks for `n`: counted, or the exact
    /// shadow up to [`crate::EXACT_TRACK_MAX`] in a `strict-invariants`
    /// build.
    ///
    /// Only for protocols whose merges are structurally disjoint; see
    /// the [`crate::voteset`] module docs.
    pub fn empty_for_scale(n: usize) -> Self {
        Tagged {
            agg: None,
            votes: VoteSet::for_scale(n),
        }
    }

    /// The partial aggregate for a single member's vote, in the
    /// contributor representation [`VoteSet::for_scale`] picks for `n`.
    pub fn from_vote_for_scale(member: usize, vote: f64, n: usize) -> Self {
        Tagged {
            agg: Some(A::from_vote(vote)),
            votes: VoteSet::singleton_for_scale(member, n),
        }
    }

    /// Reassemble from a value and its contributor set (wire codec).
    ///
    /// # Errors
    ///
    /// Returns [`DoubleCount`] when the pair is inconsistent (a
    /// non-empty contributor set without a value, or a value without
    /// contributors) — reusing the crate's error type as "invalid vote
    /// accounting".
    pub fn from_parts(agg: Option<A>, votes: crate::VoteSet) -> Result<Self, DoubleCount> {
        if agg.is_none() != votes.is_empty() {
            return Err(DoubleCount);
        }
        Ok(Tagged { agg, votes })
    }

    /// The composed aggregate value, or `None` if no votes are included.
    pub fn aggregate(&self) -> Option<&A> {
        self.agg.as_ref()
    }

    /// The contributing members.
    pub fn votes(&self) -> &VoteSet {
        &self.votes
    }

    /// Number of votes included.
    pub fn vote_count(&self) -> usize {
        self.votes.len()
    }

    /// The paper's *completeness*: fraction of the `n` group votes
    /// included in this aggregate.
    pub fn completeness(&self, n: usize) -> f64 {
        self.votes.coverage(n)
    }

    /// Compose with another partial aggregate over a disjoint vote set.
    ///
    /// # Errors
    ///
    /// Returns [`DoubleCount`] (leaving `self` unchanged) if the two
    /// aggregates share any contributing member.
    pub fn try_merge(&mut self, other: &Tagged<A>) -> Result<(), DoubleCount> {
        if !self.votes.is_disjoint(&other.votes) {
            return Err(DoubleCount);
        }
        #[cfg(feature = "strict-invariants")]
        let expected_len = self.votes.len().saturating_add(other.votes.len());
        match (&mut self.agg, &other.agg) {
            (_, None) => {}
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (mine @ None, Some(theirs)) => *mine = Some(theirs.clone()),
        }
        self.votes.union_with(&other.votes);
        crate::strict_assert!(
            self.votes.len() == expected_len,
            "strict-invariants: merged vote accounting lost or duplicated a contributor \
             ({} != {expected_len})",
            self.votes.len()
        );
        crate::strict_assert!(
            self.agg.is_some() || self.votes.is_empty(),
            "strict-invariants: non-empty contributor set without an aggregate value"
        );
        Ok(())
    }

    /// Fold in one member's vote: the same value operations, in the
    /// same order, as `try_merge(&Tagged::from_vote(member, vote, n))`,
    /// without allocating the singleton — one bit test on an exact set,
    /// one increment on a counted one.
    ///
    /// # Errors
    ///
    /// Returns [`DoubleCount`] (leaving `self` unchanged) if an exact
    /// set already contains `member`. A counted set cannot tell and
    /// trusts the caller's structural dedup.
    pub fn try_add_vote(&mut self, member: usize, vote: f64) -> Result<(), DoubleCount> {
        if !self.votes.insert(member) {
            return Err(DoubleCount);
        }
        let theirs = A::from_vote(vote);
        match &mut self.agg {
            Some(mine) => mine.merge(&theirs),
            mine @ None => *mine = Some(theirs),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcs::{Average, Min};

    #[test]
    fn from_vote_and_completeness() {
        let t = Tagged::<Average>::from_vote(3, 12.0, 10);
        assert_eq!(t.vote_count(), 1);
        assert!((t.completeness(10) - 0.1).abs() < 1e-12);
        assert_eq!(t.aggregate().unwrap().summary(), 12.0);
        assert!(t.votes().contains(3));
    }

    #[test]
    fn merge_disjoint_composes() {
        let mut a = Tagged::<Average>::from_vote(0, 10.0, 4);
        let b = Tagged::from_vote(1, 30.0, 4);
        a.try_merge(&b).unwrap();
        assert_eq!(a.aggregate().unwrap().summary(), 20.0);
        assert_eq!(a.vote_count(), 2);
    }

    #[test]
    fn merge_overlapping_rejected_and_unchanged() {
        let mut a = Tagged::<Average>::from_vote(0, 10.0, 4);
        a.try_merge(&Tagged::from_vote(1, 30.0, 4)).unwrap();
        let before = a.clone();
        let overlapping = Tagged::from_vote(1, 99.0, 4);
        assert_eq!(a.try_merge(&overlapping), Err(DoubleCount));
        assert_eq!(a, before, "failed merge must not mutate");
    }

    #[test]
    fn empty_merges_are_identity() {
        let mut a = Tagged::<Min>::empty(4);
        assert!(a.aggregate().is_none());
        a.try_merge(&Tagged::empty(4)).unwrap();
        assert!(a.aggregate().is_none());
        a.try_merge(&Tagged::from_vote(2, 5.0, 4)).unwrap();
        assert_eq!(a.aggregate().unwrap().summary(), 5.0);
        // merging an empty into a non-empty keeps the value
        a.try_merge(&Tagged::empty(4)).unwrap();
        assert_eq!(a.aggregate().unwrap().summary(), 5.0);
        assert_eq!(a.vote_count(), 1);
    }

    #[test]
    fn hierarchical_grouping_matches_flat() {
        // Figure 2: f over {M7,M3,M8}, {M6,M5} then composed equals flat fold.
        let votes = [7.0, 3.0, 8.0, 6.0, 5.0];
        let n = 5;
        let mut left = Tagged::<Average>::from_vote(0, votes[0], n);
        left.try_merge(&Tagged::from_vote(1, votes[1], n)).unwrap();
        left.try_merge(&Tagged::from_vote(2, votes[2], n)).unwrap();
        let mut right = Tagged::<Average>::from_vote(3, votes[3], n);
        right.try_merge(&Tagged::from_vote(4, votes[4], n)).unwrap();
        left.try_merge(&right).unwrap();
        let direct = votes.iter().sum::<f64>() / votes.len() as f64;
        assert!((left.aggregate().unwrap().summary() - direct).abs() < 1e-12);
        assert_eq!(left.completeness(n), 1.0);
    }

    #[test]
    fn add_vote_rejects_a_repeated_member_on_an_exact_set() {
        let mut a = Tagged::<Average>::empty(4);
        a.try_add_vote(0, 10.0).unwrap();
        a.try_add_vote(1, 30.0).unwrap();
        assert_eq!(a.aggregate().unwrap().summary(), 20.0);
        let before = a.clone();
        assert_eq!(a.try_add_vote(1, 99.0), Err(DoubleCount));
        assert_eq!(a, before, "failed fold must not mutate");
        // past the sized capacity the set grows, as a merged singleton would
        a.try_add_vote(200, 20.0).unwrap();
        assert!(a.votes().contains(200));
        assert_eq!(a.vote_count(), 3);
    }

    #[test]
    fn add_vote_on_a_counted_set_adds_one() {
        let mut a =
            Tagged::<Average>::from_parts(Some(Average::from_vote(10.0)), VoteSet::counted(1))
                .unwrap();
        // no identity to dedup by: the caller's structural dedup is trusted
        a.try_add_vote(7, 30.0).unwrap();
        a.try_add_vote(7, 50.0).unwrap();
        assert_eq!(a.vote_count(), 3);
        assert!(!a.votes().is_exact());
        assert_eq!(a.aggregate().unwrap().summary(), 30.0);
    }

    #[test]
    fn double_count_displays() {
        assert!(DoubleCount.to_string().contains("double"));
    }
}
