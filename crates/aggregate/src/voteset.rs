//! Contributor bitsets — the no-double-counting instrument.
//!
//! The paper imposes: "no member vote is counted twice in any global
//! aggregate calculation". [`VoteSet`] tracks exactly which members'
//! votes an aggregate contains, so the simulator can (a) *enforce* the
//! constraint (merging overlapping aggregates is an error) and (b)
//! *measure* completeness ("the percentage of member votes included in a
//! final global aggregate evaluation").
//!
//! This is local instrumentation: the protocol's correctness never
//! depends on shipping the set, and it is never encoded. The wire codec
//! ([`crate::wire`]) serializes the constant-size aggregate value plus
//! the contributor *count*, so a set that crossed a socket is counted
//! and merging it into an exact set degrades the result to counted.
//!
//! # Exact vs counted representation
//!
//! An exact bitset costs `N/8` bytes, and a protocol where every member
//! carries aggregates over member subsets therefore costs `O(N²/8)`
//! bytes of pure instrumentation — at `N = 2^20` that alone rules the
//! scale out. [`VoteSet::for_scale`] switches to a **counted**
//! representation above [`EXACT_TRACK_MAX`]: only the contributor
//! *count* is kept, which is exact as long as every merge is
//! structurally disjoint (deduplicated before merging, as hierarchical
//! gossip, flat gossip, and leader election all do). Protocols that
//! *rely* on [`crate::Tagged::try_merge`] rejecting overlaps to
//! deduplicate (flood, centralized) must keep exact sets and cap their
//! group size accordingly.

/// Largest group size for which [`VoteSet::for_scale`] keeps an exact
/// per-member bitset. Above this, sets are counted, not enumerated.
///
/// The threshold sits exactly at the top of the frozen bench/golden grid
/// (`N = 16384`), so every recorded small-`N` result keeps byte-identical
/// behavior while the scale ladder above it becomes memory-feasible.
pub const EXACT_TRACK_MAX: usize = 16384;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// Exact membership bitmap.
    Exact { words: Vec<u64>, len: usize },
    /// Contributor count only; exact under structurally disjoint merges.
    Counted { count: usize },
}

/// A set of member indices, backed by a compact bit vector — or, above
/// [`EXACT_TRACK_MAX`], by a bare contributor count (see the module
/// docs).
///
/// ```
/// use gridagg_aggregate::VoteSet;
///
/// let mut included = VoteSet::new(100);
/// included.insert(3);
/// included.insert(64);
/// assert!(included.contains(3));
/// assert_eq!(included.len(), 2);
/// assert_eq!(included.coverage(100), 0.02);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteSet {
    repr: Repr,
}

impl Default for VoteSet {
    fn default() -> Self {
        VoteSet::new(0)
    }
}

impl VoteSet {
    /// An empty **exact** set sized for a group of `n` members.
    pub fn new(n: usize) -> Self {
        VoteSet {
            repr: Repr::Exact {
                words: vec![0; n.div_ceil(64)],
                len: 0,
            },
        }
    }

    /// An empty set sized for a group of `n`: exact up to
    /// [`EXACT_TRACK_MAX`], counted above it.
    ///
    /// Only protocols whose merges are structurally disjoint (they
    /// deduplicate contributors *before* merging) may use this; see the
    /// module docs.
    pub fn for_scale(n: usize) -> Self {
        if n <= EXACT_TRACK_MAX {
            VoteSet::new(n)
        } else {
            VoteSet {
                repr: Repr::Counted { count: 0 },
            }
        }
    }

    /// A set containing exactly `member`, sized for a group of `n`
    /// (grows automatically if `member >= n`). Always exact.
    pub fn singleton(member: usize, n: usize) -> Self {
        let mut s = VoteSet::new(n);
        s.insert(member);
        s
    }

    /// A set containing exactly `member`, in the representation
    /// [`VoteSet::for_scale`] picks for `n`.
    pub fn singleton_for_scale(member: usize, n: usize) -> Self {
        if n <= EXACT_TRACK_MAX {
            VoteSet::singleton(member, n)
        } else {
            VoteSet {
                repr: Repr::Counted { count: 1 },
            }
        }
    }

    /// A counted set holding `count` (structurally deduplicated)
    /// contributors. Used by the tagged wire codec; protocol code
    /// reaches counted mode via [`VoteSet::for_scale`] instead.
    pub fn counted(count: usize) -> Self {
        VoteSet {
            repr: Repr::Counted { count },
        }
    }

    /// Whether this set tracks exact per-member identity (as opposed to
    /// a bare contributor count).
    pub fn is_exact(&self) -> bool {
        matches!(self.repr, Repr::Exact { .. })
    }

    /// Insert a member index; returns `true` if newly inserted.
    ///
    /// Grows the backing store if `member` exceeds the current capacity.
    /// A counted set cannot deduplicate: it increments its count and
    /// returns `true` unconditionally, trusting the caller's structural
    /// dedup (see the module docs).
    pub fn insert(&mut self, member: usize) -> bool {
        match &mut self.repr {
            Repr::Exact { words, len } => {
                let word = member / 64;
                if word >= words.len() {
                    words.resize(word + 1, 0);
                }
                let bit = 1u64 << (member % 64);
                if words[word] & bit != 0 {
                    false
                } else {
                    words[word] |= bit;
                    *len += 1;
                    true
                }
            }
            Repr::Counted { count } => {
                *count += 1;
                true
            }
        }
    }

    /// Whether the set contains `member`. Counted sets carry no
    /// identity and always answer `false`; gate on
    /// [`VoteSet::is_exact`] where membership matters.
    pub fn contains(&self, member: usize) -> bool {
        match &self.repr {
            Repr::Exact { words, .. } => words
                .get(member / 64)
                .is_some_and(|w| w & (1u64 << (member % 64)) != 0),
            Repr::Counted { .. } => false,
        }
    }

    /// Number of members in the set.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Exact { len, .. } => *len,
            Repr::Counted { count } => *count,
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this set shares no member with `other`.
    ///
    /// When either side is counted, identity is unavailable and the
    /// disjointness obligation rests on the caller's structural dedup,
    /// so counted pairs report disjoint (see the module docs).
    pub fn is_disjoint(&self, other: &VoteSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Exact { words: a, .. }, Repr::Exact { words: b, .. }) => {
                a.iter().zip(b.iter()).all(|(a, b)| a & b == 0)
            }
            _ => true,
        }
    }

    /// In-place union. The caller is responsible for checking
    /// disjointness first when the no-double-counting constraint applies
    /// (see [`crate::Tagged::try_merge`]). A union involving a counted
    /// side degrades to a counted sum, saturating: a count can arrive
    /// from outside the program.
    pub fn union_with(&mut self, other: &VoteSet) {
        match (&mut self.repr, &other.repr) {
            (Repr::Exact { words, len }, Repr::Exact { words: b, .. }) => {
                if b.len() > words.len() {
                    words.resize(b.len(), 0);
                }
                for (a, b) in words.iter_mut().zip(b.iter()) {
                    *a |= b;
                }
                *len = words.iter().map(|w| w.count_ones() as usize).sum();
            }
            _ => {
                self.repr = Repr::Counted {
                    count: self.len().saturating_add(other.len()),
                };
            }
        }
    }

    /// Iterate over member indices in ascending order. Counted sets
    /// carry no identity and iterate nothing; gate on
    /// [`VoteSet::is_exact`] where enumeration matters.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let words: &[u64] = match &self.repr {
            Repr::Exact { words, .. } => words,
            Repr::Counted { .. } => &[],
        };
        // walk set bits only: the continuous service enumerates every
        // publisher's contributors each epoch, mostly over empty words
        words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    wi * 64 + b
                })
            })
        })
    }

    /// Fraction of a group of `n` members covered by this set.
    pub fn coverage(&self, n: usize) -> f64 {
        if n == 0 {
            1.0
        } else {
            crate::conv::count_to_f64(self.len() as u64) / crate::conv::count_to_f64(n as u64)
        }
    }
}

impl FromIterator<usize> for VoteSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = VoteSet::new(0);
        for m in iter {
            s.insert(m);
        }
        s
    }
}

impl Extend<usize> for VoteSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for m in iter {
            self.insert(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = VoteSet::new(100);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(64));
        assert!(s.contains(5));
        assert!(s.contains(64));
        assert!(!s.contains(6));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn grows_beyond_initial_capacity() {
        let mut s = VoteSet::new(10);
        assert!(s.insert(1000));
        assert!(s.contains(1000));
        assert!(!s.contains(999));
    }

    #[test]
    fn singleton() {
        let s = VoteSet::singleton(7, 64);
        assert_eq!(s.len(), 1);
        assert!(s.contains(7));
    }

    #[test]
    fn disjointness() {
        let a: VoteSet = [1, 2, 3].into_iter().collect();
        let b: VoteSet = [4, 5].into_iter().collect();
        let c: VoteSet = [3, 4].into_iter().collect();
        assert!(a.is_disjoint(&b));
        assert!(b.is_disjoint(&a));
        assert!(!a.is_disjoint(&c));
        assert!(!c.is_disjoint(&b));
    }

    #[test]
    fn disjointness_with_different_lengths() {
        let a: VoteSet = [1].into_iter().collect();
        let b: VoteSet = [1000].into_iter().collect();
        assert!(a.is_disjoint(&b));
        assert!(b.is_disjoint(&a));
    }

    #[test]
    fn union_recounts() {
        let mut a: VoteSet = [1, 2].into_iter().collect();
        let b: VoteSet = [2, 200].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.len(), 3);
        assert!(a.contains(200));
    }

    #[test]
    fn iter_ascending() {
        let s: VoteSet = [100, 1, 64, 2].into_iter().collect();
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![1, 2, 64, 100]);
    }

    #[test]
    fn coverage() {
        let s: VoteSet = (0..25).collect();
        assert!((s.coverage(100) - 0.25).abs() < 1e-12);
        assert_eq!(VoteSet::new(0).coverage(0), 1.0);
    }

    #[test]
    fn empty_set() {
        let s = VoteSet::new(64);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn singleton_grows_past_capacity() {
        let s = VoteSet::singleton(64, 64);
        assert!(s.contains(64));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn for_scale_picks_representation_by_group_size() {
        assert!(VoteSet::for_scale(EXACT_TRACK_MAX).is_exact());
        assert!(!VoteSet::for_scale(EXACT_TRACK_MAX + 1).is_exact());
        assert!(VoteSet::singleton_for_scale(3, 64).is_exact());
        assert!(!VoteSet::singleton_for_scale(3, 1 << 20).is_exact());
    }

    #[test]
    fn small_scale_is_byte_compatible_with_exact() {
        // below the threshold the scale constructors are the plain ones
        assert_eq!(VoteSet::for_scale(1024), VoteSet::new(1024));
        assert_eq!(
            VoteSet::singleton_for_scale(9, 1024),
            VoteSet::singleton(9, 1024)
        );
    }

    #[test]
    fn counted_tracks_counts_exactly() {
        let mut s = VoteSet::for_scale(1 << 20);
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(s.insert(700_000));
        assert_eq!(s.len(), 2);
        let other = VoteSet::counted(3);
        assert!(s.is_disjoint(&other));
        s.union_with(&other);
        assert_eq!(s.len(), 5);
        assert!((s.coverage(10) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counted_has_no_identity() {
        let s = VoteSet::counted(4);
        assert!(!s.is_exact());
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn mixed_union_degrades_to_counted() {
        let mut a: VoteSet = [1, 2].into_iter().collect();
        a.union_with(&VoteSet::counted(2));
        assert!(!a.is_exact());
        assert_eq!(a.len(), 4);
        let mut c = VoteSet::counted(1);
        c.union_with(&VoteSet::singleton(9, 16));
        assert!(!c.is_exact());
        assert_eq!(c.len(), 2);
        // a forged count saturates instead of overflowing
        c.union_with(&VoteSet::counted(usize::MAX));
        assert_eq!(c.len(), usize::MAX);
    }
}
