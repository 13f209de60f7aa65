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
//! bytes of pure instrumentation — 2 KB per member per phase at
//! `N = 16384`, and at `N = 2^20` that alone rules the scale out. The
//! paper's protocol state is constant-size, so the data path should be
//! too: [`VoteSet::for_scale`] returns the **counted** representation
//! at every `N`. Only the contributor *count* is kept, which is exact
//! as long as every merge is structurally disjoint (deduplicated before
//! merging, as hierarchical gossip, flat gossip, and leader election
//! all do), and every result a run reports (completeness, coverage,
//! `upgrade` comparisons) reads the count alone.
//!
//! The selector is the **build**, not the group size: with the
//! `strict-invariants` feature the same constructors keep exact bitmaps
//! up to [`EXACT_TRACK_MAX`], as a shadow that feeds the
//! `is_exact()`-guarded scope-containment and disjointness assertions
//! in those three protocols. CI byte-diffs the two builds' outputs.
//!
//! Protocols that *rely* on rejecting overlaps to deduplicate (flood,
//! centralized: a retransmitted vote must be dropped, and nothing else
//! remembers who was counted) keep exact sets in every build through
//! [`VoteSet::new`] and cap their group size accordingly; their
//! per-vote fold is [`crate::Tagged::try_add_vote`], one bit test.
//!
//! # Layout
//!
//! An exact set is one allocation: a boxed slice whose word 0 is the
//! member count and whose other words are the bitmap. A `VoteSet` is
//! therefore 16 B in either representation (the counted form lives in
//! the boxed slice's niche), and a `Tagged<Average>` 40 B, so a shared
//! `Arc<Tagged<Average>>` fits a 64-B allocator chunk. Growing past the
//! width reallocates to the new width exactly; `union_with` adds what
//! its one pass over the bits sets to the count word.

/// Largest group size for which a `strict-invariants` build keeps the
/// exact shadow bitmap behind [`VoteSet::for_scale`]. Above this — and
/// at every size in a default build — sets are counted, not enumerated.
///
/// The bound sits at the top of the frozen bench/golden grid
/// (`N = 16384`), so the checked build covers every recorded small-`N`
/// result while the scale ladder above it stays memory-feasible.
pub const EXACT_TRACK_MAX: usize = 16384;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// Exact membership in one allocation: word 0 is the member count,
    /// and member `m` is bit `m % 64` of word `1 + m / 64`.
    Exact(Box<[u64]>),
    /// Contributor count only; exact under structurally disjoint merges.
    Counted { count: usize },
}

/// An exact set's storage for `bits` bitmap words, empty.
fn exact_words(bits: usize) -> Box<[u64]> {
    vec![0; 1 + bits].into_boxed_slice()
}

/// Widen `words` (count word included) to `len` words; the new ones
/// are clear.
fn widen(words: &mut Box<[u64]>, len: usize) {
    let mut wider = vec![0; len];
    wider[..words.len()].copy_from_slice(words);
    *words = wider.into_boxed_slice();
}

/// A set of member indices, backed by a compact bit vector — or, from
/// the `*_for_scale` constructors, by a bare contributor count (see the
/// module docs).
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
            repr: Repr::Exact(exact_words(n.div_ceil(64))),
        }
    }

    /// An empty set for a group of `n`: counted at every `n`, except
    /// that a `strict-invariants` build keeps the exact shadow up to
    /// [`EXACT_TRACK_MAX`].
    ///
    /// Only protocols whose merges are structurally disjoint (they
    /// deduplicate contributors *before* merging) may use this; see the
    /// module docs.
    pub fn for_scale(n: usize) -> Self {
        if cfg!(feature = "strict-invariants") && n <= EXACT_TRACK_MAX {
            VoteSet::new(n)
        } else {
            VoteSet::counted(0)
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
        let mut s = VoteSet::for_scale(n);
        s.insert(member);
        s
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
        matches!(self.repr, Repr::Exact(_))
    }

    /// The bitmap words of an exact set, past its count word; none for
    /// a counted set.
    fn bits(&self) -> &[u64] {
        match &self.repr {
            Repr::Exact(words) => &words[1..],
            Repr::Counted { .. } => &[],
        }
    }

    /// Insert a member index; returns `true` if newly inserted.
    ///
    /// Grows the backing store if `member` exceeds the current capacity.
    /// A counted set cannot deduplicate: it increments its count and
    /// returns `true` unconditionally, trusting the caller's structural
    /// dedup (see the module docs).
    pub fn insert(&mut self, member: usize) -> bool {
        match &mut self.repr {
            Repr::Exact(words) => {
                let word = 1 + member / 64;
                if word >= words.len() {
                    widen(words, word + 1);
                }
                let bit = 1u64 << (member % 64);
                if words[word] & bit != 0 {
                    false
                } else {
                    words[word] |= bit;
                    words[0] += 1;
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
        self.bits()
            .get(member / 64)
            .is_some_and(|w| w & (1u64 << (member % 64)) != 0)
    }

    /// Number of members in the set.
    pub fn len(&self) -> usize {
        match &self.repr {
            // a count of members fits the address space they index
            Repr::Exact(words) => usize::try_from(words[0]).unwrap_or(usize::MAX),
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
        let (a, b) = (self.bits(), other.bits());
        a.iter().zip(b).all(|(a, b)| a & b == 0)
    }

    /// Whether every member of `other` is known to be in this set, so
    /// that [`VoteSet::union_with`] would change nothing.
    ///
    /// When either side is counted, identity is unavailable (and a
    /// union would add the counts), so a counted pair never reports a
    /// superset.
    pub fn is_superset(&self, other: &VoteSet) -> bool {
        // equal widths too: a union would grow a shorter `a`
        let (a, b) = (self.bits(), other.bits());
        self.is_exact()
            && other.is_exact()
            && a.len() >= b.len()
            && a.iter().zip(b).all(|(a, b)| b & !a == 0)
    }

    /// How many of this set's members have their bit set in `mask`, a
    /// bitmap of 64-member words (member `m` is bit `m % 64` of word
    /// `m / 64`; past its end the mask is clear): one AND-popcount pass.
    /// `None` for a counted set, which has no identity to filter by.
    pub fn count_in(&self, mask: &[u64]) -> Option<usize> {
        self.is_exact().then(|| {
            self.bits()
                .iter()
                .zip(mask)
                .map(|(w, m)| (w & m).count_ones() as usize)
                .sum()
        })
    }

    /// In-place union. The caller is responsible for checking
    /// disjointness first when the no-double-counting constraint applies
    /// (see [`crate::Tagged::try_merge`]). A union involving a counted
    /// side degrades to a counted sum, saturating: a count can arrive
    /// from outside the program.
    pub fn union_with(&mut self, other: &VoteSet) {
        match (&mut self.repr, &other.repr) {
            (Repr::Exact(words), Repr::Exact(b)) => {
                if b.len() > words.len() {
                    widen(words, b.len());
                }
                // count what this pass adds; no second sweep to recount
                let mut added = 0;
                for (a, b) in words[1..].iter_mut().zip(&b[1..]) {
                    added += u64::from((b & !*a).count_ones());
                    *a |= b;
                }
                words[0] += added;
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
        // walk set bits only: a sparse set is mostly empty words
        self.bits().iter().enumerate().flat_map(|(wi, &w)| {
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
    fn for_scale_picks_representation_by_build_not_group_size() {
        for n in [64, EXACT_TRACK_MAX, 1 << 20] {
            // the strict-invariants build keeps the exact shadow up to
            // EXACT_TRACK_MAX; the default build counts at every n
            let exact = cfg!(feature = "strict-invariants") && n <= EXACT_TRACK_MAX;
            assert_eq!(VoteSet::for_scale(n).is_exact(), exact, "n={n}");
            let one = VoteSet::singleton_for_scale(3, n);
            assert_eq!(one.is_exact(), exact, "n={n}");
            assert_eq!(one.len(), 1);
            assert_eq!(one.contains(3), exact);
        }
    }

    #[test]
    fn union_counts_added_bits_in_one_pass() {
        // (width, inserted members, unioned members): overlapping,
        // disjoint, both length orders, and a set grown by insert past
        // its width before a wider or a narrower union
        let cases: [(usize, &[usize], &[usize]); 8] = [
            (0, &[1, 2, 63, 64], &[2, 64, 65]),
            (0, &[1, 2], &[2, 200]),
            (0, &[1, 2], &[3, 4, 700]),
            (0, &[5, 900], &[5, 6]),
            (0, &[], &[0, 127, 128]),
            (0, &[7], &[]),
            (10, &[3, 1000], &[3, 64, 2000]),
            (10, &[3, 1000], &[2, 3, 70]),
        ];
        for (width, a, b) in cases {
            let mut set = VoteSet::new(width);
            for &m in a {
                set.insert(m);
            }
            assert_eq!(set.len(), a.len(), "{a:?}");
            let other: VoteSet = b.iter().copied().collect();
            set.union_with(&other);
            let mut expect: Vec<usize> = a.iter().chain(b).copied().collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(set.len(), expect.len(), "{a:?} ∪ {b:?}");
            assert_eq!(set.iter().collect::<Vec<_>>(), expect);
        }
    }

    #[test]
    fn superset_means_a_union_changes_nothing() {
        let sets: Vec<VoteSet> = vec![
            VoteSet::new(0),
            VoteSet::new(200),
            [1, 2, 63, 64].into_iter().collect(),
            [2, 64].into_iter().collect(),
            [2, 64, 65].into_iter().collect(),
            [1, 2, 63, 64, 700].into_iter().collect(),
            VoteSet::singleton(2, 1000),
            VoteSet::counted(0),
            VoteSet::counted(3),
        ];
        for a in &sets {
            for b in &sets {
                let mut union = a.clone();
                union.union_with(b);
                // bit for bit: same members, same width, same repr. A
                // counted side never claims it (an empty one would do
                // no harm either way).
                let exact = a.is_exact() && b.is_exact();
                assert_eq!(a.is_superset(b), exact && union == *a, "{a:?} ⊇ {b:?}");
            }
        }
        // exact sides: the members decide, not the order or the width
        let big: VoteSet = [1, 2, 63, 64].into_iter().collect();
        let small: VoteSet = [2, 64].into_iter().collect();
        assert!(big.is_superset(&small) && !small.is_superset(&big));
        assert!(big.is_superset(&big));
        // counted sides: no identity, and a union adds the counts
        assert!(!VoteSet::counted(5).is_superset(&VoteSet::counted(3)));
        assert!(!VoteSet::counted(5).is_superset(&small));
        assert!(!big.is_superset(&VoteSet::counted(1)));
    }

    #[test]
    fn count_in_matches_a_per_member_filter() {
        let mask_of = |members: &[usize], words: usize| {
            let mut mask = vec![0u64; words];
            for &m in members {
                mask[m / 64] |= 1 << (m % 64);
            }
            mask
        };
        let sets: [&[usize]; 4] = [&[], &[0, 5, 63, 64, 130], &[1, 2, 700], &[64, 127, 128]];
        let masks = [
            mask_of(&[], 0),
            mask_of(&[0, 63, 64, 127, 700], 11),
            mask_of(&[1, 2, 5, 128, 130], 3),
        ];
        for members in sets {
            let set: VoteSet = members.iter().copied().collect();
            for mask in &masks {
                let inside =
                    |&&m: &&usize| mask.get(m / 64).is_some_and(|w| w >> (m % 64) & 1 == 1);
                let expect = members.iter().filter(inside).count();
                assert_eq!(set.count_in(mask), Some(expect), "{members:?} in {mask:x?}");
            }
        }
        assert_eq!(VoteSet::counted(3).count_in(&[u64::MAX]), None);
    }

    #[test]
    fn a_set_is_two_words_and_a_tagged_average_five() {
        use std::mem::size_of;
        assert_eq!(size_of::<VoteSet>(), 16);
        assert_eq!(size_of::<crate::Tagged<crate::funcs::Average>>(), 40);
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
