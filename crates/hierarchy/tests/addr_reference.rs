//! The numeric [`Addr`] against a digit-vector reference.
//!
//! `Addr` stores the number its digit string spells; the reference here
//! stores the string and answers every question by slice operations, the
//! way `Addr` itself did before. Exhaustive over every address of up to
//! four digits for `K ∈ {2, 3, 4, 16}`.

use gridagg_hierarchy::{Addr, AddrError, Hierarchy};

const DEPTH: usize = 4;

/// Field order gives the derived `Ord` the old `Addr`'s order: base,
/// then length, then digits lexicographically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Reference {
    base: u8,
    len: usize,
    digits: Vec<u8>,
}

impl Reference {
    fn new(base: u8, digits: &[u8]) -> Self {
        Reference {
            base,
            len: digits.len(),
            digits: digits.to_vec(),
        }
    }

    fn index(&self) -> u64 {
        self.digits
            .iter()
            .fold(0, |acc, &d| acc * self.base as u64 + d as u64)
    }

    fn contains(&self, other: &Reference) -> bool {
        self.base == other.base && other.digits.starts_with(&self.digits)
    }

    fn display_depth(&self, depth: usize) -> String {
        let digit = |d: &u8| char::from_digit(*d as u32, 36).expect("digit below 36");
        let mut s: String = (0..depth)
            .map(|i| self.digits.get(i).map_or('*', digit))
            .collect();
        if depth == 0 {
            s.push('*');
        }
        s
    }

    /// Whether `self` is a proper ancestor of `other`: a shorter prefix
    /// of its digits in the same base.
    fn is_proper_prefix_of(&self, other: &Reference) -> bool {
        self.len < other.len && self.contains(other)
    }
}

/// Every digit string of `0..=DEPTH` digits in `base`, shortest first,
/// then lexicographically — with the `Addr` built from the same digits.
fn universe(base: u8) -> Vec<(Reference, Addr)> {
    let mut all = Vec::new();
    let mut level: Vec<Vec<u8>> = vec![Vec::new()];
    for _ in 0..=DEPTH {
        for digits in &level {
            let addr = Addr::from_digits(base, digits).expect("valid digits");
            all.push((Reference::new(base, digits), addr));
        }
        level = level
            .iter()
            .flat_map(|p| (0..base).map(move |d| [p.as_slice(), &[d]].concat()))
            .collect();
    }
    all
}

/// Every address of at most two digits, and a stride through the rest.
fn probes(all: &[(Reference, Addr)]) -> impl Iterator<Item = &(Reference, Addr)> {
    all.iter()
        .enumerate()
        .filter(|(i, (r, _))| r.len <= 2 || i % 499 == 0)
        .map(|(_, pair)| pair)
}

#[test]
fn every_accessor_agrees_with_the_digit_vector() {
    for base in [2u8, 3, 4, 16] {
        for (r, a) in &universe(base) {
            assert_eq!(a.base(), r.base);
            assert_eq!(a.len(), r.len);
            assert_eq!(a.is_empty(), r.digits.is_empty());
            assert_eq!(a.index(), r.index(), "{r:?}");
            assert_eq!(*a, Addr::from_index(base, r.len, r.index()).unwrap());
            assert_eq!(a.digits().collect::<Vec<_>>(), r.digits, "{r:?}");
            for (i, &d) in r.digits.iter().enumerate() {
                assert_eq!(a.digit(i), d, "{r:?} digit {i}");
            }
            for l in 0..=r.len {
                let prefix = Addr::from_digits(base, &r.digits[..l]).unwrap();
                assert_eq!(a.prefix(l), prefix, "{r:?} prefix {l}");
            }
            let parent = r.digits.split_last().map(|(&last, rest)| {
                let parent = Addr::from_digits(base, rest).unwrap();
                (parent, last)
            });
            assert_eq!(a.split_last(), parent, "{r:?}");
            assert_eq!(a.parent(), parent.map(|(p, _)| p), "{r:?}");
            let children: Vec<Addr> = (0..base)
                .map(|d| Addr::from_digits(base, &[r.digits.as_slice(), &[d]].concat()).unwrap())
                .collect();
            assert_eq!(a.children().collect::<Vec<_>>(), children, "{r:?}");
            assert_eq!(
                a.child(base),
                Err(AddrError::DigitOutOfRange { digit: base, base })
            );
            let plain = if r.digits.is_empty() {
                "*".to_string()
            } else {
                r.display_depth(r.len)
            };
            assert_eq!(a.to_string(), plain);
            for depth in 0..=DEPTH + 1 {
                assert_eq!(a.display_depth(depth), r.display_depth(depth), "{r:?}");
            }
        }
    }
}

#[test]
fn order_and_containment_agree_pairwise() {
    let all: Vec<_> = [2u8, 3, 4, 16].into_iter().flat_map(universe).collect();
    for (ra, a) in probes(&all) {
        for (rb, b) in &all {
            assert_eq!(a.cmp(b), ra.cmp(rb), "{ra:?} vs {rb:?}");
            assert_eq!(a.contains(b), ra.contains(rb), "{ra:?} contains {rb:?}");
            assert_eq!(b.contains(a), rb.contains(ra), "{rb:?} contains {ra:?}");
        }
    }
}

#[test]
fn chain_parents_and_codes_agree() {
    for base in [2u8, 3, 4, 16] {
        let all = universe(base);
        // the last box's code counts every prefix of the hierarchy, and
        // the hierarchy lists them in code order
        let h = Hierarchy::with_depth(base, DEPTH).unwrap();
        assert_eq!(h.box_at(h.num_boxes() - 1).code() as usize + 1, all.len());
        assert!(h.prefixes().eq(all.iter().map(|(_, a)| *a)));
        // the universe is enumerated in the reference's order
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        for (rank, (r, a)) in all.iter().enumerate() {
            assert_eq!(a.code(), rank as u32, "{r:?}");
            assert_eq!(Addr::from_code(base, rank as u32), Ok(*a), "{r:?}");
        }
        let foreign = Addr::root(base + 1).unwrap();
        let boxes: Vec<_> = all.iter().filter(|(r, _)| r.len == DEPTH).collect();
        for mine in boxes.iter().step_by(boxes.len().div_ceil(24)) {
            let (my_ref, my_box) = mine;
            // the chain: the root and the other proper ancestors, each
            // one digit longer than the last
            let chain = all.iter().filter(|(_, a)| a.is_proper_prefix_of(my_box));
            let lens: Vec<usize> = chain.map(|(r, _)| r.len).collect();
            assert_eq!(lens, (0..DEPTH).collect::<Vec<_>>(), "{my_ref:?}");
            for (r, a) in &all {
                let want = r.is_proper_prefix_of(my_ref);
                assert_eq!(a.is_proper_prefix_of(my_box), want, "{r:?} for {my_ref:?}");
            }
            // one digit past the depth: the children of a box — the
            // member's own, and a stride of the others — are too long
            for (r, a) in boxes.iter().step_by(7).chain([mine]) {
                for (d, child) in a.children().enumerate() {
                    let digits = [r.digits.as_slice(), &[d as u8]].concat();
                    let child_ref = Reference::new(base, &digits);
                    assert!(!child_ref.is_proper_prefix_of(my_ref));
                    assert!(!child.is_proper_prefix_of(my_box), "{child_ref:?}");
                    // ... and a box is a proper ancestor of its children
                    let want = my_ref.is_proper_prefix_of(&child_ref);
                    assert_eq!(my_box.is_proper_prefix_of(&child), want, "{child_ref:?}");
                }
            }
            let root = Addr::root(base).unwrap();
            assert!(root.is_proper_prefix_of(my_box));
            assert!(!foreign.is_proper_prefix_of(my_box));
        }
    }
}
