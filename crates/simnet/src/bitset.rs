//! Fixed-size dense bitsets over `0..n` indices.
//!
//! The struct-of-arrays engine keeps per-member flags (started, active,
//! pending deliveries) and per-member dedup sets (votes seen, keyed by
//! box position) as [`DenseBitSet`]s instead of `BTreeSet<u32>`s:
//! membership tests and inserts are O(1) word operations, iteration is
//! in ascending index order (so it is deterministic and matches what a
//! `BTreeSet<u32>` would produce), and a million members cost 128 KiB per
//! set instead of a pointer-chasing collection.

/// A bitset over dense indices `0..capacity`, iterating in ascending
/// order. Grows on demand; never shrinks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DenseBitSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseBitSet {
    /// An empty set sized for indices `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        DenseBitSet {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// Insert `index`; returns `true` if newly inserted. Grows the
    /// backing store if `index` exceeds the current capacity.
    pub fn insert(&mut self, index: usize) -> bool {
        let word = index / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (index % 64);
        if self.words[word] & bit != 0 {
            false
        } else {
            self.words[word] |= bit;
            self.len += 1;
            true
        }
    }

    /// Remove `index`; returns `true` if it was present.
    pub fn remove(&mut self, index: usize) -> bool {
        let word = index / 64;
        let bit = 1u64 << (index % 64);
        match self.words.get_mut(word) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Whether `index` is in the set.
    pub fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|w| w & (1u64 << (index % 64)) != 0)
    }

    /// Number of set indices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove all indices, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterate set indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    None
                } else {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Iterate the union of `self` and `other` in ascending order,
    /// without materialising a merged set. The event-driven engine uses
    /// this to walk "members with pending work" (active ∪ due-to-start)
    /// in member-id order each round.
    pub fn iter_union<'a>(&'a self, other: &'a DenseBitSet) -> impl Iterator<Item = usize> + 'a {
        let words = self.words.len().max(other.words.len());
        (0..words).flat_map(move |wi| {
            let mut rest = self.words.get(wi).copied().unwrap_or(0)
                | other.words.get(wi).copied().unwrap_or(0);
            std::iter::from_fn(move || {
                if rest == 0 {
                    None
                } else {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

impl FromIterator<usize> for DenseBitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = DenseBitSet::default();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = DenseBitSet::with_capacity(100);
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(64));
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert_eq!(s.len(), 2);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(!s.contains(5));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn grows_on_demand() {
        let mut s = DenseBitSet::with_capacity(1);
        assert!(s.insert(1000));
        assert!(s.contains(1000));
        assert!(!s.remove(5000));
    }

    #[test]
    fn iterates_ascending_like_a_detset() {
        let s: DenseBitSet = [100usize, 1, 64, 2, 63].into_iter().collect();
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![1, 2, 63, 64, 100]);
    }

    #[test]
    fn union_iterates_ascending_across_lengths() {
        let a: DenseBitSet = [1usize, 70, 130].into_iter().collect();
        let b: DenseBitSet = [0usize, 70, 2].into_iter().collect();
        let got: Vec<usize> = a.iter_union(&b).collect();
        assert_eq!(got, vec![0, 1, 2, 70, 130]);
        // asymmetric word lengths work in both directions
        let got: Vec<usize> = b.iter_union(&a).collect();
        assert_eq!(got, vec![0, 1, 2, 70, 130]);
        let empty = DenseBitSet::default();
        assert_eq!(empty.iter_union(&empty).count(), 0);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s: DenseBitSet = [1usize, 2, 3].into_iter().collect();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(s.insert(2));
    }
}
