//! Fixed-size dense bitsets over `0..n` indices.
//!
//! The engine's schedule keeps its two per-member flags (active, not yet
//! started) as [`DenseBitSet`]s instead of `BTreeSet<u32>`s: membership
//! tests and inserts are O(1) word operations, iteration is in ascending
//! index order (so it is deterministic and matches what a `BTreeSet<u32>`
//! would produce), and a million members cost 128 KiB per set instead of
//! a pointer-chasing collection.

/// A bitset over dense indices `0..n`, iterating in ascending order.
/// An index outside `0..n` panics, as a slice index does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseBitSet {
    words: Vec<u64>,
}

impl DenseBitSet {
    /// An empty set sized for indices `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        DenseBitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Insert `index`.
    pub fn insert(&mut self, index: usize) {
        self.words[index / 64] |= 1 << (index % 64);
    }

    /// Remove `index`; returns `true` if it was present.
    pub fn remove(&mut self, index: usize) -> bool {
        let (word, bit) = (&mut self.words[index / 64], 1 << (index % 64));
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// Whether `index` is in the set.
    pub fn contains(&self, index: usize) -> bool {
        self.words[index / 64] & (1 << (index % 64)) != 0
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = DenseBitSet::with_capacity(100);
        s.insert(5);
        s.insert(5);
        s.insert(64);
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(!s.contains(5));
        assert!(s.contains(64));
    }

    #[test]
    fn iterates_ascending_like_a_detset() {
        let mut s = DenseBitSet::with_capacity(101);
        for i in [100usize, 1, 64, 2, 63] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![1, 2, 63, 64, 100]);
    }
}
