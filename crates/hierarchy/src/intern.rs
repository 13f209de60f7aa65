//! Address interning: dense `u32` ids for the fixed prefix universe.
//!
//! Once `K` and the depth are known, the set of addresses a run can ever
//! mention is fixed: every prefix of length `0..=depth`, i.e.
//! `(K^(depth+1) − 1)/(K − 1)` addresses in total. That universe is
//! small (5 461 prefixes at `K = 4`, `depth = 6` — the `N = 16384`
//! grid), so an [`Addr`] can be replaced by a dense `u32` id and every
//! `BTreeMap<Addr, _>` on the per-round hot path by a flat vector
//! lookup.
//!
//! The id order is **exactly** the `Ord` order of [`Addr`] (length
//! first, then the numeric index, which is the digits' lexicographic
//! order).
//! Iterating a dense table in id order therefore visits addresses in
//! the same order a `BTreeMap<Addr, _>` would, which is what keeps the
//! frozen goldens byte-identical after the map → table migration.
//!
//! [`AddrInterner`] is the table, for run-wide structures (one per
//! [`crate::Hierarchy`], e.g. a shared committee directory or a
//! children cache). Per-member state needs no interner: a member only
//! ever stores the children of its own box's proper ancestors
//! ([`Addr::is_proper_prefix_of`]) and the root, `depth·K + 1`
//! addresses it indexes by arithmetic.

use crate::addr::Addr;
use crate::params::Hierarchy;

/// Global `Addr → u32` interning table for one hierarchy's prefix
/// universe (every prefix of length `0..=depth`).
///
/// Ids are assigned in [`Addr`] `Ord` order: the root is 0, then the
/// `K` length-1 prefixes by digit, and so on. `intern` is one add
/// (`offsets[len] + index`) and `resolve` a search of the `depth + 2`
/// offsets — no per-address table is materialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrInterner {
    k: u8,
    depth: u8,
    /// `offsets[len]` = id of the first (all-zero-digit) prefix of
    /// length `len`; one extra entry holds the universe size.
    offsets: Vec<u32>,
}

impl AddrInterner {
    /// Build the interner for `hierarchy`'s prefix universe.
    ///
    /// # Panics
    ///
    /// Panics if the universe exceeds `u32::MAX` addresses (impossible
    /// within [`crate::addr::MAX_DEPTH`] for any `K` the protocols use,
    /// but checked rather than silently truncated).
    pub fn new(hierarchy: &Hierarchy) -> Self {
        let k = hierarchy.k();
        let depth = hierarchy.depth();
        let mut offsets = Vec::with_capacity(depth + 2);
        let mut acc: u64 = 0;
        for len in 0..=depth {
            offsets.push(u32::try_from(acc).expect("prefix universe exceeds u32"));
            acc += (k as u64).pow(len as u32);
        }
        offsets.push(u32::try_from(acc).expect("prefix universe exceeds u32"));
        AddrInterner {
            k,
            depth: depth as u8,
            offsets,
        }
    }

    /// Number of interned addresses (valid ids are `0..len()`).
    pub fn len(&self) -> usize {
        *self.offsets.last().expect("offsets never empty") as usize
    }

    /// Whether the universe is empty (it never is: the root always
    /// interns).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dense id of `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not in this hierarchy's universe (wrong base
    /// or longer than the depth) — interning a foreign address is a
    /// logic error upstream, never data-dependent.
    pub fn intern(&self, addr: &Addr) -> u32 {
        assert_eq!(addr.base(), self.k, "address base does not match hierarchy");
        assert!(
            addr.len() <= self.depth as usize,
            "address longer than hierarchy depth"
        );
        self.offsets[addr.len()] + addr.index() as u32
    }

    /// The address with dense id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= len()`.
    pub fn resolve(&self, id: u32) -> Addr {
        assert!((id as usize) < self.len(), "interned id {id} out of range");
        let len = match self.offsets.binary_search(&id) {
            // `id` is the first prefix of some length; equal offsets
            // cannot occur (every length adds at least one prefix)
            Ok(pos) => pos,
            Err(pos) => pos - 1,
        };
        Addr::from_index(self.k, len, (id - self.offsets[len]) as u64)
            .expect("interned id resolves to a valid address")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interner(k: u8, depth: usize) -> AddrInterner {
        AddrInterner::new(&Hierarchy::with_depth(k, depth).unwrap())
    }

    #[test]
    fn universe_size_is_geometric_sum() {
        assert_eq!(interner(4, 6).len(), (4usize.pow(7) - 1) / 3); // 5461
        assert_eq!(interner(2, 3).len(), 15);
        assert_eq!(interner(3, 1).len(), 4);
    }

    #[test]
    fn intern_resolve_roundtrip_whole_universe() {
        for (k, depth) in [(2u8, 4usize), (4, 3), (3, 2)] {
            let it = interner(k, depth);
            for id in 0..it.len() as u32 {
                let addr = it.resolve(id);
                assert_eq!(it.intern(&addr), id, "k={k} depth={depth} id={id}");
                assert!(addr.len() <= depth);
            }
        }
    }

    #[test]
    fn id_order_equals_addr_ord_order() {
        // the whole point: a dense table in id order iterates exactly
        // like a BTreeMap<Addr, _>
        let it = interner(4, 3);
        let by_id: Vec<Addr> = (0..it.len() as u32).map(|id| it.resolve(id)).collect();
        let mut by_ord = by_id.clone();
        by_ord.sort();
        assert_eq!(by_id, by_ord);
    }

    #[test]
    fn root_is_id_zero() {
        let it = interner(4, 3);
        assert_eq!(it.intern(&Addr::root(4).unwrap()), 0);
        assert!(!it.is_empty());
    }

    #[test]
    #[should_panic(expected = "base does not match")]
    fn foreign_base_panics() {
        interner(4, 3).intern(&Addr::root(2).unwrap());
    }

    #[test]
    #[should_panic(expected = "longer than hierarchy depth")]
    fn too_long_panics() {
        interner(2, 2).intern(&Addr::from_digits(2, &[0, 1, 1]).unwrap());
    }
}
