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
//! frozen goldens byte-identical after the map → slab migration.
//!
//! Two flavors are provided:
//!
//! * [`AddrInterner`] — the global `Addr → u32` table, for run-wide
//!   structures (one per [`crate::Hierarchy`], e.g. a shared committee
//!   directory or a children cache).
//! * [`AddrSlab`] — a per-member dense store over the *chain-local*
//!   sub-universe: the only addresses a member's protocol state ever
//!   holds are the children of its own ancestors plus the root
//!   (`depth·K + 1` slots). A full-universe slab per member would cost
//!   `O(N·K^depth)` memory; the chain slab is `O(depth·K)` and fits in
//!   a cache line or two.

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

/// A dense per-member store keyed by the member's *chain-local*
/// addresses: the children of its own ancestors, plus the root.
///
/// A member in grid box `b` only ever stores aggregates for addresses
/// `a` with `a.parent().contains(b)` (its phase scopes and their
/// children) and for the root. Those are `depth·K + 1` addresses; slot
/// arithmetic maps them to a flat `Vec<Option<T>>`:
///
/// * root → slot 0,
/// * length-`l` chain address with last digit `d` → `1 + (l−1)·K + d`.
///
/// Slot order equals [`Addr`] `Ord` order over the chain sub-universe
/// (shorter first, then by last digit — the shared ancestor digits tie),
/// so [`AddrSlab::iter`] visits entries exactly as a `BTreeMap<Addr, _>`
/// restricted to the chain would.
#[derive(Debug, Clone)]
pub struct AddrSlab<T> {
    my_box: Addr,
    slots: Vec<Option<T>>,
}

impl<T> AddrSlab<T> {
    /// An empty slab for the member living in grid box `my_box` (a
    /// full-depth address; its base and length fix `K` and the depth).
    pub fn new(my_box: Addr) -> Self {
        let k = my_box.base() as usize;
        let depth = my_box.len();
        let mut slots = Vec::with_capacity(depth * k + 1);
        slots.resize_with(depth * k + 1, || None);
        AddrSlab { my_box, slots }
    }

    /// The slot of `addr`, or `None` when `addr` is outside this
    /// member's chain (different base, too long, or its parent is not
    /// an ancestor of `my_box`). Doubles as the relevance check.
    pub fn slot(&self, addr: &Addr) -> Option<usize> {
        let Some((parent, digit)) = addr.split_last() else {
            return (addr.base() == self.my_box.base()).then_some(0);
        };
        // a prefix contains itself: a child of `my_box` is too long
        (parent.len() < self.my_box.len() && parent.contains(&self.my_box))
            .then(|| 1 + parent.len() * addr.base() as usize + digit as usize)
    }

    /// Borrow the value stored for `addr` (`None` for empty slots *and*
    /// for out-of-chain addresses — absent is absent either way).
    pub fn get(&self, addr: &Addr) -> Option<&T> {
        self.slot(addr).and_then(|s| self.slots[s].as_ref())
    }

    /// The storage for `addr` (`Some(&mut None)` for an empty slot), or
    /// `None` outside the chain: relevance check and lookup in one.
    pub fn entry(&mut self, addr: &Addr) -> Option<&mut Option<T>> {
        self.slot(addr).map(|s| &mut self.slots[s])
    }

    /// Whether a value is stored for `addr`.
    pub fn contains_key(&self, addr: &Addr) -> bool {
        self.get(addr).is_some()
    }

    /// Store `value` for `addr`, returning the previous value if any.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the chain: every insert site guards
    /// with the relevance check first, so an out-of-chain insert is a
    /// protocol logic error, not a recoverable condition.
    pub fn insert(&mut self, addr: Addr, value: T) -> Option<T> {
        match self.entry(&addr) {
            Some(entry) => entry.replace(value),
            None => panic!("AddrSlab: {addr} is outside the chain of {}", self.my_box),
        }
    }

    /// Whether no value is stored.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Iterate stored `(addr, value)` pairs in address (`Ord`) order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &T)> + '_ {
        let k = self.my_box.base() as usize;
        self.slots.iter().enumerate().filter_map(move |(s, v)| {
            let value = v.as_ref()?;
            let addr = if s == 0 {
                self.my_box.prefix(0)
            } else {
                let len = (s - 1) / k + 1;
                let digit = ((s - 1) % k) as u8;
                self.my_box
                    .prefix(len - 1)
                    .child(digit)
                    .expect("chain slot digit < K")
            };
            Some((addr, value))
        })
    }

    /// Iterate stored values in address (`Ord`) order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.slots.iter().filter_map(Option::as_ref)
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

    fn chain_box() -> Addr {
        Addr::from_digits(4, &[2, 1, 3]).unwrap()
    }

    #[test]
    fn slab_covers_exactly_the_chain() {
        let my_box = chain_box();
        let slab: AddrSlab<u32> = AddrSlab::new(my_box);
        // one level deeper than the box: its children are out of chain
        let it = interner(4, 4);
        let mut in_chain = 0;
        for id in 0..it.len() as u32 {
            let addr = it.resolve(id);
            let relevant = addr.is_empty()
                || addr.len() <= my_box.len() && addr.parent().is_some_and(|p| p.contains(&my_box));
            assert_eq!(slab.slot(&addr).is_some(), relevant, "addr {addr}");
            in_chain += usize::from(relevant);
        }
        // root + depth levels of K children each
        assert_eq!(in_chain, 3 * 4 + 1);
        // distinct chain addresses get distinct slots
        let slots: std::collections::BTreeSet<usize> = (0..it.len() as u32)
            .filter_map(|id| slab.slot(&it.resolve(id)))
            .collect();
        assert_eq!(slots.len(), in_chain);
    }

    #[test]
    fn slab_insert_get_replace() {
        let mut slab: AddrSlab<u32> = AddrSlab::new(chain_box());
        let scope = chain_box().prefix(2);
        assert!(slab.is_empty());
        assert_eq!(slab.insert(scope, 7), None);
        assert_eq!(slab.get(&scope), Some(&7));
        assert!(slab.contains_key(&scope));
        assert_eq!(slab.insert(scope, 9), Some(7));
        *slab.entry(&scope).unwrap() = Some(10);
        assert_eq!(slab.get(&scope), Some(&10));
        assert_eq!(slab.entry(&scope.prefix(1)), Some(&mut None));
        assert_eq!(slab.entry(&Addr::from_digits(4, &[3, 0]).unwrap()), None);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn slab_iter_matches_btree_order() {
        use std::collections::BTreeMap;
        let my_box = chain_box();
        let mut slab: AddrSlab<u32> = AddrSlab::new(my_box);
        let mut map: BTreeMap<Addr, u32> = BTreeMap::new();
        // insert every chain address in a scrambled order
        let mut addrs: Vec<Addr> = vec![my_box.prefix(0)];
        for l in 1..=my_box.len() {
            addrs.extend(my_box.prefix(l - 1).children());
        }
        addrs.reverse();
        addrs.swap(0, 5);
        for (i, a) in addrs.iter().enumerate() {
            slab.insert(*a, i as u32);
            map.insert(*a, i as u32);
        }
        let from_slab: Vec<(Addr, u32)> = slab.iter().map(|(a, &v)| (a, v)).collect();
        let from_map: Vec<(Addr, u32)> = map.into_iter().collect();
        assert_eq!(from_slab, from_map, "slab must iterate in Addr Ord order");
        let vals: Vec<u32> = slab.values().copied().collect();
        assert_eq!(vals, from_slab.iter().map(|(_, v)| *v).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "outside the chain")]
    fn slab_insert_out_of_chain_panics() {
        let my_box = chain_box(); // 213
        let mut slab: AddrSlab<u32> = AddrSlab::new(my_box);
        // 30 — its parent 3* does not contain box 213
        slab.insert(Addr::from_digits(4, &[3, 0]).unwrap(), 1);
    }

    #[test]
    fn slab_get_out_of_chain_is_none() {
        let mut slab: AddrSlab<u32> = AddrSlab::new(chain_box());
        // a child of the box itself is past the last slot, not in it
        for too_long in chain_box().children() {
            assert_eq!(slab.slot(&too_long), None);
            assert_eq!(slab.get(&too_long), None);
            assert_eq!(slab.entry(&too_long), None);
            assert!(!slab.contains_key(&too_long));
        }
        assert_eq!(slab.get(&Addr::from_digits(4, &[3, 0]).unwrap()), None);
        assert_eq!(slab.get(&Addr::root(2).unwrap()), None); // foreign base
    }
}
