//! Shared scope index: who is in which grid box / subtree.
//!
//! Every member of the Grid Box Hierarchy can compute every other
//! member's box address from its identifier (§6.1), so "the set of all
//! members in the same subtree of height i" is derivable locally. Doing
//! that derivation per gossip round would be wasteful in a simulation of
//! thousands of members, so [`ScopeIndex`] precomputes, once per run,
//! the members sorted by box index with per-box offsets. Because a
//! subtree prefix covers a *contiguous* range of box indices, every
//! phase scope is then a contiguous slice — O(1) random gossipee
//! selection, zero per-member memory.

use std::sync::Arc;

use gridagg_group::view::View;
use gridagg_group::MemberId;
use gridagg_hierarchy::{Addr, AddrInterner, Hierarchy, Placement};

/// Immutable, shareable index of the hierarchy population.
#[derive(Debug)]
pub struct ScopeIndex {
    hierarchy: Hierarchy,
    /// members sorted by (box index, member id)
    sorted: Vec<MemberId>,
    /// offsets into `sorted`, one per box, plus a final sentinel
    offsets: Vec<u32>,
    /// box address of each member, indexed by member id
    box_of: Vec<Addr>,
    /// dense ids for the fixed prefix universe (see `hierarchy::intern`)
    interner: AddrInterner,
    /// non-empty children per non-leaf prefix, indexed by interned id
    /// (leaf prefixes share one trailing empty slot)
    children: Vec<Vec<Addr>>,
}

impl ScopeIndex {
    /// Build the index for the members of `view` under `placement`.
    ///
    /// # Panics
    ///
    /// Panics if the view references a member id not representable in
    /// the dense tables (ids must be `< 2^32`).
    pub fn build(view: &View, placement: &dyn Placement) -> Arc<Self> {
        let hierarchy = *placement.hierarchy();
        let n_boxes = hierarchy.num_boxes() as usize;
        let max_id = view.members().iter().map(|m| m.index()).max().unwrap_or(0);
        let mut box_of = vec![hierarchy.box_at(0); max_id + 1];
        let mut counts = vec![0u32; n_boxes];
        for &m in view.members() {
            let b = placement.place(m);
            box_of[m.index()] = b;
            counts[b.index() as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n_boxes + 1);
        let mut acc = 0u32;
        for &c in &counts {
            offsets.push(acc);
            acc += c;
        }
        offsets.push(acc);
        // counting sort by box index; view members are already sorted by
        // id, so each box slice ends up sorted by id.
        let mut cursor = offsets[..n_boxes].to_vec();
        let mut sorted = vec![MemberId(0); view.len()];
        for &m in view.members() {
            let b = box_of[m.index()].index() as usize;
            sorted[cursor[b] as usize] = m;
            cursor[b] += 1;
        }
        let interner = AddrInterner::new(&hierarchy);
        let mut index = ScopeIndex {
            hierarchy,
            sorted,
            offsets,
            box_of,
            interner,
            children: Vec::new(),
        };
        // Precompute non-empty children for every non-leaf prefix (leaf
        // prefixes have no children; they all alias the final empty Vec
        // so `nonempty_children` stays total over the universe). The
        // first leaf id bounds the non-leaf prefix range.
        let first_leaf = index.interner.intern(&hierarchy.box_at(0)) as usize;
        let mut children = Vec::with_capacity(first_leaf + 1);
        for id in 0..first_leaf {
            let prefix = index.interner.resolve(id as u32);
            children.push(
                prefix
                    .children()
                    .filter(|c| !index.members_in(c).is_empty())
                    .collect(),
            );
        }
        children.push(Vec::new());
        index.children = children;
        Arc::new(index)
    }

    /// The hierarchy this index is built over.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Number of indexed members.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The grid box of a member.
    ///
    /// # Panics
    ///
    /// Panics if the member was not in the indexed view.
    pub fn box_of(&self, id: MemberId) -> Addr {
        self.box_of[id.index()]
    }

    /// The members of the subtree named by `prefix`, as a contiguous
    /// slice sorted by (box, id).
    pub fn members_in(&self, prefix: &Addr) -> &[MemberId] {
        let (lo, hi) = self.boxes_in(prefix);
        &self.sorted[self.offsets[lo] as usize..self.offsets[hi] as usize]
    }

    /// The box indices `prefix` covers, as a half-open range.
    fn boxes_in(&self, prefix: &Addr) -> (usize, usize) {
        let span = self.hierarchy.depth() - prefix.len();
        let width = (self.hierarchy.k() as u64).pow(span as u32);
        let lo = prefix.index() * width;
        (lo as usize, (lo + width) as usize)
    }

    /// Number of members in the subtree named by `prefix`.
    pub fn count_in(&self, prefix: &Addr) -> usize {
        self.members_in(prefix).len()
    }

    /// Position of `id` within [`ScopeIndex::members_in`] of `prefix`,
    /// or `None` if it is not there.
    pub fn position_in(&self, prefix: &Addr, id: MemberId) -> Option<usize> {
        let home = *self.box_of.get(id.index())?;
        if !prefix.contains(&home) {
            return None;
        }
        // `prefix`'s slice is its boxes' slices in index order, each
        // sorted by id: the boxes before `id`'s, then its place in its own
        let home = home.index() as usize;
        let (start, end) = (self.offsets[home] as usize, self.offsets[home + 1] as usize);
        let in_box = self.sorted[start..end].binary_search(&id).ok()?;
        Some(start - self.offsets[self.boxes_in(prefix).0] as usize + in_box)
    }

    /// The dense id table for this hierarchy's prefix universe.
    pub fn interner(&self) -> &AddrInterner {
        &self.interner
    }

    /// The non-empty children of `prefix` (subtrees that actually have
    /// members — a box can be empty under a random hash). Precomputed
    /// once per run; leaf prefixes return the empty slice.
    pub fn nonempty_children(&self, prefix: &Addr) -> &[Addr] {
        let id = self.interner.intern(prefix) as usize;
        &self.children[id.min(self.children.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridagg_hierarchy::FairHashPlacement;

    fn index(n: usize, k: u8) -> Arc<ScopeIndex> {
        let h = Hierarchy::for_group(k, n).unwrap();
        let placement = FairHashPlacement::new(h, 42);
        ScopeIndex::build(&View::complete(n), &placement)
    }

    #[test]
    fn all_members_indexed_once() {
        let idx = index(200, 4);
        assert_eq!(idx.len(), 200);
        let root = Addr::root(4).unwrap();
        let all = idx.members_in(&root);
        assert_eq!(all.len(), 200);
        let mut ids: Vec<u32> = all.iter().map(|m| m.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
    }

    #[test]
    fn box_slices_match_box_of() {
        let idx = index(200, 4);
        let h = *idx.hierarchy();
        let mut total = 0;
        for b in 0..h.num_boxes() {
            let addr = h.box_at(b);
            let members = idx.members_in(&addr);
            total += members.len();
            for &m in members {
                assert_eq!(idx.box_of(m), addr);
            }
        }
        assert_eq!(total, 200);
    }

    #[test]
    fn prefix_slices_nest() {
        let idx = index(256, 4);
        let h = *idx.hierarchy();
        let root = Addr::root(4).unwrap();
        for child in root.children() {
            let child_count: usize = child.children().map(|g| idx.count_in(&g)).sum();
            // child of root covers its own children exactly (recursively
            // when depth > 2 this checks one level)
            if h.depth() >= 2 {
                assert_eq!(idx.count_in(&child), child_count);
            }
        }
    }

    #[test]
    fn position_in_finds_every_member() {
        let idx = index(100, 4);
        let root = Addr::root(4).unwrap();
        let slice = idx.members_in(&root);
        for (pos, &m) in slice.iter().enumerate() {
            assert_eq!(idx.position_in(&root, m), Some(pos));
            // also within its own box
            let b = idx.box_of(m);
            assert!(idx.position_in(&b, m).is_some());
        }
    }

    #[test]
    fn position_in_agrees_with_a_linear_scan_for_every_member_and_prefix() {
        let idx = index(200, 4);
        let universe = idx.interner();
        for prefix in (0..universe.len() as u32).map(|id| universe.resolve(id)) {
            let slice = idx.members_in(&prefix);
            for m in (0..200).map(MemberId) {
                let scan = slice.iter().position(|&x| x == m);
                assert_eq!(idx.position_in(&prefix, m), scan, "{m:?} in {prefix}");
                assert_eq!(scan.is_some(), prefix.contains(&idx.box_of(m)));
            }
        }
    }

    #[test]
    fn position_in_absent_member() {
        let idx = index(10, 2);
        let h = *idx.hierarchy();
        // find a box that does not contain member 0
        let b0 = idx.box_of(MemberId(0));
        for b in 0..h.num_boxes() {
            let addr = h.box_at(b);
            if addr != b0 {
                assert_eq!(idx.position_in(&addr, MemberId(0)), None);
            }
        }
        // an id past the last indexed member is in no prefix
        for id in [idx.len(), idx.len() + 1, u32::MAX as usize] {
            let id = MemberId(id as u32);
            assert_eq!(idx.position_in(&b0, id), None);
            assert_eq!(idx.position_in(&Addr::root(2).unwrap(), id), None);
        }
    }

    #[test]
    fn nonempty_children_skips_empty_boxes() {
        // tiny group, many boxes → some empty
        let h = Hierarchy::with_depth(4, 3).unwrap(); // 64 boxes
        let placement = FairHashPlacement::new(h, 1);
        let idx = ScopeIndex::build(&View::complete(10), &placement);
        let root = Addr::root(4).unwrap();
        let kids = idx.nonempty_children(&root);
        assert!(!kids.is_empty());
        for k in kids {
            assert!(idx.count_in(k) > 0);
        }
    }

    #[test]
    fn partial_view_indexes_subset() {
        let h = Hierarchy::for_group(4, 100).unwrap();
        let placement = FairHashPlacement::new(h, 42);
        let view = View::from_members((0..50u32).map(MemberId).collect());
        let idx = ScopeIndex::build(&view, &placement);
        assert_eq!(idx.len(), 50);
    }
}
