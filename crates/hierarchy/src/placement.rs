//! Member → grid box placement: the "well-known hash function `H`".
//!
//! Paper §6.1: "The easiest way to build the hierarchy … is to use a
//! well-known hash function H that maps the unique group member
//! identifiers randomly into the interval \[0,1\]. A member with identifier
//! `M_j` would then belong to a grid box with address `H(M_j)·N/K`
//! (written in base-K)."
//!
//! Crucially, *any* member can compute *any other* member's box address
//! from its identifier alone — no coordination, no directory. That is what
//! the [`Placement`] trait captures.

use gridagg_simnet::rng::{splitmix64, unit_interval};
use gridagg_simnet::NodeId;

use crate::addr::Addr;
use crate::params::Hierarchy;

/// Maps member identifiers to grid box addresses.
///
/// Implementations must be *pure*: every member evaluating the placement
/// of the same identifier gets the same box (the protocol relies on it).
pub trait Placement: Send + Sync + std::fmt::Debug {
    /// The grid box of member `id`.
    fn place(&self, id: NodeId) -> Addr;

    /// The hierarchy this placement maps into.
    fn hierarchy(&self) -> &Hierarchy;
}

/// The fair random hash placement (`H` fair, not topologically aware).
///
/// Uses SplitMix64 over `(salt, id)`; the paper's fairness assumption —
/// "it maps any given member to each grid box with probability K/N" —
/// holds up to hash quality.
#[derive(Debug, Clone, Copy)]
pub struct FairHashPlacement {
    hierarchy: Hierarchy,
    salt: u64,
}

impl FairHashPlacement {
    /// Create a fair placement. `salt` plays the role of the statically
    /// fixed, well-known choice of `H` (or the per-run `H` "dynamically
    /// specified by a multicast initiating the aggregation protocol").
    pub fn new(hierarchy: Hierarchy, salt: u64) -> Self {
        FairHashPlacement { hierarchy, salt }
    }

    /// The hash value of a member in `[0,1)` (exposed for analysis).
    pub fn unit_hash(&self, id: NodeId) -> f64 {
        unit_interval(splitmix64(
            self.salt ^ splitmix64(0x4861_7368 ^ id.0 as u64),
        ))
    }
}

impl Placement for FairHashPlacement {
    fn place(&self, id: NodeId) -> Addr {
        self.hierarchy.box_of_unit(self.unit_hash(id))
    }

    fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }
}

/// An explicit member → box table, for unit tests and for reproducing the
/// paper's hand-drawn Figure 1/3 assignments.
#[derive(Debug, Clone)]
pub struct ExplicitPlacement {
    hierarchy: Hierarchy,
    boxes: Vec<Addr>,
}

impl ExplicitPlacement {
    /// Create from a dense table indexed by `NodeId`.
    ///
    /// # Panics
    ///
    /// Panics if any address is not a full-depth box address of
    /// `hierarchy`.
    pub fn new(hierarchy: Hierarchy, boxes: Vec<Addr>) -> Self {
        for (i, b) in boxes.iter().enumerate() {
            assert_eq!(
                b.len(),
                hierarchy.depth(),
                "member {i} assigned a non-box address {b}"
            );
            assert_eq!(b.base(), hierarchy.k(), "member {i} address base mismatch");
        }
        ExplicitPlacement { hierarchy, boxes }
    }
}

impl Placement for ExplicitPlacement {
    fn place(&self, id: NodeId) -> Addr {
        self.boxes[id.index()]
    }

    fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::for_group(4, 256).unwrap()
    }

    #[test]
    fn fair_hash_is_pure() {
        let p = FairHashPlacement::new(h(), 42);
        for i in 0..100u32 {
            assert_eq!(p.place(NodeId(i)), p.place(NodeId(i)));
        }
    }

    #[test]
    fn fair_hash_depends_on_salt() {
        let p1 = FairHashPlacement::new(h(), 1);
        let p2 = FairHashPlacement::new(h(), 2);
        let differs = (0..64u32).any(|i| p1.place(NodeId(i)) != p2.place(NodeId(i)));
        assert!(differs);
    }

    #[test]
    fn fair_hash_spreads_roughly_evenly() {
        let hier = h(); // 64 boxes
        let p = FairHashPlacement::new(hier, 7);
        let n = 6400usize; // 100 expected per box
        let mut counts = vec![0usize; hier.num_boxes() as usize];
        for i in 0..n {
            counts[p.place(NodeId(i as u32)).index() as usize] += 1;
        }
        let expected = n / hier.num_boxes() as usize;
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 3 && c < expected * 3,
                "box {b} count {c}, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn fair_hash_full_depth() {
        let p = FairHashPlacement::new(h(), 7);
        let a = p.place(NodeId(0));
        assert_eq!(a.len(), h().depth());
        assert_eq!(a.base(), 4);
    }

    #[test]
    fn explicit_placement_lookup() {
        let hier = Hierarchy::for_group(2, 8).unwrap();
        // Figure 1: M1..M8 (here 0-indexed) in boxes 00,01,10,11
        let table = vec![
            hier.box_at(3), // M1 -> 11 (figure: f(M1) alone in 11's phase-1)
            hier.box_at(2),
            hier.box_at(0),
            hier.box_at(2),
            hier.box_at(1),
            hier.box_at(1),
            hier.box_at(0),
            hier.box_at(0),
        ];
        let p = ExplicitPlacement::new(hier, table);
        assert_eq!(p.place(NodeId(0)).to_string(), "11");
        assert_eq!(p.place(NodeId(7)).to_string(), "00");
    }

    #[test]
    #[should_panic(expected = "non-box address")]
    fn explicit_placement_validates_depth() {
        let hier = Hierarchy::for_group(2, 8).unwrap();
        let short = Addr::from_digits(2, &[1]).unwrap();
        let _ = ExplicitPlacement::new(hier, vec![short]);
    }

    #[test]
    fn unit_hash_in_range() {
        let p = FairHashPlacement::new(h(), 3);
        for i in 0..1000u32 {
            let u = p.unit_hash(NodeId(i));
            assert!((0.0..1.0).contains(&u));
        }
    }
}
