//! Hierarchy shape and phase arithmetic.
//!
//! [`Hierarchy`] fixes the two well-known parameters of the Grid Box
//! Hierarchy — the box size constant `K` and the digit count (derived
//! from the group size estimate `N`) — and provides the address
//! arithmetic used by every phase of the aggregation protocols:
//! which prefix is *my* phase-`i` scope, and which child prefixes must be
//! collected to finish the phase.
//!
//! The paper implicitly assumes `N` is a power of `K` (addresses have
//! `log_K N − 1` digits). We generalise: `depth = max(1,
//! round(log_K(N/K)))`, so there are `K^depth ≈ N/K` boxes and the
//! expected occupancy stays `≈ K` for any `N`. For `N = K^d` this equals
//! the paper's `d − 1` digits exactly.

use crate::addr::{Addr, AddrError};

/// Errors from hierarchy construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyError {
    /// `K` must be at least 2 (a base-1 hierarchy has no branching).
    BadK {
        /// The requested K.
        k: u8,
    },
    /// The group must have at least 2 members.
    GroupTooSmall {
        /// The requested size.
        n: usize,
    },
    /// No [`Addr`] can name a box: the depth exceeds
    /// [`crate::addr::MAX_DEPTH`] or `K^depth` its `u32` index.
    TooDeep {
        /// The derived depth.
        depth: usize,
    },
}

impl std::fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierarchyError::BadK { k } => write!(f, "grid box constant K={k} must be >= 2"),
            HierarchyError::GroupTooSmall { n } => {
                write!(f, "group size {n} too small for a hierarchy")
            }
            HierarchyError::TooDeep { depth } => {
                write!(f, "hierarchy depth: {}", AddrError::TooDeep { len: *depth })
            }
        }
    }
}

impl std::error::Error for HierarchyError {}

/// The shape of a Grid Box Hierarchy: base `K` and address depth.
///
/// All members derive the same `Hierarchy` from the well-known `K` and a
/// (possibly approximate) estimate of `N` — the paper notes "an
/// approximate estimate of N at each member usually suffices".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hierarchy {
    k: u8,
    depth: u8,
}

impl Hierarchy {
    /// Derive the hierarchy for a group of (approximately) `n` members
    /// with box constant `k`.
    ///
    /// # Errors
    ///
    /// Returns an error if `k < 2`, `n < 2`, or the derived depth would
    /// exceed the address capacity (see [`HierarchyError::TooDeep`]).
    pub fn for_group(k: u8, n: usize) -> Result<Self, HierarchyError> {
        if k < 2 {
            return Err(HierarchyError::BadK { k });
        }
        if n < 2 {
            return Err(HierarchyError::GroupTooSmall { n });
        }
        let ratio = n as f64 / k as f64;
        let depth = if ratio <= 1.0 {
            1
        } else {
            (ratio.ln() / (k as f64).ln()).round().max(1.0) as usize
        };
        Hierarchy::with_depth(k, depth)
    }

    /// Build a hierarchy with an explicit depth (digit count).
    ///
    /// # Errors
    ///
    /// Returns an error if `k < 2`, `depth == 0`, or the depth exceeds
    /// the address capacity (see [`HierarchyError::TooDeep`]).
    pub fn with_depth(k: u8, depth: usize) -> Result<Self, HierarchyError> {
        if k < 2 {
            return Err(HierarchyError::BadK { k });
        }
        // a box address of this shape must exist
        if depth == 0 || Addr::from_index(k, depth, 0).is_err() {
            return Err(HierarchyError::TooDeep { depth });
        }
        Ok(Hierarchy {
            k,
            depth: depth as u8,
        })
    }

    /// The grid box constant `K` (average members per box, digit base).
    pub fn k(&self) -> u8 {
        self.k
    }

    /// Number of address digits (the paper's `log_K N − 1`).
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Total number of grid boxes, `K^depth`.
    pub fn num_boxes(&self) -> u64 {
        (self.k as u64).pow(self.depth as u32)
    }

    /// Every prefix of this hierarchy in [`Addr::code`] order, from the
    /// root to the last box: the `c`-th is the prefix whose code is `c`,
    /// so a table over prefixes indexes by code, and every prefix comes
    /// before its children.
    pub fn prefixes(&self) -> impl DoubleEndedIterator<Item = Addr> + ExactSizeIterator {
        let (k, last) = (self.k, self.box_at(self.num_boxes() - 1).code());
        (0..last + 1).map(move |code| Addr::from_code(k, code).expect("a code of this hierarchy"))
    }

    /// Number of protocol phases, `depth + 1` (the paper's `log_K N`).
    pub fn phases(&self) -> usize {
        self.depth as usize + 1
    }

    /// The grid box containing unit-interval hash value `u ∈ [0, 1)` —
    /// the paper's `H(M_j) · N/K` written in base K.
    pub fn box_of_unit(&self, u: f64) -> Addr {
        let boxes = self.num_boxes();
        let idx = ((u.clamp(0.0, 1.0)) * boxes as f64) as u64;
        Addr::from_index(self.k, self.depth as usize, idx.min(boxes - 1))
            .expect("depth validated at construction")
    }

    /// The grid box with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_boxes()`.
    pub fn box_at(&self, index: u64) -> Addr {
        Addr::from_index(self.k, self.depth as usize, index).expect("depth validated")
    }

    /// The scope prefix of phase `i` (1-based) for a member in grid box
    /// `addr`: addresses must agree in the most significant
    /// `(log_K N − i)` digits, i.e. the prefix of length `depth + 1 − i`.
    ///
    /// Phase 1 → the member's own grid box; the final phase → the root.
    ///
    /// ```
    /// use gridagg_hierarchy::Hierarchy;
    ///
    /// let h = Hierarchy::for_group(2, 8).unwrap();
    /// let b10 = h.box_at(2); // grid box "10"
    /// assert_eq!(h.scope(&b10, 1).to_string(), "10"); // own box
    /// assert_eq!(h.scope(&b10, 2).to_string(), "1");  // subtree 1*
    /// assert_eq!(h.scope(&b10, 3).to_string(), "*");  // the whole group
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `phase` is 0 or greater than [`Hierarchy::phases`], or if
    /// `addr` is not a full-depth box address of this hierarchy.
    pub fn scope(&self, addr: &Addr, phase: usize) -> Addr {
        assert!(
            (1..=self.phases()).contains(&phase),
            "phase {phase} out of range 1..={}",
            self.phases()
        );
        assert_eq!(addr.len(), self.depth(), "scope of a non-box address");
        addr.prefix(self.depth() + 1 - phase)
    }

    /// Whether two boxes fall in the same phase-`i` scope.
    pub fn same_scope(&self, a: &Addr, b: &Addr, phase: usize) -> bool {
        self.scope(a, phase).contains(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_shape() {
        // N=8, K=2: 4 boxes of 2 digits, 3 phases (Figures 1 and 2).
        let h = Hierarchy::for_group(2, 8).unwrap();
        assert_eq!(h.depth(), 2);
        assert_eq!(h.num_boxes(), 4);
        assert_eq!(h.phases(), 3);
    }

    #[test]
    fn power_of_k_matches_paper_formula() {
        // N = K^d → depth = d - 1... paper: (log_K N - 1) digits.
        for (k, n, digits) in [(2u8, 8usize, 2usize), (2, 16, 3), (4, 256, 3), (4, 64, 2)] {
            let h = Hierarchy::for_group(k, n).unwrap();
            assert_eq!(h.depth(), digits, "K={k} N={n}");
            assert_eq!(h.num_boxes(), (n / k as usize) as u64);
        }
    }

    #[test]
    fn non_power_sizes_keep_occupancy_near_k() {
        for n in [200usize, 300, 500, 1000, 3200] {
            let h = Hierarchy::for_group(4, n).unwrap();
            let occupancy = n as f64 / h.num_boxes() as f64;
            assert!(
                occupancy > 1.0 && occupancy < 16.0,
                "N={n} occupancy {occupancy}"
            );
        }
    }

    #[test]
    fn validation() {
        assert_eq!(
            Hierarchy::for_group(1, 8),
            Err(HierarchyError::BadK { k: 1 })
        );
        assert_eq!(
            Hierarchy::for_group(2, 1),
            Err(HierarchyError::GroupTooSmall { n: 1 })
        );
        assert!(Hierarchy::with_depth(2, 0).is_err());
        assert!(Hierarchy::with_depth(2, 17).is_err());
        assert!(Hierarchy::with_depth(2, 16).is_ok());
    }

    #[test]
    fn box_count_beyond_the_address_capacity_is_an_error() {
        // 255^4 boxes fit an address index, 255^5 and 16^8 = 2^32 do not
        assert!(Hierarchy::with_depth(255, 4).is_ok());
        for (k, depth) in [(255u8, 5usize), (16, 8), (4, 16)] {
            assert_eq!(
                Hierarchy::with_depth(k, depth),
                Err(HierarchyError::TooDeep { depth })
            );
        }
        // for_group derives depth 5 at K = 255 from N = 255^6
        assert_eq!(
            Hierarchy::for_group(255, 255usize.pow(6)),
            Err(HierarchyError::TooDeep { depth: 5 })
        );
        let wide = Hierarchy::with_depth(255, 4).unwrap();
        assert_eq!(wide.box_of_unit(1.0).index(), wide.num_boxes() - 1);
    }

    #[test]
    fn tiny_groups_get_depth_one() {
        let h = Hierarchy::for_group(4, 4).unwrap();
        assert_eq!(h.depth(), 1);
        assert_eq!(h.phases(), 2);
    }

    #[test]
    fn box_of_unit_covers_all_boxes() {
        let h = Hierarchy::for_group(2, 8).unwrap();
        assert_eq!(h.box_of_unit(0.0).to_string(), "00");
        assert_eq!(h.box_of_unit(0.26).to_string(), "01");
        assert_eq!(h.box_of_unit(0.51).to_string(), "10");
        assert_eq!(h.box_of_unit(0.99).to_string(), "11");
        // values at/above 1.0 clamp into the last box
        assert_eq!(h.box_of_unit(1.0).to_string(), "11");
    }

    #[test]
    fn scope_progression_matches_figure_2() {
        let h = Hierarchy::for_group(2, 8).unwrap();
        let b10 = h.box_at(2); // "10"
        assert_eq!(h.scope(&b10, 1).display_depth(2), "10");
        assert_eq!(h.scope(&b10, 2).display_depth(2), "1*");
        assert_eq!(h.scope(&b10, 3).display_depth(2), "**");
    }

    #[test]
    fn same_scope_symmetry() {
        let h = Hierarchy::for_group(2, 8).unwrap();
        let b00 = h.box_at(0);
        let b01 = h.box_at(1);
        let b10 = h.box_at(2);
        assert!(!h.same_scope(&b00, &b01, 1));
        assert!(h.same_scope(&b00, &b01, 2));
        assert!(!h.same_scope(&b00, &b10, 2));
        assert!(h.same_scope(&b00, &b10, 3));
    }

    #[test]
    #[should_panic(expected = "phase 0 out of range")]
    fn scope_phase_zero_panics() {
        let h = Hierarchy::for_group(2, 8).unwrap();
        let b = h.box_at(0);
        let _ = h.scope(&b, 0);
    }

    #[test]
    fn error_display() {
        assert!(Hierarchy::for_group(1, 8)
            .unwrap_err()
            .to_string()
            .contains("K=1"));
        assert!(Hierarchy::for_group(2, 0)
            .unwrap_err()
            .to_string()
            .contains("0"));
    }
}
