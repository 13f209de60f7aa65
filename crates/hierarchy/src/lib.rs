//! # gridagg-hierarchy
//!
//! The **Grid Box Hierarchy** of the DSN 2001 paper (§6.1): a technique
//! for imposing an abstract hierarchy on a large process group.
//!
//! The `N` group members are divided into `N/K` *grid boxes* with an
//! average of `K` members per box. Each box carries a base-`K` digit
//! string address; *subtrees of height `i`* contain the boxes whose
//! addresses agree in the most significant `(log_K N − i)` digits. The
//! hierarchy is *abstract*: it exists only as address arithmetic, shared
//! by all members through a well-known hash function and an (approximate)
//! estimate of the group size.
//!
//! * [`addr`] — box addresses and subtree prefixes.
//! * [`params`] — the [`Hierarchy`] shape: `K`, digit
//!   count, phase/scope arithmetic.
//! * [`placement`] — the "well-known hash function `H`": fair random
//!   placement, plus explicit placement for tests.
//! * [`topo`] — the *topologically aware* `H` (Grid Location Scheme
//!   adaptation): recursive equal-count splits of a 2-D field, so nearby
//!   members share grid boxes.
//!
//! # Example: the paper's Figure 1
//!
//! Eight members, `K = 2`, four grid boxes `00 01 10 11`:
//!
//! ```
//! use gridagg_hierarchy::Hierarchy;
//!
//! let h = Hierarchy::for_group(2, 8).unwrap();
//! assert_eq!(h.depth(), 2);        // two address digits
//! assert_eq!(h.num_boxes(), 4);    // 00, 01, 10, 11
//! assert_eq!(h.phases(), 3);       // log_2 8 phases
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub mod addr;
pub mod intern;
pub mod params;
pub mod placement;
pub mod topo;

pub use addr::{Addr, AddrError};
pub use intern::AddrInterner;
pub use params::Hierarchy;
pub use placement::{ExplicitPlacement, FairHashPlacement, Placement, PrefixPlacement};
pub use topo::TopologicalPlacement;
