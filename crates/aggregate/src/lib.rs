//! # gridagg-aggregate
//!
//! *Composable* global aggregate functions, as defined in the paper's
//! introduction: `f` is composable iff for disjoint vote sets `W1`, `W2`
//! there is a known `g` with `f(W1 ∪ W2) = g(f(W1), f(W2))`, and the
//! byte-size of `f`'s output is not much larger than an individual vote.
//!
//! * [`Aggregate`] — the trait capturing `f`/`g`: build from one vote,
//!   [`Aggregate::merge`] two partial results. Implementations:
//!   [`Average`], [`Sum`], [`Count`], [`Min`], [`Max`], [`MeanVar`]
//!   (mean *and* variance via Chan's parallel algorithm),
//!   [`Histogram16`], and [`TopK`].
//! * [`VoteSet`] — a bitset of contributing members. This is *simulation
//!   instrumentation*: it measures completeness exactly and enforces the
//!   paper's **no double counting** constraint. A real deployment ships
//!   only the constant-size aggregate value — see [`wire`], which proves
//!   the constant-size property.
//! * [`Tagged`] — an aggregate value paired with its [`VoteSet`];
//!   [`Tagged::try_merge`] fails rather than count a vote twice.
//!
//! # Example
//!
//! ```
//! use gridagg_aggregate::{Aggregate, Average, Tagged};
//!
//! // f(v1..v4) = average, computed hierarchically: g(f(W1), f(W2))
//! let mut left = Tagged::<Average>::from_vote(0, 10.0, 4);
//! left.try_merge(&Tagged::from_vote(1, 20.0, 4))?;
//! let mut right = Tagged::<Average>::from_vote(2, 30.0, 4);
//! right.try_merge(&Tagged::from_vote(3, 40.0, 4))?;
//! left.try_merge(&right)?;
//! assert_eq!(left.aggregate().unwrap().summary(), 25.0);
//! assert_eq!(left.completeness(4), 1.0);
//! # Ok::<(), gridagg_aggregate::DoubleCount>(())
//! ```

#![warn(missing_docs)]
// Aggregate math converts between floats and integers only through the
// audited helpers in `conv` (each an `#[expect]` with its precondition).
// Test code casts loop indices to votes freely.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]
#![warn(rustdoc::broken_intra_doc_links)]
pub(crate) mod conv;
pub mod funcs;
pub mod tagged;
pub mod voteset;
pub mod wire;

pub use funcs::{All, Any, Average, Count, Histogram16, Max, MeanVar, Min, Sum, TopK};
pub use tagged::{DoubleCount, Tagged};
pub use voteset::{VoteSet, EXACT_TRACK_MAX};

/// Assert an internal protocol invariant when the `strict-invariants`
/// feature is enabled; compiles to nothing otherwise.
///
/// The feature is evaluated in the *calling* crate, so downstream crates
/// (e.g. `gridagg-core`) declare their own `strict-invariants` feature
/// that forwards to this crate's. See DESIGN.md §11.
#[macro_export]
macro_rules! strict_assert {
    ($($arg:tt)*) => {
        #[cfg(feature = "strict-invariants")]
        {
            assert!($($arg)*);
        }
    };
}

/// A composable aggregate function (the paper's `f` with composition `g`).
///
/// Laws (checked by property tests):
/// * **Commutativity**: `a.merge(b)` ≡ `b.merge(a)`.
/// * **Associativity**: merging in any grouping yields the same result.
///
/// Together these make the hierarchical bottom-up evaluation (Figure 2)
/// well-defined regardless of gossip arrival order.
pub trait Aggregate: Clone + std::fmt::Debug + PartialEq + Send + Sync + 'static {
    /// The partial result for a single member vote.
    fn from_vote(vote: f64) -> Self;

    /// Compose with another partial result over a *disjoint* vote set
    /// (the paper's `g`).
    fn merge(&mut self, other: &Self);

    /// The headline scalar of this aggregate (the mean for [`Average`],
    /// the minimum for [`Min`], …) — what an application would act on,
    /// e.g. "trigger a coolant release if this is above a threshold".
    fn summary(&self) -> f64;
}
