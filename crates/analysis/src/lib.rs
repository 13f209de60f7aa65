//! # gridagg-analysis
//!
//! The paper's mathematical analysis (§6.3), implemented numerically:
//!
//! * [`special`] — log-gamma and log-binomial helpers.
//! * [`epidemic`] — Bailey's deterministic epidemic model \[1\]: the
//!   logistic decay of the non-infected population under gossip.
//! * [`completeness`] — the per-phase completeness lower bound
//!   `C_i(N, K, b)`, the exact binomial expression for the first-phase
//!   completeness `C_1(N, K, b)` (the paper evaluates it only by
//!   simulation; we compute the sum directly in log space), Postulate 1,
//!   and Theorem 1's `1 − 1/N` bound.
//!
//! These curves are the analytic series in Figures 4, 5, and 11. The
//! schedule's shape has one home each: the phase count is
//! `gridagg_hierarchy::Hierarchy::phases` and the rounds per phase
//! `gridagg_core::HierGossipConfig::rounds_per_phase`.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub mod completeness;
pub mod epidemic;
pub mod special;

pub use completeness::{
    c1, c1_incompleteness, ci_lower_bound, effective_contact_rate, protocol_completeness_bound,
    theorem1_bound,
};
pub use epidemic::{infected_fraction, noninfected};
