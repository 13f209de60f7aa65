//! # gridagg-benchmark
//!
//! The one benchmark of this repository: five named workloads, eight
//! end-to-end metrics, and per-layer numbers timed from outside the
//! program. It drives only public functions of the workspace crates.
//! `README.md` next to this package says what each metric means, which
//! layer should move which metric on which workload, and how a later
//! change states a claim against these numbers.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod host;
pub mod layers;
pub mod report;
pub mod set;
pub mod spec;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod verify;
pub mod workloads;

/// Counts allocations and live bytes, but only between
/// [`alloc::start`] and [`alloc::stop`] — around the traced rep.
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
