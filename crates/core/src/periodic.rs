//! Periodic aggregation — the vocabulary of the paper's §2 extension.
//!
//! "Our discussion considers only one run of the aggregation protocol,
//! but this can be extended to one which periodically calculate\[s\] the
//! global aggregate." The epoch service itself is
//! [`crate::continuous::run_continuous`]; run without churn and without
//! within-epoch recovery it *is* the paper's periodic mode (crashed
//! members stay crashed, each epoch's hierarchy is re-derived over the
//! survivors). This module holds what every epoch shares: how votes
//! evolve between epochs, how a run of epochs ends, and the dense
//! re-indexing of the members that are up.

use gridagg_group::MemberId;
use gridagg_hierarchy::{FairHashPlacement, Hierarchy};
use gridagg_simnet::rng::DetRng;

/// How member votes evolve between epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VoteProcess {
    /// Votes stay fixed (re-evaluation of a static quantity).
    Fixed,
    /// Independent Gaussian random walk per member with the given step
    /// standard deviation.
    RandomWalk {
        /// Per-epoch step standard deviation.
        sigma: f64,
    },
    /// Common additive drift plus individual Gaussian noise — models a
    /// global trend (the wing heating up) with sensor-local variation.
    Drift {
        /// Per-epoch additive trend applied to every vote.
        rate: f64,
        /// Per-epoch individual noise standard deviation.
        noise: f64,
    },
}

impl VoteProcess {
    /// Evolve one vote by one epoch.
    pub fn step(&self, vote: f64, rng: &mut DetRng) -> f64 {
        let gaussian = |rng: &mut DetRng, sigma: f64| {
            let u1 = rng.unit().max(1e-12);
            let u2 = rng.unit();
            sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        match *self {
            VoteProcess::Fixed => vote,
            VoteProcess::RandomWalk { sigma } => vote + gaussian(rng, sigma),
            VoteProcess::Drift { rate, noise } => vote + rate + gaussian(rng, noise),
        }
    }
}

/// How a run of epochs ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeriodicTermination {
    /// All requested epochs ran.
    Completed,
    /// The up-population fell below 2 before `epoch` could run; the
    /// outcome carries fewer epochs than requested.
    GroupCollapsed {
        /// The epoch that could not run.
        epoch: usize,
        /// Survivors remaining at that point (0 or 1).
        survivors: usize,
    },
}

/// Placement over densely reindexed survivors: dense id `j` maps to the
/// original member `survivors[j]`, placed by the epoch's fair hash. The
/// engine indexes protocols densely, so each epoch runs a dense
/// sub-simulation over the members that are up.
#[derive(Debug)]
pub(crate) struct DensePlacement {
    pub(crate) hierarchy: Hierarchy,
    pub(crate) inner: FairHashPlacement,
    pub(crate) survivors: Vec<usize>,
}

impl gridagg_hierarchy::Placement for DensePlacement {
    fn place(&self, id: MemberId) -> gridagg_hierarchy::Addr {
        let orig = self.survivors[id.index()];
        self.inner.place(MemberId(orig as u32))
    }

    fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }
}
