//! The five one-shot protocols behind one name table and one dispatch.
//!
//! `figures` (the complexity table, the leader ablation),
//! `run_experiment` and `bench_baseline` all pick a protocol by name
//! and run it at a config and a seed with the baseline's own default
//! parameters; this is the one place that maps a name to its `run_*`
//! call, so a typo is a `None` from [`Protocol::from_name`] and never
//! an `unreachable!` arm.

use gridagg_aggregate::wire::WireAggregate;
use gridagg_core::baselines::{CentralizedConfig, FloodConfig, LeaderElectionConfig};
use gridagg_core::config::ExperimentConfig;
use gridagg_core::runner::{
    run_centralized, run_flatgossip, run_flood, run_hiergossip, run_leader_election,
};
use gridagg_core::RunReport;

/// One of the paper's aggregation protocols (§4–§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Hierarchical Gossiping (§6.3), the paper's contribution.
    HierGossip,
    /// Leader election over the grid box hierarchy (§6.2) with
    /// `committee` leaders per subtree (`K′`; 1 = single leader).
    Leader {
        /// Committee size `K′`.
        committee: usize,
    },
    /// Everyone reports to one well-known leader (§5).
    Centralized,
    /// Fully distributed all-to-all (§4).
    Flood,
    /// Gossip with no hierarchy, the structure-free reference.
    FlatGossip,
}

impl Protocol {
    /// Every protocol, in the complexity table's row order (the single
    /// leader stands for leader election).
    pub const ALL: [Protocol; 5] = [
        Protocol::HierGossip,
        Protocol::Leader { committee: 1 },
        Protocol::Centralized,
        Protocol::Flood,
        Protocol::FlatGossip,
    ];

    /// The name used on command lines, in CSVs and in the baselines.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::HierGossip => "hiergossip",
            Protocol::Leader { .. } => "leader",
            Protocol::Centralized => "centralized",
            Protocol::Flood => "flood",
            Protocol::FlatGossip => "flatgossip",
        }
    }

    /// The protocol called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<Protocol> {
        Protocol::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Run the protocol once at `cfg` and `seed`; the baselines take
    /// their default parameters for a group of `cfg.n`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ExperimentConfig::validate`].
    pub fn run<A: WireAggregate>(self, cfg: &ExperimentConfig, seed: u64) -> RunReport {
        match self {
            Protocol::HierGossip => run_hiergossip::<A>(cfg, seed),
            Protocol::Leader { committee } => {
                let leader = LeaderElectionConfig {
                    committee,
                    ..Default::default()
                };
                run_leader_election::<A>(cfg, leader, seed)
            }
            Protocol::Centralized => {
                run_centralized::<A>(cfg, CentralizedConfig::for_group(cfg.n), seed)
            }
            Protocol::Flood => run_flood::<A>(cfg, FloodConfig::default(), seed),
            Protocol::FlatGossip => run_flatgossip::<A>(cfg, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_typos_are_none() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::from_name(p.name()), Some(p));
        }
        assert_eq!(Protocol::from_name("hiergosip"), None);
    }
}
