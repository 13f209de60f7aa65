//! One-call runs: protocol + config + seed → [`RunReport`].
//!
//! [`Protocol`] is the one table of the paper's protocols. Its
//! [`Protocol::run`] and [`Protocol::run_traced`] assemble the full
//! stack — group, placement, scope index, lossy network, failure
//! process, protocol instances — and run it to completion. Every
//! harness (examples, figure binaries, tests) runs protocols through it.

use std::sync::Arc;

use gridagg_aggregate::wire::WireAggregate;
use gridagg_group::failure::FailureProcess;
use gridagg_group::membership::MembershipProcess;
use gridagg_group::view::View;
use gridagg_group::{Group, GroupBuilder};
use gridagg_hierarchy::{FairHashPlacement, Hierarchy, TopologicalPlacement};
use gridagg_simnet::loss::{PartitionLoss, Perfect, UniformLoss};
use gridagg_simnet::network::{NetworkConfig, SimNetwork};
use gridagg_simnet::rng::DetRng;
use gridagg_simnet::topology::FieldKind;
use gridagg_simnet::Round;

use crate::baselines::{
    Centralized, CentralizedConfig, FlatGossip, FlatGossipConfig, Flood, FloodConfig,
    LeaderDirectory, LeaderElection, LeaderElectionConfig,
};
use crate::config::ExperimentConfig;
use crate::engine::Simulation;
use crate::hiergossip::HierGossip;
use crate::metrics::RunReport;
use crate::protocol::AggregationProtocol;
use crate::scope::ScopeIndex;
use crate::trace::{NoTrace, RunTrace, TraceSink};

/// Build the group for a config (positions included when the config
/// needs topology awareness).
pub(crate) fn build_group_for(cfg: &ExperimentConfig, seed: u64) -> Group {
    let mut b = GroupBuilder::new(cfg.n).votes(cfg.vote.into()).seed(seed);
    if cfg.topo_aware || cfg.positioned {
        b = b.field(FieldKind::UniformRandom);
    }
    b.build()
}

/// Network configuration for an experiment (loss model, delay, optional
/// positions for distance accounting).
pub(crate) fn network_config_for(
    cfg: &ExperimentConfig,
    positions: Option<Vec<gridagg_simnet::topology::Position>>,
) -> NetworkConfig {
    let mut net_cfg = NetworkConfig::default();
    net_cfg = match cfg.partl {
        Some(partl) => net_cfg.with_loss(
            PartitionLoss::new((cfg.n / 2) as u32, partl, cfg.ucastl)
                .expect("validated probabilities"),
        ),
        None if cfg.ucastl > 0.0 => {
            net_cfg.with_loss(UniformLoss::new(cfg.ucastl).expect("validated probability"))
        }
        None => net_cfg.with_loss(Perfect),
    };
    if let Some(max_delay) = cfg.max_delay {
        net_cfg = net_cfg.with_delay(gridagg_simnet::delay::UniformDelay::new(1, max_delay));
    }
    if let Some(positions) = positions {
        net_cfg = net_cfg.with_positions(positions);
    }
    net_cfg
}

/// Build the scope index (fair hash or topologically aware placement).
fn build_index(cfg: &ExperimentConfig, group: &Group, seed: u64) -> Arc<ScopeIndex> {
    let hierarchy = Hierarchy::for_group(cfg.k, cfg.n_estimate.unwrap_or(cfg.n))
        .expect("validated group size and K");
    let view = View::complete(cfg.n);
    if cfg.topo_aware {
        let positions = group.positions().expect("topo-aware group has positions");
        let placement = TopologicalPlacement::new(hierarchy, &positions);
        ScopeIndex::build(&view, &placement)
    } else {
        let placement = FairHashPlacement::new(hierarchy, seed ^ 0x5A17);
        ScopeIndex::build(&view, &placement)
    }
}

/// Assemble the stack every runner shares: validate the config, build
/// the group, let `members` turn it into the protocol instances and
/// their round cap, and wire them to the configured network and failure
/// process.
fn assemble<A: WireAggregate, P: AggregationProtocol<A>>(
    cfg: &ExperimentConfig,
    seed: u64,
    members: impl FnOnce(&Group) -> (Vec<P>, Round),
) -> Simulation<A, P> {
    cfg.validate().expect("invalid experiment config");
    let group = build_group_for(cfg, seed);
    let (protocols, max_rounds) = members(&group);
    // crash-without-recovery, the paper's §7 model
    let model = MembershipProcess::within_epoch_model(cfg.pf, 0.0);
    Simulation::new(
        SimNetwork::new(network_config_for(cfg, group.positions()), seed),
        protocols,
        FailureProcess::new(model, cfg.n, seed),
        seed,
        group.true_aggregate::<A>().summary(),
        max_rounds,
    )
}

/// One of the paper's aggregation protocols (§4–§6), in the one table
/// every harness runs them from. The baselines take their default
/// parameters for a group of `cfg.n`.
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

    /// Run the protocol once at `cfg` and `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ExperimentConfig::validate`].
    pub fn run<A: WireAggregate>(self, cfg: &ExperimentConfig, seed: u64) -> RunReport {
        self.run_with::<A, _>(cfg, seed, &mut NoTrace)
    }

    /// [`Protocol::run`] with an in-memory [`RunTrace`] recorder
    /// attached. The report is identical to the untraced run's:
    /// tracing observes the run without perturbing it.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ExperimentConfig::validate`].
    pub fn run_traced<A: WireAggregate>(
        self,
        cfg: &ExperimentConfig,
        seed: u64,
    ) -> (RunReport, RunTrace) {
        let mut trace = RunTrace::for_group(cfg.n);
        let report = self.run_with::<A, _>(cfg, seed, &mut trace);
        (report, trace)
    }

    fn run_with<A: WireAggregate, S: TraceSink>(
        self,
        cfg: &ExperimentConfig,
        seed: u64,
        sink: &mut S,
    ) -> RunReport {
        match self {
            Protocol::HierGossip => hiergossip::<A, _>(cfg, seed, |p| p).run_with(sink),
            Protocol::Leader { committee } => {
                let le_cfg = LeaderElectionConfig {
                    committee,
                    ..Default::default()
                };
                leader::<A>(cfg, le_cfg, seed).run_with(sink)
            }
            Protocol::Centralized => {
                centralized::<A>(cfg, CentralizedConfig::for_group(cfg.n), seed).run_with(sink)
            }
            Protocol::Flood => flood::<A>(cfg, FloodConfig::default(), seed).run_with(sink),
            Protocol::FlatGossip => flatgossip::<A>(cfg, seed).run_with(sink),
        }
    }
}

/// Run the **Hierarchical Gossiping** protocol (the paper's §6.3
/// contribution) once: [`Protocol::HierGossip`]'s row.
///
/// # Panics
///
/// Panics if `cfg` fails [`ExperimentConfig::validate`].
pub fn run_hiergossip<A: WireAggregate>(cfg: &ExperimentConfig, seed: u64) -> RunReport {
    Protocol::HierGossip.run::<A>(cfg, seed)
}

/// [`Protocol::HierGossip`]'s run with each member's instance handed to
/// `wrap` first: for a harness that watches what members do, such as a
/// wrapper that reads each step's [`Outbox`](crate::protocol::Outbox)
/// before the engine sends it. A wrapper that forwards every call leaves
/// the run, and its report, the row's own.
///
/// # Panics
///
/// Panics if `cfg` fails [`ExperimentConfig::validate`].
pub fn run_hiergossip_wrapped<A: WireAggregate, P: AggregationProtocol<A>>(
    cfg: &ExperimentConfig,
    seed: u64,
    wrap: impl FnMut(HierGossip<A>) -> P,
) -> RunReport {
    hiergossip(cfg, seed, wrap).run()
}

fn hiergossip<A: WireAggregate, P: AggregationProtocol<A>>(
    cfg: &ExperimentConfig,
    seed: u64,
    mut wrap: impl FnMut(HierGossip<A>) -> P,
) -> Simulation<A, P> {
    let sim = assemble(cfg, seed, |group| {
        let index = build_index(cfg, group, seed);
        let mut view_rng = DetRng::seeded(seed).fork(0x7669_6577); // "view"
        let protocols = group
            .members()
            .iter()
            .map(|m| {
                let p = HierGossip::new(m.id, m.vote, index.clone(), cfg.hier_config());
                wrap(match cfg.partial_view {
                    Some(size) => {
                        let view = View::sampled(m.id, cfg.n, size, &mut view_rng);
                        p.with_view(view.members().to_vec())
                    }
                    None => p,
                })
            })
            .collect();
        (protocols, cfg.max_rounds())
    });
    match cfg.start_spread {
        Some(spread) => {
            let mut start_rng = DetRng::seeded(seed).fork(0x7374_6172); // "star"
            let starts = (0..cfg.n)
                .map(|_| start_rng.below(spread.max(1) as usize) as u64)
                .collect();
            sim.with_start_rounds(starts)
        }
        None => sim,
    }
}

/// Run the §4 fully distributed (flood) baseline once; kept for the
/// `benchmark/` package, which calls it ([`Protocol::Flood`] otherwise).
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub fn run_flood<A: WireAggregate>(
    cfg: &ExperimentConfig,
    flood_cfg: FloodConfig,
    seed: u64,
) -> RunReport {
    flood::<A>(cfg, flood_cfg, seed).run()
}

fn flood<A: WireAggregate>(
    cfg: &ExperimentConfig,
    flood_cfg: FloodConfig,
    seed: u64,
) -> Simulation<A, Flood<A>> {
    assemble(cfg, seed, |group| {
        let protocols = group
            .members()
            .iter()
            .map(|m| Flood::new(m.id, m.vote, cfg.n, flood_cfg))
            .collect();
        let sweep = (cfg.n as u64).div_ceil(flood_cfg.per_round.max(1) as u64);
        (protocols, sweep + flood_cfg.grace as u64 + 8)
    })
}

/// Run the §5 centralized-leader baseline once; kept for the
/// `benchmark/` package, which calls it ([`Protocol::Centralized`]
/// otherwise).
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub fn run_centralized<A: WireAggregate>(
    cfg: &ExperimentConfig,
    central_cfg: CentralizedConfig,
    seed: u64,
) -> RunReport {
    centralized::<A>(cfg, central_cfg, seed).run()
}

fn centralized<A: WireAggregate>(
    cfg: &ExperimentConfig,
    central_cfg: CentralizedConfig,
    seed: u64,
) -> Simulation<A, Centralized<A>> {
    assemble(cfg, seed, |group| {
        let protocols = group
            .members()
            .iter()
            .map(|m| Centralized::new(m.id, m.vote, cfg.n, central_cfg))
            .collect();
        (protocols, central_cfg.deadline(cfg.n) + 8)
    })
}

/// Run the §6.2 hierarchical leader-election baseline once; kept for
/// the `benchmark/` package, which calls it ([`Protocol::Leader`]
/// otherwise).
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub fn run_leader_election<A: WireAggregate>(
    cfg: &ExperimentConfig,
    le_cfg: LeaderElectionConfig,
    seed: u64,
) -> RunReport {
    leader::<A>(cfg, le_cfg, seed).run()
}

fn leader<A: WireAggregate>(
    cfg: &ExperimentConfig,
    le_cfg: LeaderElectionConfig,
    seed: u64,
) -> Simulation<A, LeaderElection<A>> {
    assemble(cfg, seed, |group| {
        let index = build_index(cfg, group, seed);
        let directory = LeaderDirectory::build(&index, &le_cfg);
        let protocols: Vec<LeaderElection<A>> = group
            .members()
            .iter()
            .map(|m| LeaderElection::new(m.id, m.vote, index.clone(), directory.clone(), le_cfg))
            .collect();
        let max_rounds = protocols[0].schedule_rounds() + 8;
        (protocols, max_rounds)
    })
}

/// Run the flat-gossip (no hierarchy) ablation once, with the same round
/// budget the hierarchical protocol would get; kept for the `benchmark/`
/// package, which calls it ([`Protocol::FlatGossip`] otherwise).
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub fn run_flatgossip<A: WireAggregate>(cfg: &ExperimentConfig, seed: u64) -> RunReport {
    flatgossip::<A>(cfg, seed).run()
}

fn flatgossip<A: WireAggregate>(cfg: &ExperimentConfig, seed: u64) -> Simulation<A, FlatGossip<A>> {
    assemble(cfg, seed, |group| {
        let hierarchy = Hierarchy::for_group(cfg.k, cfg.n).expect("validated");
        let budget = hierarchy.phases() as u32 * cfg.hier_config().rounds_per_phase(cfg.n);
        let fg_cfg = FlatGossipConfig {
            fanout: cfg.fanout,
            total_rounds: budget,
        };
        let protocols = group
            .members()
            .iter()
            .map(|m| FlatGossip::new(m.id, m.vote, cfg.n, fg_cfg))
            .collect();
        (protocols, budget as u64 + 8)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{ring_chord_neighbors, FlowUpdating, FlowUpdatingConfig};
    use crate::metrics::MemberOutcome;
    use gridagg_aggregate::Average;

    fn perfect(n: usize) -> ExperimentConfig {
        let mut c = ExperimentConfig::default().with_n(n).with_ucastl(0.0);
        c.pf = 0.0;
        c
    }

    #[test]
    fn names_round_trip_and_typos_are_none() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::from_name(p.name()), Some(p));
        }
        assert_eq!(Protocol::from_name("hiergosip"), None);
    }

    // Flat gossip, the structure-free reference, is not expected to
    // complete (see `flatgossip_less_complete_than_hier_at_scale`).
    // Hierarchical gossip has a small residual straggler race even on a
    // perfect network (a member can time a phase out one round before
    // the rescuing reply lands), so it may land a hair below exact.
    #[test]
    fn all_protocols_complete_on_perfect_network() {
        let cfg = perfect(64);
        for p in Protocol::ALL {
            let mc = p.run::<Average>(&cfg, 1).mean_completeness().unwrap();
            match p {
                Protocol::FlatGossip => {}
                Protocol::HierGossip => assert!(mc > 0.99, "hiergossip {mc}"),
                _ => assert_eq!(mc, 1.0, "{}", p.name()),
            }
        }
    }

    #[test]
    fn all_protocols_compute_the_true_average() {
        let cfg = perfect(32);
        for p in Protocol::ALL {
            let bound = match p {
                Protocol::FlatGossip => continue,
                Protocol::HierGossip => 1e-2,
                _ => 1e-12,
            };
            let err = p.run::<Average>(&cfg, 2).mean_value_error().unwrap();
            assert!(err < bound, "{}: error {err}", p.name());
        }
    }

    #[test]
    fn flatgossip_less_complete_than_hier_at_scale() {
        let cfg = ExperimentConfig::default().with_n(400);
        let hier = Protocol::HierGossip.run::<Average>(&cfg, 3);
        let flat = Protocol::FlatGossip.run::<Average>(&cfg, 3);
        assert!(
            hier.mean_completeness() > flat.mean_completeness(),
            "hier {:?} flat {:?}",
            hier.mean_completeness(),
            flat.mean_completeness()
        );
    }

    #[test]
    fn lossy_network_still_mostly_complete() {
        let cfg = ExperimentConfig::default(); // ucastl 0.25, pf 0.001
        let report = run_hiergossip::<Average>(&cfg, 4);
        let mc = report.mean_completeness().unwrap();
        assert!(mc > 0.9, "mean completeness {mc}");
    }

    #[test]
    fn leader_crash_wipes_centralized_run() {
        // With per-round crash probability 0.05 the leader (member 0)
        // dies before dissemination in at least one of a handful of
        // seeded runs, leaving survivors with own-vote-only estimates —
        // §5's single-point-of-failure pathology.
        let mut cfg = perfect(32);
        cfg.pf = 0.05;
        let wiped = (0..8).any(|seed| {
            let report = Protocol::Centralized.run::<Average>(&cfg, seed);
            report.outcomes.iter().any(|o| {
                matches!(o, MemberOutcome::Completed { completeness, .. }
                    if *completeness <= 2.0 / 32.0)
            })
        });
        assert!(wiped, "no run showed the leader-failure pathology");
    }

    /// Tracing perturbs no protocol: a trace-gated block that changed
    /// state or drew from an RNG would move the traced run's counters,
    /// or a member's random stream, off the plain run's. Over every
    /// builder behind [`Protocol::run_with`] and a Flow-Updating epoch,
    /// on a lossy, crashing run.
    #[test]
    fn traced_runner_matches_plain_runner() {
        fn check<P: AggregationProtocol<Average>>(
            name: &str,
            sim: impl Fn() -> Simulation<Average, P>,
        ) {
            let (plain, plain_streams) = sim().run_with_streams(&mut NoTrace);
            let mut trace = RunTrace::for_group(plain.n);
            let (traced, traced_streams) = sim().run_with_streams(&mut trace);
            assert_eq!(plain.rounds, traced.rounds, "{name}: rounds");
            assert_eq!(plain.net, traced.net, "{name}: net");
            assert_eq!(plain.outcomes, traced.outcomes, "{name}: outcomes");
            assert!(
                plain_streams == traced_streams,
                "{name}: a random stream moved"
            );
            assert!(plain.crashed() > 0 && plain.net.dropped_loss > 0);
            assert!(!trace.is_empty(), "{name}: nothing traced");
        }
        let (cfg, s) = (&ExperimentConfig::default().with_n(192).with_pf(0.01), 41);
        let (fl, central) = (FloodConfig::default(), CentralizedConfig::for_group(192));
        let le = LeaderElectionConfig::default();
        check("hiergossip", || hiergossip::<Average, _>(cfg, s, |p| p));
        check("flatgossip", || flatgossip::<Average>(cfg, s));
        check("flood", || flood::<Average>(cfg, fl, s));
        check("centralized", || centralized::<Average>(cfg, central, s));
        check("leader", || leader::<Average>(cfg, le, s));
        check("flowupdate", || {
            assemble(cfg, s, |group| {
                let fu = FlowUpdatingConfig::default();
                let up: Vec<_> = group.members().iter().map(|m| m.id).collect();
                let protocols = group
                    .members()
                    .iter()
                    .enumerate()
                    .map(|(i, m)| {
                        FlowUpdating::new(m.id, m.vote, cfg.n, ring_chord_neighbors(&up, i), fu)
                    })
                    .collect();
                (protocols, Round::from(fu.rounds_per_epoch) + 2)
            })
        });
    }

    /// The `run_*` functions the `benchmark/` package measures run
    /// exactly their table rows at the default baseline configs.
    #[test]
    fn benchmark_wrappers_run_their_table_rows() {
        let (cfg, s) = (&ExperimentConfig::default().with_n(192).with_pf(0.01), 41);
        let wrappers = [
            run_hiergossip::<Average>(cfg, s),
            run_leader_election::<Average>(cfg, LeaderElectionConfig::default(), s),
            run_centralized::<Average>(cfg, CentralizedConfig::for_group(192), s),
            run_flood::<Average>(cfg, FloodConfig::default(), s),
            run_flatgossip::<Average>(cfg, s),
        ];
        for (p, wrapped) in Protocol::ALL.into_iter().zip(wrappers) {
            let row = p.run::<Average>(cfg, s);
            assert_eq!(wrapped.rounds, row.rounds, "{}: rounds", p.name());
            assert_eq!(wrapped.net, row.net, "{}: net", p.name());
            assert_eq!(wrapped.outcomes, row.outcomes, "{}: outcomes", p.name());
        }
    }

    #[test]
    fn topo_aware_run_reduces_long_haul_share() {
        let mut cfg = perfect(256);
        cfg.topo_aware = true;
        let topo = run_hiergossip::<Average>(&cfg, 5);
        assert_eq!(topo.mean_completeness(), Some(1.0));
        let share = topo.net.long_haul_share(4);
        assert!(share < 0.5, "long-haul share {share}");
    }
}
