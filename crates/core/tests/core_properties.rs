//! Property-style tests for gridagg-core's structural invariants — the
//! scope index partition, leader-directory nesting, and protocol
//! determinism under randomized shapes — driven by a seeded [`DetRng`]
//! so every case is deterministic and reproducible.

use std::sync::Arc;

use gridagg_core::baselines::{LeaderDirectory, LeaderElectionConfig};
use gridagg_core::scope::ScopeIndex;
use gridagg_group::view::View;
use gridagg_group::MemberId;
use gridagg_hierarchy::{Addr, FairHashPlacement, Hierarchy};
use gridagg_simnet::rng::DetRng;

const CASES: usize = 24;

fn rng_for(label: u64) -> DetRng {
    DetRng::seeded(0xBEEF_0000 ^ label)
}

fn index_for(n: usize, k: u8, salt: u64) -> Arc<ScopeIndex> {
    let h = Hierarchy::for_group(k, n).expect("valid shape");
    ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, salt))
}

/// Every prefix level partitions the membership exactly: the union of
/// sibling subtrees equals the parent, with no overlap.
#[test]
fn scope_index_partitions_at_every_level() {
    let mut rng = rng_for(1);
    for _ in 0..CASES {
        let n = 4 + rng.below(596);
        let k = 2 + rng.below(6) as u8;
        let salt = rng.raw().next_u64();
        let index = index_for(n, k, salt);
        let h = *index.hierarchy();
        for parent in h.prefixes().filter(|p| p.len() < h.depth()) {
            let parent_count = index.count_in(&parent);
            let child_sum: usize = parent.children().map(|c| index.count_in(&c)).sum();
            assert_eq!(parent_count, child_sum, "prefix {parent}");
        }
        let root = Addr::root(h.k()).expect("root");
        assert_eq!(index.count_in(&root), n);
    }
}

/// Every member is in exactly the subtree chain its own box implies.
#[test]
fn members_live_in_their_own_chain() {
    let mut rng = rng_for(2);
    for _ in 0..CASES {
        let n = 4 + rng.below(396);
        let k = 2 + rng.below(4) as u8;
        let salt = rng.raw().next_u64();
        let index = index_for(n, k, salt);
        let h = *index.hierarchy();
        for id in (0..n as u32).step_by(7) {
            let m = MemberId(id);
            let b = index.box_of(m);
            for len in 0..=h.depth() {
                let prefix = b.prefix(len);
                assert!(
                    index.members_in(&prefix).contains(&m),
                    "{m} missing from its own prefix {prefix}"
                );
            }
        }
    }
}

/// Leader committees nest: a committee member of any prefix is a
/// committee member of its own child subtree as well, and committees
/// are drawn from the subtree they lead.
#[test]
fn leader_committees_nest_and_belong() {
    let mut rng = rng_for(3);
    for _ in 0..CASES {
        let n = 8 + rng.below(392);
        let k = 2 + rng.below(4) as u8;
        let committee = 1 + rng.below(3);
        let salt = rng.raw().next_u64();
        let index = index_for(n, k, salt);
        let h = *index.hierarchy();
        let cfg = LeaderElectionConfig {
            committee,
            ..Default::default()
        };
        let dir = LeaderDirectory::build(&index, &cfg);
        for p in h.prefixes() {
            let c = dir.committee(&p);
            let population = index.count_in(&p);
            assert_eq!(c.len(), committee.min(population), "prefix {p}");
            for &m in c {
                assert!(p.contains(&index.box_of(m)));
                if p.len() < h.depth() {
                    let child = index.box_of(m).prefix(p.len() + 1);
                    assert!(
                        dir.is_committee(&child, m),
                        "{m} leads {p} but not its child {child}"
                    );
                }
            }
        }
    }
}

/// Full simulation determinism across arbitrary shapes: identical
/// (config, seed) inputs produce byte-identical outcomes.
#[test]
fn random_shapes_are_deterministic() {
    use gridagg_aggregate::Average;
    use gridagg_core::config::ExperimentConfig;
    use gridagg_core::runner::run_hiergossip;

    let mut rng = rng_for(4);
    for case in 0..8 {
        let n = 8 + rng.below(192);
        let k = 2 + rng.below(6) as u8;
        let ucastl = rng.unit() * 0.7;
        let pf = rng.unit() * 0.01;
        let seed = rng.raw().next_u64() % 1_000_003;

        let mut cfg = ExperimentConfig::paper_defaults()
            .with_n(n)
            .with_ucastl(ucastl);
        cfg.k = k;
        cfg.pf = pf;
        let a = run_hiergossip::<Average>(&cfg, seed);
        let b = run_hiergossip::<Average>(&cfg, seed);
        assert_eq!(a.rounds, b.rounds, "case {case}");
        assert_eq!(a.net.sent, b.net.sent, "case {case}");
        assert_eq!(a.outcomes, b.outcomes, "case {case}");
    }
}
