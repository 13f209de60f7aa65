//! `Timed<HierGossip>` observes a run; it never perturbs it.

use gridagg_aggregate::Average;
use gridagg_benchmark::timed::{GroupTally, RoundSends, Timed};
use gridagg_benchmark::trace::Trace;
use gridagg_benchmark::workloads::sim::{build_stack, config};
use gridagg_core::runner::run_hiergossip;

#[test]
fn timed_run_is_report_identical_to_the_plain_run() {
    let mut cfg = config(256);
    for engine_jobs in [1, 2] {
        cfg.engine_jobs = engine_jobs;
        let seed = 77;
        let plain = run_hiergossip::<Average>(&cfg, seed);
        // the benchmark's own assembly of the stack is the runner's
        let rebuilt = build_stack(&cfg, seed, &mut Trace::off(), |p| p).run();

        let sends = RoundSends::new(cfg.max_rounds());
        let mut trace = Trace::on();
        let mut member = 0;
        let sim = build_stack(&cfg, seed, &mut trace, |p| {
            member += 1;
            Timed::new(p, sends.clone()).sampling(16, member)
        });
        let (timed, protocols) = sim.run_returning();
        let tally = GroupTally::sum(protocols);

        for other in [&rebuilt, &timed] {
            assert_eq!(plain.rounds, other.rounds);
            assert_eq!(plain.net, other.net);
            assert_eq!(plain.outcomes, other.outcomes);
            assert_eq!(plain.protocol_steps, other.protocol_steps);
            assert_eq!(plain.true_value.to_bits(), other.true_value.to_bits());
        }
        // and what it observed adds up to what the engine reports
        assert_eq!(tally.on_round_calls, plain.protocol_steps);
        assert_eq!(sends.totals().iter().sum::<u64>(), plain.net.sent);
        assert!(tally.on_message_calls > 0 && tally.on_message_calls <= plain.net.delivered);
        assert!(!tally.sampled.is_empty());
        assert!(tally.on_message_s > 0.0 && tally.on_round_s > 0.0);
        for name in [
            "group.build",
            "scope.build",
            "hiergossip.init",
            "engine.new",
        ] {
            assert_eq!(
                trace.spans().iter().filter(|s| s.name == name).count(),
                1,
                "{name}"
            );
        }
    }
}
