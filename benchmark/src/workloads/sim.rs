//! `sim-exact-16k` and `sim-counted-32k`: one one-shot hierarchical
//! gossip run in the simulator, at the two sides of the exact/counted
//! contributor-set threshold.

use std::sync::Arc;
use std::time::Instant;

use gridagg_aggregate::{Aggregate, Average};
use gridagg_core::config::ExperimentConfig;
use gridagg_core::protocol::AggregationProtocol;
use gridagg_core::scope::ScopeIndex;
use gridagg_core::{HierGossip, RunReport, Simulation};
use gridagg_group::failure::{FailureModel, FailureProcess};
use gridagg_group::view::View;
use gridagg_group::GroupBuilder;
use gridagg_hierarchy::{FairHashPlacement, Hierarchy};
use gridagg_simnet::loss::{Perfect, UniformLoss};
use gridagg_simnet::network::{NetworkConfig, SimNetwork};

use super::{Broken, Run};
use crate::timed::{GroupTally, RoundSends, Timed};
use crate::trace::Trace;
use crate::verify::{check_report, Hull};
use crate::{alloc, host, layers};

/// N = 16384 = `EXACT_TRACK_MAX`: the largest group whose contributor
/// sets are exact 2 KB bitmaps.
pub const EXACT_16K: usize = 16_384;

/// N = 32768: contributor sets are 8-byte counts.
pub const COUNTED_32K: usize = 32_768;

/// Group size of every workload under `--quick`.
pub const QUICK_N: usize = 192;

/// Reps done whatever `--seconds` says, so a median exists.
const MIN_REPS: usize = 3;

/// The paper's defaults (K=4, M=2, C=1.0, ucastl 0.25, pf 0.001) at
/// group size `n`, with hiergossip's per-phase instrumentation off and
/// a serial engine.
pub fn config(n: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_defaults().with_n(n);
    cfg.phase_trace = false;
    cfg
}

/// Assemble the hiergossip stack from public constructors, step for
/// step as `runner::build_hiergossip_sim` does for a config with fair
/// hash placement, a complete view and a simultaneous start. `wrap`
/// turns each member's protocol into what the engine will drive.
pub fn build_stack<P>(
    cfg: &ExperimentConfig,
    seed: u64,
    trace: &mut Trace,
    mut wrap: impl FnMut(HierGossip<Average>) -> P,
) -> Simulation<Average, P>
where
    P: AggregationProtocol<Average> + Send,
{
    cfg.validate().expect("the benchmark's configs are valid");
    let span = trace.begin("group.build");
    let group = GroupBuilder::new(cfg.n)
        .votes(cfg.vote.into())
        .seed(seed)
        .build();
    trace.end(span);

    let span = trace.begin("scope.build");
    let index = build_index(cfg.k, cfg.n, seed ^ 0x5A17);
    trace.end(span);

    let span = trace.begin("hiergossip.init");
    let protocols: Vec<P> = group
        .members()
        .iter()
        .map(|m| {
            wrap(HierGossip::new(
                m.id,
                m.vote,
                index.clone(),
                cfg.hier_config(),
            ))
        })
        .collect();
    trace.end(span);

    let span = trace.begin("engine.new");
    let net_cfg = if cfg.ucastl > 0.0 {
        NetworkConfig::default().with_loss(UniformLoss::new(cfg.ucastl).expect("probability"))
    } else {
        NetworkConfig::default().with_loss(Perfect)
    };
    let failure = if cfg.pf > 0.0 {
        FailureModel::PerRound { pf: cfg.pf }
    } else {
        FailureModel::None
    };
    let sim = Simulation::new(
        SimNetwork::new(net_cfg, seed),
        protocols,
        FailureProcess::new(failure, cfg.n, seed),
        seed,
        group.true_aggregate::<Average>().summary(),
        cfg.max_rounds(),
    )
    .with_engine_jobs(cfg.engine_jobs);
    trace.end(span);
    sim
}

/// Hierarchy, fair hash placement and scope index for a complete view
/// of `n` members.
pub fn build_index(k: u8, n: usize, salt: u64) -> Arc<ScopeIndex> {
    let hierarchy = Hierarchy::for_group(k, n).expect("validated group size and K");
    let placement = FairHashPlacement::new(hierarchy, salt);
    ScopeIndex::build(&View::complete(n), &placement)
}

/// One untraced rep: `(setup_s, run_s, report)`.
fn rep(cfg: &ExperimentConfig, seed: u64) -> (f64, f64, RunReport) {
    let t = Instant::now();
    let sim = build_stack(cfg, seed, &mut Trace::off(), |p| p);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = sim.run();
    (setup_s, t.elapsed().as_secs_f64(), report)
}

/// The counters every same-seed rep must reproduce.
fn counters(report: &RunReport) -> [u64; 5] {
    [
        report.rounds,
        report.net.sent,
        report.net.bytes_sent,
        report.net.delivered,
        report.protocol_steps,
    ]
}

fn same_counters(what: &str, a: &RunReport, b: &RunReport) -> Result<(), Broken> {
    if counters(a) == counters(b) && a.outcomes == b.outcomes {
        Ok(())
    } else {
        Err(Broken(format!(
            "{what}: rounds/sent/bytes/delivered/steps {:?} vs {:?}",
            counters(a),
            counters(b)
        )))
    }
}

/// Run the workload at group size `n` in the mode `run.params` asks
/// for.
pub fn run(run: &mut Run<'_>, n: usize) -> Result<(), Broken> {
    let n = if run.params.quick { QUICK_N } else { n };
    let cfg = config(n);
    if run.params.traced {
        traced(run, &cfg)
    } else {
        untraced(run, &cfg)
    }
}

fn untraced(run: &mut Run<'_>, cfg: &ExperimentConfig) -> Result<(), Broken> {
    let hull = Hull::of(cfg);
    let (mut setup, mut runs) = (Vec::new(), Vec::new());
    let mut first: Option<RunReport> = None;
    while run.another_rep(runs.len(), MIN_REPS) {
        let (setup_s, run_s, report) = rep(cfg, run.params.seed);
        setup.push(setup_s);
        runs.push(run_s);
        run.ops.add(check_report(&report, hull));
        match &first {
            Some(first) => same_counters("same-seed reps differ", first, &report)?,
            None => first = Some(report),
        }
    }
    let report = first.expect("at least one rep ran");
    let members = cfg.n as f64;
    run.timed("setup_s", &setup);
    run.timed("run_s", &runs);
    run.value("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    run.value("rounds_to_done", report.rounds as f64);
    run.value("msgs_per_member", report.net.sent as f64 / members);
    run.value("bytes_per_member", report.net.bytes_sent as f64 / members);
    run.value("completeness", report.mean_completeness().unwrap_or(0.0));
    run.value("ok_frac", run.ops.ok_frac());
    Ok(())
}

fn traced(run: &mut Run<'_>, cfg: &ExperimentConfig) -> Result<(), Broken> {
    let seed = run.params.seed;
    let hull = Hull::of(cfg);

    // the untraced side of the comparison: one rep before the traced
    // one and (below) one after, so a slow phase of the host that
    // covers the traced rep covers a neighbour too
    let (_, plain_before_s, plain) = rep(cfg, seed);

    // the traced rep: counting allocator on, every protocol wrapped
    let sends = RoundSends::new(cfg.max_rounds());
    alloc::start();
    let rep_span = run.trace.begin("rep");
    let setup_span = run.trace.begin("setup");
    let sim = build_stack(cfg, seed, &mut run.trace, |p| Timed::new(p, sends.clone()));
    run.trace.end(setup_span);
    let allocs_before_run = alloc::allocs();
    let run_span = run.trace.begin("engine.run");
    let (report, protocols) = sim.run_returning();
    let run_traced_s = run.trace.end(run_span);
    let allocs_in_run = alloc::allocs() - allocs_before_run;
    let peak_heap_bytes = alloc::stop();
    let tally = GroupTally::sum(protocols);
    run.trace.aggregate(
        "hiergossip.on_message",
        run_span,
        tally.on_message_s,
        tally.on_message_calls,
    );
    run.trace.aggregate(
        "hiergossip.on_round",
        run_span,
        tally.on_round_s,
        tally.on_round_calls,
    );
    run.trace.end(rep_span);

    same_counters("the Timed wrapper perturbed the run", &plain, &report)?;
    run.ops.add(check_report(&report, hull));
    let plain_after_s = if run.params.quick {
        plain_before_s
    } else {
        let (_, plain_after_s, after) = rep(cfg, seed);
        same_counters("same-seed reps differ", &plain, &after)?;
        plain_after_s
    };
    let plain_run_s = (plain_before_s + plain_after_s) / 2.0;

    let sends_by_round = sends.totals();
    if sends_by_round.iter().sum::<u64>() != report.net.sent {
        return Err(Broken(format!(
            "the wrapper saw {} sends, the network {}",
            sends_by_round.iter().sum::<u64>(),
            report.net.sent
        )));
    }
    let (send_drain_ns, replay_s) =
        layers::simnet(cfg.n, cfg.ucastl, seed, &sends_by_round, &mut run.trace);
    run.trace.aggregate(
        "simnet.send_drain",
        run_span,
        replay_s,
        report.net.sent + report.rounds,
    );

    let msgs = report.net.sent as f64;
    let self_s = run_traced_s - tally.on_message_s - tally.on_round_s - replay_s;
    run.values([
        ("hiergossip.on_message_s", tally.on_message_s),
        ("hiergossip.on_round_s", tally.on_round_s),
        ("hiergossip.on_message_calls", tally.on_message_calls as f64),
        ("hiergossip.on_round_calls", tally.on_round_calls as f64),
        ("simnet.send_drain_ns_per_msg", send_drain_ns),
        ("simnet.peak_in_flight", report.net.peak_in_flight as f64),
        (
            "simnet.drop_frac",
            report.net.dropped_loss as f64 / msgs.max(1.0),
        ),
        ("engine.run_traced_s", run_traced_s),
        ("engine.self_s", self_s),
        ("engine.self_frac", self_s / run_traced_s),
        ("engine.ns_per_msg", self_s * 1e9 / msgs.max(1.0)),
        (
            "engine.allocs_per_msg",
            allocs_in_run as f64 / msgs.max(1.0),
        ),
        (
            "engine.peak_heap_mb",
            peak_heap_bytes as f64 / (1024.0 * 1024.0),
        ),
        ("engine.protocol_steps", report.protocol_steps as f64),
        (
            "engine.trace_overhead_frac",
            run_traced_s / plain_run_s - 1.0,
        ),
    ]);
    for (name, value) in [
        ("engine.msgs", msgs),
        ("engine.rounds", report.rounds as f64),
        ("engine.allocs_in_run", allocs_in_run as f64),
        ("engine.untraced_run_s", plain_run_s),
    ] {
        run.trace.count(name, value);
    }

    if host::cores() >= 2 {
        let span = run.trace.begin("engine.run_j2");
        let (_, run_j2_s, report_j2) = rep(&cfg.with_engine_jobs(2), seed);
        run.trace.end(span);
        same_counters("engine_jobs=2 changed the run", &plain, &report_j2)?;
        // against the untraced rep next to it in time
        run.value("engine.forkjoin_speedup_j2", plain_after_s / run_j2_s);
    } else {
        run.omit(
            "engine.forkjoin_speedup_j2",
            "host has fewer than 2 cores: no parallelism number from a box that cannot show it",
        );
    }

    setup_layers(run, cfg);
    Ok(())
}

/// Report the set-up and aggregate layers at `cfg.n`: the spans a
/// [`build_stack`] call has left in the run's trace, then the
/// placement and `aggregate` replays.
pub fn setup_layers(run: &mut Run<'_>, cfg: &ExperimentConfig) {
    run.values([
        ("group.build_s", run.trace.busy("group.build")),
        ("scope.build_s", run.trace.busy("scope.build")),
        ("hiergossip.init_s", run.trace.busy("hiergossip.init")),
    ]);
    let values = layers::placement(cfg.n, cfg.k, run.params.seed, &mut run.trace);
    run.values(values);
    let values = layers::aggregate(cfg.n, &mut run.trace);
    run.values(values);
}
