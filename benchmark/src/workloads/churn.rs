//! `churn-2k`: the continuous aggregation service under churn, once
//! with hiergossip restarted every epoch and once with Flow-Updating.

use std::time::Instant;

use gridagg_aggregate::Average;
use gridagg_core::config::ExperimentConfig;
use gridagg_core::continuous::{
    run_continuous, ContinuousOptions, ContinuousOutcome, ContinuousProtocol,
};
use gridagg_core::periodic::VoteProcess;
use gridagg_core::runner::run_hiergossip;
use gridagg_core::Payload;
use gridagg_group::membership::ChurnModel;

use super::sim::{build_stack, setup_layers, QUICK_N};
use super::{same_as_first, Broken, Run};
use crate::host;
use crate::trace::Trace;
use crate::verify::{check_epoch, Hull};

/// Epochs per driver.
const EPOCHS: usize = 24;

/// Per-epoch standard deviation of the votes' random walk.
const VOTE_SIGMA: f64 = 0.5;

/// Reps done whatever `--seconds` says.
const MIN_REPS: usize = 3;

fn config(quick: bool) -> ExperimentConfig {
    ExperimentConfig::paper_defaults()
        .with_n(if quick { QUICK_N } else { 2048 })
        .with_pf(0.002)
}

fn options(protocol: ContinuousProtocol, n: usize) -> ContinuousOptions {
    let mut opts = ContinuousOptions::new(protocol);
    opts.epochs = EPOCHS;
    // 40 joins an epoch against ~7% of 2048 going down: the group
    // shrinks slowly and never collapses inside 24 epochs
    opts.churn = ChurnModel {
        join_rate: 40.0 * n as f64 / 2048.0,
        leave_prob: 0.02,
        crash_prob: 0.05,
        recover_prob: 0.5,
    };
    opts.votes = VoteProcess::RandomWalk { sigma: VOTE_SIGMA };
    opts.recovery = 0.3;
    opts
}

/// Both drivers' outcomes of one rep.
#[derive(Debug)]
struct Rep {
    setup_s: f64,
    hier_s: f64,
    flow_s: f64,
    hier: ContinuousOutcome,
    flow: ContinuousOutcome,
}

fn rep(cfg: &ExperimentConfig, seed: u64, trace: &mut Trace) -> Rep {
    // set-up: the options, and what the restart driver assembles before
    // each of its epochs, as far as public constructors reach — a fresh
    // hiergossip stack per epoch (only the first is traced)
    let t = Instant::now();
    let hier_opts = options(ContinuousProtocol::HierGossipRestart, cfg.n);
    let flow_opts = options(ContinuousProtocol::FlowUpdating, cfg.n);
    drop(build_stack(cfg, seed, trace, |p| p));
    for epoch in 1..EPOCHS as u64 {
        drop(build_stack(cfg, seed + epoch, &mut Trace::off(), |p| p));
    }
    let setup_s = t.elapsed().as_secs_f64();

    let span = trace.begin("continuous.hier");
    let t = Instant::now();
    let hier = run_continuous(cfg, &hier_opts, seed);
    let hier_s = t.elapsed().as_secs_f64();
    trace.end(span);
    let span = trace.begin("continuous.flow");
    let t = Instant::now();
    let flow = run_continuous(cfg, &flow_opts, seed);
    let flow_s = t.elapsed().as_secs_f64();
    trace.end(span);
    Rep {
        setup_s,
        hier_s,
        flow_s,
        hier,
        flow,
    }
}

/// Sums over both drivers' epochs; same-seed reps must agree on them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Totals {
    epochs: u64,
    members: u64,
    rounds: u64,
    hier_msgs: u64,
    flow_msgs: u64,
    completeness: f64,
}

fn totals(rep: &Rep) -> Totals {
    let mut t = Totals::default();
    for e in &rep.hier.epochs {
        t.hier_msgs += e.messages;
    }
    for e in &rep.flow.epochs {
        t.flow_msgs += e.messages;
    }
    for e in rep.hier.epochs.iter().chain(&rep.flow.epochs) {
        t.epochs += 1;
        t.members += e.up as u64;
        t.rounds += e.rounds;
        t.completeness += e.completeness;
    }
    t
}

fn check(run: &mut Run<'_>, cfg: &ExperimentConfig, rep: &Rep) {
    // votes start inside the config's hull and random-walk out of it
    let drift = 6.0 * VOTE_SIGMA * (EPOCHS as f64).sqrt();
    let hull = Hull::of(cfg).widened(drift);
    for (name, outcome, exact) in [
        ("hiergossip", &rep.hier, true),
        ("flowupdate", &rep.flow, false),
    ] {
        if outcome.collapsed() || outcome.epochs.len() != EPOCHS {
            run.problem(format!(
                "{name} driver ran {} of {EPOCHS} epochs: {:?}",
                outcome.epochs.len(),
                outcome.termination
            ));
        }
        for epoch in &outcome.epochs {
            run.ops.add(check_epoch(epoch, exact, hull));
        }
    }
}

/// Mean wire bytes of one hiergossip message at this size and loss,
/// from an untimed one-shot run: `ChurnEpochReport` counts messages
/// but not bytes.
fn hier_bytes_per_msg(cfg: &ExperimentConfig, seed: u64) -> f64 {
    let report = run_hiergossip::<Average>(cfg, seed);
    report.net.bytes_sent as f64 / report.net.sent as f64
}

/// Wire bytes of one Flow-Updating message: `Payload::Flow` is
/// constant-size.
fn flow_bytes_per_msg() -> f64 {
    let flow: Payload<Average> = Payload::Flow {
        flow: 0.0,
        estimate: 0.0,
        reply: false,
        influenced: Default::default(),
    };
    f64::from(flow.wire_size())
}

/// Run the workload in the mode `run.params` asks for.
pub fn run(run: &mut Run<'_>) -> Result<(), Broken> {
    let cfg = config(run.params.quick);
    let seed = run.params.seed;
    if run.params.traced {
        let plain = rep(&cfg, seed, &mut Trace::off());
        let traced = rep(&cfg, seed, &mut run.trace);
        same_as_first(&mut Some(totals(&plain)), totals(&traced))?;
        check(run, &cfg, &traced);
        let t = totals(&traced);
        let msgs = (t.hier_msgs + t.flow_msgs) as f64;
        run.values([
            ("continuous.hier_s", traced.hier_s),
            ("continuous.flow_s", traced.flow_s),
            ("continuous.msgs_per_epoch", msgs / t.epochs as f64),
            (
                "continuous.ns_per_msg",
                (traced.hier_s + traced.flow_s) * 1e9 / msgs,
            ),
            ("continuous.epochs_run", t.epochs as f64),
        ]);
        setup_layers(run, &cfg);
        return Ok(());
    }

    let (mut setup, mut runs) = (Vec::new(), Vec::new());
    let mut first: Option<Totals> = None;
    while run.another_rep(runs.len(), MIN_REPS) {
        let r = rep(&cfg, seed, &mut Trace::off());
        setup.push(r.setup_s);
        runs.push(r.hier_s + r.flow_s);
        check(run, &cfg, &r);
        same_as_first(&mut first, totals(&r))?;
    }
    let t = first.expect("at least one rep ran");
    let members = t.members as f64;
    run.timed("setup_s", &setup);
    run.timed("run_s", &runs);
    run.value("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    let bytes = t.hier_msgs as f64 * hier_bytes_per_msg(&cfg, seed)
        + t.flow_msgs as f64 * flow_bytes_per_msg();
    run.value("rounds_to_done", t.rounds as f64 / t.epochs as f64);
    run.value(
        "msgs_per_member",
        (t.hier_msgs + t.flow_msgs) as f64 / members,
    );
    run.value("bytes_per_member", bytes / members);
    run.value("completeness", t.completeness / t.epochs as f64);
    run.value("ok_frac", run.ops.ok_frac());
    Ok(())
}
