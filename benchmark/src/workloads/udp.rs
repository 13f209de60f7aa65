//! `udp-sat-4k`: hierarchical gossip on real sockets — 4096 members
//! multiplexed over 64 loopback UDP sockets on one worker thread, with
//! round ticks fired back to back. Loopback only; never a real link.

use std::time::{Duration, Instant};

use gridagg_aggregate::{Aggregate, Average};
use gridagg_core::config::ExperimentConfig;
use gridagg_core::hiergossip::HierGossipConfig;
use gridagg_core::runner::run_hiergossip;
use gridagg_runtime::{Cluster, ClusterRun, RuntimeConfig, RuntimeError};

use super::sim::{build_index, build_stack, setup_layers, QUICK_N};
use super::{Broken, Run};
use crate::timed::{GroupTally, RoundSends, Timed};
use crate::trace::Trace;
use crate::verify::{check_cluster, true_average, Hull};
use crate::{host, layers};

/// Group size. At N = 10000 a 5 ms round interval lets
/// `Cluster::join`'s collector deadline (`interval × (max_rounds +
/// linger + 16) + 5 s` ≈ 7.2 s) fire before the run ends; 4096 members
/// finish more than three times inside it.
const N: usize = 4096;

/// Sockets in the pool.
const SOCKETS: usize = 64;

/// Uniform frame loss injected at the socket boundary.
const LOSS: f64 = 0.10;

/// Round interval: far below the 50–75 ms of CPU one round of 4096
/// members costs, so ticks fire back to back and the run's wall-clock
/// is CPU-bound throughput. (At 20–50 ms the same run sleep-polls and
/// takes 2.3–3.9 s with identical counters; at 200 ms it is timer-bound
/// at exactly 4.60 s and measures nothing.)
const ROUND_INTERVAL: Duration = Duration::from_millis(5);

/// Byte cap of one coalesced datagram: the runtime's default, one MTU.
const MAX_DATAGRAM: usize = 1400;

/// Completeness may fall this far below the simulator's at the same
/// size and loss (the `cluster_10k --check` rule).
const SIM_MARGIN: f64 = 0.02;

/// Keep every n-th payload of the reference run for the codec replay.
const SAMPLE_EVERY: u64 = 64;

/// Reps done whatever `--seconds` says.
const MIN_REPS: usize = 3;

fn size(quick: bool) -> (usize, usize) {
    if quick {
        (QUICK_N, 8)
    } else {
        (N, SOCKETS)
    }
}

fn rt_config(seed: u64, sockets: usize, workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        round_interval: ROUND_INTERVAL,
        seed,
        sockets,
        workers,
        max_datagram: MAX_DATAGRAM,
        ..Default::default()
    }
    .with_uniform_loss(LOSS)
}

/// The simulator at the same size and loss, without crashes (the
/// loopback cluster has none).
fn reference_config(n: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_defaults()
        .with_n(n)
        .with_ucastl(LOSS)
        .with_pf(0.0);
    cfg.phase_trace = false;
    cfg
}

/// Member `i` votes `i`, as `cluster_10k` has it.
fn votes(n: usize) -> Vec<f64> {
    (0..n).map(|i| i as f64).collect()
}

/// One cluster run: `(setup_s, run_s, result)`. Set-up is the index
/// build and `Cluster::launch` (pool bind, protocol instances, worker
/// spawn); the run is everything from there to `join` returning.
fn rep(
    n: usize,
    rt_cfg: RuntimeConfig,
    seed: u64,
    trace: &mut Trace,
) -> Result<(f64, f64, ClusterRun<Average>), RuntimeError> {
    let t = Instant::now();
    let span = trace.begin("runtime.index");
    let index = build_index(4, n, seed);
    trace.end(span);
    let span = trace.begin("runtime.launch");
    let cluster = Cluster::launch(votes(n), index, HierGossipConfig::default(), rt_cfg)?;
    trace.end(span);
    let setup_s = t.elapsed().as_secs_f64();
    let span = trace.begin("runtime.join");
    let t = Instant::now();
    let result = cluster.join();
    let run_s = t.elapsed().as_secs_f64();
    trace.end(span);
    Ok((setup_s, run_s, result))
}

/// Check one cluster run: every member reports, nothing fails to
/// decode, completeness keeps up with the simulator, and every
/// estimate keeps the paper's guarantees.
fn check(run: &mut Run<'_>, n: usize, result: &ClusterRun<Average>, sim_completeness: f64) {
    let report = &result.report;
    if report.reported != n {
        run.problem(format!("{} of {n} members reported", report.reported));
    }
    if report.stats.decode_errors != 0 {
        run.problem(format!("{} decode errors", report.stats.decode_errors));
    }
    if report.mean_completeness < sim_completeness - SIM_MARGIN {
        run.problem(format!(
            "completeness {} below the simulator's {sim_completeness} - {SIM_MARGIN}",
            report.mean_completeness
        ));
    }
    let mut estimates: Vec<Option<(f64, f64)>> = vec![None; n];
    for outcome in &result.outcomes {
        if let Some(est) = &outcome.estimate {
            let value = est.aggregate().map_or(f64::NAN, Aggregate::summary);
            estimates[outcome.member.index()] = Some((est.completeness(n), value));
        }
    }
    let hull = Hull {
        lo: 0.0,
        hi: (n - 1) as f64,
    };
    run.ops.add(check_cluster(
        estimates.into_iter(),
        true_average(&votes(n)),
        hull,
    ));
}

fn io_broken(e: RuntimeError) -> Broken {
    Broken(format!("the cluster could not run: {e}"))
}

/// Run the workload in the mode `run.params` asks for.
pub fn run(run: &mut Run<'_>) -> Result<(), Broken> {
    let (n, sockets) = size(run.params.quick);
    if run.params.traced {
        traced(run, n, sockets)
    } else {
        untraced(run, n, sockets)
    }
}

fn untraced(run: &mut Run<'_>, n: usize, sockets: usize) -> Result<(), Broken> {
    let seed = run.params.seed;
    let sim_completeness = run_hiergossip::<Average>(&reference_config(n), seed)
        .mean_completeness()
        .unwrap_or(0.0);
    let mut per_rep: [Vec<f64>; 6] = Default::default();
    while run.another_rep(per_rep[0].len(), MIN_REPS) {
        let (setup_s, run_s, result) =
            rep(n, rt_config(seed, sockets, 1), seed, &mut Trace::off()).map_err(io_broken)?;
        check(run, n, &result, sim_completeness);
        let r = &result.report;
        let members = n as f64;
        for (samples, value) in per_rep.iter_mut().zip([
            setup_s,
            run_s,
            r.mean_rounds,
            r.stats.frames_sent as f64 / members,
            r.stats.bytes_sent as f64 / members,
            r.mean_completeness,
        ]) {
            samples.push(value);
        }
    }
    let [setup, runs, rounds, msgs, bytes, completeness] = &per_rep;
    run.timed("setup_s", setup);
    run.timed("run_s", runs);
    run.value("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    run.sampled("rounds_to_done", rounds);
    run.sampled("msgs_per_member", msgs);
    run.sampled("bytes_per_member", bytes);
    run.sampled("completeness", completeness);
    run.value("ok_frac", run.ops.ok_frac());
    Ok(())
}

fn traced(run: &mut Run<'_>, n: usize, sockets: usize) -> Result<(), Broken> {
    let seed = run.params.seed;

    // the simulator reference, wrapped so it also yields the payloads
    // the codec replay encodes
    let ref_cfg = reference_config(n);
    let sends = RoundSends::new(ref_cfg.max_rounds());
    let mut member = 0;
    let sim = build_stack(&ref_cfg, seed, &mut run.trace, |p| {
        member += 1;
        Timed::new(p, sends.clone()).sampling(SAMPLE_EVERY, member)
    });
    let (sim_report, protocols) = sim.run_returning();
    let sampled = GroupTally::sum(protocols).sampled;
    let sim_completeness = sim_report.mean_completeness().unwrap_or(0.0);

    let cpu_before = host::cpu_times();
    let span = run.trace.begin("rep");
    let (_, run_s, result) =
        rep(n, rt_config(seed, sockets, 1), seed, &mut run.trace).map_err(io_broken)?;
    run.trace.end(span);
    let cpu_after = host::cpu_times();
    check(run, n, &result, sim_completeness);

    let r = &result.report;
    let s = &r.stats;
    let frames = s.frames_sent as f64;
    run.values([
        ("runtime.agg_wall_s", r.wall.as_secs_f64()),
        ("runtime.us_per_frame", run_s * 1e6 / frames.max(1.0)),
        ("runtime.frames_sent", frames),
        ("runtime.datagrams_sent", s.datagrams_sent as f64),
        ("runtime.frames_per_datagram", r.frames_per_datagram()),
        (
            "runtime.bytes_per_frame",
            s.bytes_sent as f64 / frames.max(1.0),
        ),
        ("runtime.retries", s.retries as f64),
        ("runtime.injected_drops", s.injected_drops as f64),
        ("runtime.decode_errors", s.decode_errors as f64),
        ("runtime.mailbox_high_water", s.mailbox_high_water as f64),
        ("runtime.wakeups", s.wakeups as f64),
        ("runtime.mean_rounds", r.mean_rounds),
    ]);
    match (cpu_before, cpu_after) {
        (Some((u0, s0)), Some((u1, s1))) => {
            run.value("runtime.cpu_user_s", u1 - u0);
            run.value("runtime.cpu_sys_s", s1 - s0);
        }
        _ => {
            run.omit("runtime.cpu_user_s", "/proc/self/stat is not readable here");
            run.omit("runtime.cpu_sys_s", "/proc/self/stat is not readable here");
        }
    }
    for (name, value) in [
        ("runtime.bytes_sent", s.bytes_sent as f64),
        ("runtime.frames_recv", s.frames_recv as f64),
        ("runtime.datagrams_recv", s.datagrams_recv as f64),
        ("runtime.run_s", run_s),
    ] {
        run.trace.count(name, value);
    }

    if host::cores() >= 2 {
        let span = run.trace.begin("runtime.rep_w2");
        let (_, run_w2_s, result_w2) =
            rep(n, rt_config(seed, sockets, 2), seed, &mut Trace::off()).map_err(io_broken)?;
        run.trace.end(span);
        check(run, n, &result_w2, sim_completeness);
        run.value("runtime.w2_speedup", run_s / run_w2_s);
    } else {
        run.omit(
            "runtime.w2_speedup",
            "host has fewer than 2 cores: no parallelism number from a box that cannot show it",
        );
    }

    let (values, frame_bytes_mean) = layers::codec(&sampled, &mut run.trace);
    run.values(values);
    let values = layers::endpoint(
        sockets,
        n,
        frame_bytes_mean,
        s.datagrams_sent,
        s.bytes_sent as f64 / (s.datagrams_sent as f64).max(1.0),
        MAX_DATAGRAM,
        &mut run.trace,
    )
    .map_err(|e| Broken(format!("the endpoint replay could not use loopback: {e}")))?;
    run.values(values);
    setup_layers(run, &ref_cfg);
    Ok(())
}
