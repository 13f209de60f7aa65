//! `sweep-small`: what the figure binaries do — a grid of many tiny
//! runs of all five protocols on the sweep executor's thread pool.

use std::time::Instant;

use gridagg_aggregate::Average;
use gridagg_bench::sweep::Sweep;
use gridagg_core::baselines::{CentralizedConfig, FloodConfig, LeaderElectionConfig};
use gridagg_core::config::ExperimentConfig;
use gridagg_core::runner::{
    run_centralized, run_flatgossip, run_flood, run_hiergossip, run_leader_election,
};
use gridagg_core::RunReport;
use gridagg_group::GroupBuilder;

use super::sim::{build_index, build_stack, setup_layers, QUICK_N};
use super::{same_as_first, Broken, Run};
use crate::host;
use crate::trace::Trace;
use crate::verify::{check_report, Hull};

/// Seeds per grid point.
const SEEDS: usize = 12;

/// Reps done whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// The five protocols, by the `run_*` function that runs each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Protocol {
    Hier,
    Flat,
    Flood,
    Central,
    Leader,
}

impl Protocol {
    const ALL: [Protocol; 5] = [
        Protocol::Hier,
        Protocol::Flat,
        Protocol::Flood,
        Protocol::Central,
        Protocol::Leader,
    ];

    fn name(self) -> &'static str {
        match self {
            Protocol::Hier => "hiergossip",
            Protocol::Flat => "flatgossip",
            Protocol::Flood => "flood",
            Protocol::Central => "centralized",
            Protocol::Leader => "leader",
        }
    }

    /// The per-layer metric that sums this protocol's cell times.
    fn metric(self) -> &'static str {
        match self {
            Protocol::Hier => "hiergossip.cells_s",
            Protocol::Flat => "baselines.flatgossip_s",
            Protocol::Flood => "baselines.flood_s",
            Protocol::Central => "baselines.central_s",
            Protocol::Leader => "baselines.leader_s",
        }
    }

    fn run(self, cfg: &ExperimentConfig, seed: u64) -> RunReport {
        match self {
            Protocol::Hier => run_hiergossip::<Average>(cfg, seed),
            Protocol::Flat => run_flatgossip::<Average>(cfg, seed),
            Protocol::Flood => run_flood::<Average>(cfg, FloodConfig::default(), seed),
            Protocol::Central => {
                run_centralized::<Average>(cfg, CentralizedConfig::for_group(cfg.n), seed)
            }
            Protocol::Leader => {
                run_leader_election::<Average>(cfg, LeaderElectionConfig::default(), seed)
            }
        }
    }
}

/// One grid point: `SEEDS` cells.
#[derive(Debug, Clone, Copy)]
struct Point {
    protocol: Protocol,
    cfg: ExperimentConfig,
    base_seed: u64,
}

/// The grid: every protocol at N ∈ {256, 1024}, then hiergossip at the
/// paper's N = 200 across four loss rates (Figure 7's axis). Each
/// point's seeds start 10 000 apart, as the figure binaries space them.
fn grid(seed: u64, quick: bool) -> Vec<Point> {
    let sizes: &[usize] = if quick { &[QUICK_N] } else { &[256, 1024] };
    let mut points = Vec::new();
    for protocol in Protocol::ALL {
        for &n in sizes {
            points.push((protocol, ExperimentConfig::paper_defaults().with_n(n)));
        }
    }
    for ucastl in [0.1, 0.3, 0.5, 0.7] {
        points.push((
            Protocol::Hier,
            ExperimentConfig::paper_defaults().with_ucastl(ucastl),
        ));
    }
    points
        .into_iter()
        .enumerate()
        .map(|(i, (protocol, cfg))| Point {
            protocol,
            cfg,
            base_seed: seed + i as u64 * 10_000,
        })
        .collect()
}

/// What one cell hands back: its report and, when `time_cells`, the
/// seconds its closure took.
type Cell = (RunReport, f64);

fn queue(points: &[Point], time_cells: bool) -> Sweep<Cell> {
    let mut sweep = Sweep::new();
    for point in points {
        let Point { protocol, cfg, .. } = *point;
        let label = format!("{}/n={}/ucastl={}", protocol.name(), cfg.n, cfg.ucastl);
        sweep.push_seeded(&label, SEEDS, point.base_seed, move |seed| {
            if time_cells {
                let t = Instant::now();
                let report = protocol.run(&cfg, seed);
                (report, t.elapsed().as_secs_f64())
            } else {
                (protocol.run(&cfg, seed), 0.0)
            }
        });
    }
    sweep
}

/// Assemble, without running, what every cell assembles before it
/// runs, as far as public constructors reach: the group for every
/// cell, the scope index where the protocol uses one, and the whole
/// stack for hiergossip cells.
fn assemble_all(points: &[Point]) {
    for point in points {
        for seed in point.base_seed..point.base_seed + SEEDS as u64 {
            let cfg = &point.cfg;
            match point.protocol {
                Protocol::Hier => drop(build_stack(cfg, seed, &mut Trace::off(), |p| p)),
                Protocol::Leader => {
                    drop(group(cfg, seed));
                    drop(build_index(cfg.k, cfg.n, seed ^ 0x5A17));
                }
                Protocol::Flat | Protocol::Flood | Protocol::Central => drop(group(cfg, seed)),
            }
        }
    }
}

fn group(cfg: &ExperimentConfig, seed: u64) -> gridagg_group::Group {
    GroupBuilder::new(cfg.n)
        .votes(cfg.vote.into())
        .seed(seed)
        .build()
}

/// Sums over the cells of one rep; same-seed reps must agree on them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Totals {
    members: u64,
    rounds: u64,
    sent: u64,
    bytes: u64,
    delivered: u64,
    completeness: f64,
}

fn totals(cells: &[Cell]) -> Totals {
    let mut t = Totals::default();
    for (report, _) in cells {
        t.members += report.n as u64;
        t.rounds += report.rounds;
        t.sent += report.net.sent;
        t.bytes += report.net.bytes_sent;
        t.delivered += report.net.delivered;
        t.completeness += report.mean_completeness().unwrap_or(0.0);
    }
    t
}

/// One rep: `(setup_s, run_s, cells)`.
fn rep(points: &[Point], time_cells: bool, jobs: usize) -> Result<(f64, f64, Vec<Cell>), Broken> {
    let t = Instant::now();
    let sweep = queue(points, time_cells);
    assemble_all(points);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cells = sweep
        .run_with_jobs(jobs)
        .map_err(|e| Broken(format!("a sweep cell panicked: {e}")))?;
    Ok((setup_s, t.elapsed().as_secs_f64(), cells))
}

/// Run the workload in the mode `run.params` asks for.
pub fn run(run: &mut Run<'_>) -> Result<(), Broken> {
    let points = grid(run.params.seed, run.params.quick);
    let jobs = host::load_threads();
    if run.params.traced {
        traced(run, &points, jobs)
    } else {
        untraced(run, &points, jobs)
    }
}

fn check_cells(run: &mut Run<'_>, points: &[Point], cells: &[Cell]) {
    for (point, chunk) in points.iter().zip(cells.chunks(SEEDS)) {
        let hull = Hull::of(&point.cfg);
        for (report, _) in chunk {
            run.ops.add(check_report(report, hull));
        }
    }
}

fn untraced(run: &mut Run<'_>, points: &[Point], jobs: usize) -> Result<(), Broken> {
    let (mut setup, mut runs) = (Vec::new(), Vec::new());
    let mut first: Option<Totals> = None;
    while run.another_rep(runs.len(), MIN_REPS) {
        let (setup_s, run_s, cells) = rep(points, false, jobs)?;
        setup.push(setup_s);
        runs.push(run_s);
        check_cells(run, points, &cells);
        same_as_first(&mut first, totals(&cells))?;
    }
    let t = first.expect("at least one rep ran");
    let cells = (points.len() * SEEDS) as f64;
    run.timed("setup_s", &setup);
    run.timed("run_s", &runs);
    run.value("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    run.value("rounds_to_done", t.rounds as f64 / cells);
    run.value("msgs_per_member", t.sent as f64 / t.members as f64);
    run.value("bytes_per_member", t.bytes as f64 / t.members as f64);
    run.value("completeness", t.completeness / cells);
    run.value("ok_frac", run.ops.ok_frac());
    Ok(())
}

fn traced(run: &mut Run<'_>, points: &[Point], jobs: usize) -> Result<(), Broken> {
    let (_, _, plain) = rep(points, false, jobs)?;

    let cpu_before = host::cpu_times();
    let span = run.trace.begin("sweep.run");
    let (_, run_s, cells) = rep(points, true, jobs)?;
    run.trace.end(span);
    let cpu_after = host::cpu_times();
    if totals(&plain) != totals(&cells) {
        return Err(Broken("timing the cells changed their results".into()));
    }
    check_cells(run, points, &cells);

    let mut cell_s_total = 0.0;
    for protocol in Protocol::ALL {
        let (mut secs, mut count) = (0.0, 0u64);
        for (point, chunk) in points.iter().zip(cells.chunks(SEEDS)) {
            if point.protocol == protocol {
                secs += chunk.iter().map(|(_, s)| s).sum::<f64>();
                count += chunk.len() as u64;
            }
        }
        run.trace.aggregate(protocol.metric(), span, secs, count);
        run.value(protocol.metric(), secs);
        cell_s_total += secs;
    }
    run.value("sweep.cells", cells.len() as f64);
    match (cpu_before, cpu_after) {
        (Some((u0, s0)), Some((u1, s1))) => run.value("sweep.cpu_s", (u1 - u0) + (s1 - s0)),
        _ => run.omit("sweep.cpu_s", "/proc/self/stat is not readable here"),
    }
    run.value(
        "sweep.parallel_efficiency",
        cell_s_total / (jobs as f64 * run_s),
    );
    run.trace.count("sweep.jobs", jobs as f64);
    run.trace.count("sweep.run_s", run_s);

    // the set-up layers at the grid's larger size
    let n = points
        .iter()
        .map(|p| p.cfg.n)
        .max()
        .expect("grid is not empty");
    let cfg = ExperimentConfig::paper_defaults().with_n(n);
    drop(build_stack(&cfg, run.params.seed, &mut run.trace, |p| p));
    setup_layers(run, &cfg);
    Ok(())
}
