//! The evaluation as one table: a `Figure` spec per figure, ablation and
//! table of EXPERIMENTS.md, and the one driver ([`run`]) behind the
//! `figures` binary.
//!
//! The paper's §7 is one experiment repeated — fix `N = 200, ucastl =
//! 0.25, pf = 0.001, K = 4, M = 2, C = 1.0`, vary one parameter,
//! average "several runs", plot incompleteness — so a figure here is
//! only what differs: its sweep points, its columns, its plot frame and
//! the shape the paper claims for it. Each spec's doc comment quotes
//! that claim; it is the reason for the spec's shape check. Absolute
//! values need not match the 2001 testbed; the *shapes* — directions,
//! rough factors, crossovers — are the reproduction target.

use gridagg_aggregate::Average;
use gridagg_analysis::{c1_incompleteness, phases, theorem1_bound};
use gridagg_core::config::ExperimentConfig;
use gridagg_core::runner::Protocol;
use gridagg_core::{summarize, RunReport, Summary};

use crate::plot::{Plot, PlotSeries, Scale};
use crate::sweep::Sweep;
use crate::{
    base_seed, is_decreasing, is_decreasing_noisy, print_table, sci, write_csv, write_json,
};

/// One sweep point: `runs` seeded runs of `protocol` at `cfg`.
struct Point {
    /// The first table column, and the point's part of the cell id.
    label: String,
    /// The plot abscissa.
    x: f64,
    cfg: ExperimentConfig,
    /// Seeds start at `GRIDAGG_SEED + 10_000 * seed_step`: points that
    /// share a step are paired runs over the same seeds.
    seed_step: u64,
    /// Seeds per point; 0 for an analytic point, whose value the figure
    /// computes from `x` alone.
    runs: usize,
    protocol: Protocol,
}

/// A [`Point`] with its reports (one per seed, in seed order) and their
/// summary, as a figure's `rows` and `check` see it.
struct Cell<'a> {
    p: &'a Point,
    reports: &'a [RunReport],
    s: Summary,
}

impl Cell<'_> {
    fn label(&self) -> String {
        self.p.label.clone()
    }
    /// Mean incompleteness, the figures' y-axis.
    fn y(&self) -> f64 {
        self.s.mean_incompleteness
    }
    fn inc(&self) -> String {
        sci(self.s.mean_incompleteness)
    }
    fn std(&self) -> String {
        sci(self.s.std_incompleteness)
    }
    fn messages(&self) -> String {
        format!("{:.0}", self.s.mean_messages)
    }
    fn rounds(&self) -> String {
        format!("{:.1}", self.s.mean_rounds)
    }
    fn runs(&self) -> String {
        self.s.runs.to_string()
    }
}

/// One curve of a plot: its legend label and the ordinate of a cell.
type Curve = (&'static str, fn(&Cell<'_>) -> f64);

/// A figure's SVG; y is on a log scale, as in every figure of the
/// paper.
struct Frame {
    title: &'static str,
    x_label: &'static str,
    y_label: &'static str,
    x_scale: Scale,
    curves: &'static [Curve],
}

/// One figure, ablation or table of the evaluation.
struct Figure {
    /// Name on the command line, and the stem of every file written.
    name: &'static str,
    /// Table title; a `{}` in it stands for the table's text below.
    title: &'static str,
    /// `(CSV stem suffix, title text)` per table; the rows are split
    /// evenly over the tables.
    tables: &'static [(&'static str, &'static str)],
    /// Printed column headers, comma-separated.
    columns: &'static str,
    /// CSV column names, comma-separated, one per printed column.
    csv: &'static str,
    plot: Option<Frame>,
    /// The config written as `NAME.config.json` provenance.
    config: Option<fn() -> ExperimentConfig>,
    /// The sweep points, given `GRIDAGG_RUNS`.
    points: fn(usize) -> Vec<Point>,
    rows: fn(&[Cell<'_>]) -> Vec<Vec<String>>,
    /// Whether the shape the paper claims holds, and the line saying
    /// so (some shapes are only reported: those checks are `true`).
    check: fn(&[Cell<'_>]) -> (bool, String),
}

/// A figure that is one table named after it, with no plot and no
/// provenance file: the base the specs below fill in.
const TABLE: Figure = Figure {
    name: "",
    title: "",
    tables: &[("", "")],
    columns: "",
    csv: "",
    plot: None,
    config: None,
    points: |_| Vec::new(),
    rows: |_| Vec::new(),
    check: |_| (true, String::new()),
};

/// Every figure, in the order `figures` runs them.
static FIGURES: [&Figure; 18] = [
    &FIG04, &FIG05, &FIG06, &FIG07, &FIG08, &FIG09, &FIG10, &FIG11, &PROTOCOLS, &LEADER, &TOPO,
    &BUMP, &VIEWS, &NESTIMATE, &DELAY, &FANOUT, &GRID_K, &PHASES,
];

/// The figure names, in the order `figures` runs them.
pub fn names() -> Vec<&'static str> {
    FIGURES.iter().map(|f| f.name).collect()
}

/// Run the figures called `names` (every figure, for no names), `runs`
/// seeds per point: queue every point of every figure on one [`Sweep`]
/// (so the `--jobs` workers stay busy across figure boundaries), then,
/// in [`names`] order, print each figure's tables and write its CSVs,
/// SVG and provenance JSON under `GRIDAGG_OUT`. The output is the same
/// bytes at any worker count. Returns the figures whose shape check
/// failed; their files are written all the same.
///
/// # Errors
///
/// Returns the first of `names` that is no figure, before running any.
pub fn run(names: &[String], runs: usize) -> Result<Vec<&'static str>, &String> {
    if let Some(unknown) = names.iter().find(|n| !self::names().contains(&n.as_str())) {
        return Err(unknown);
    }
    let figures: Vec<(&Figure, Vec<Point>)> = FIGURES
        .iter()
        .filter(|f| names.is_empty() || names.iter().any(|n| n == f.name))
        .map(|f| (*f, (f.points)(runs)))
        .collect();
    let mut sweep = Sweep::new();
    for (fig, points) in &figures {
        for p in points {
            let (cfg, protocol) = (p.cfg, p.protocol);
            let id = format!("{}/{}/{}", fig.name, p.label, protocol.name());
            let seed = base_seed() + 10_000 * p.seed_step;
            sweep.push_seeded(&id, p.runs, seed, move |s| protocol.run::<Average>(&cfg, s));
        }
    }
    let reports = sweep.run_or_exit("figures");

    let mut rest = reports.as_slice();
    let mut failed = Vec::new();
    for (fig, points) in &figures {
        println!("\n########## {} ##########", fig.name);
        let cells: Vec<Cell<'_>> = points
            .iter()
            .map(|p| {
                let (reports, others) = rest.split_at(p.runs);
                rest = others;
                let s = summarize(reports);
                Cell { p, reports, s }
            })
            .collect();
        let rows = (fig.rows)(&cells);
        let columns: Vec<&str> = fig.columns.split(',').collect();
        let csv: Vec<&str> = fig.csv.split(',').collect();
        let per_table = (rows.len() / fig.tables.len()).max(1);
        for ((suffix, text), rows) in fig.tables.iter().zip(rows.chunks(per_table)) {
            print_table(&fig.title.replace("{}", text), &columns, rows);
            write_csv(&format!("{}{suffix}.csv", fig.name), &csv, rows);
        }
        if let Some(frame) = &fig.plot {
            let curve = |&(label, y): &Curve| PlotSeries {
                label: label.into(),
                points: cells.iter().map(|c| (c.p.x, y(c))).collect(),
            };
            Plot {
                title: frame.title.into(),
                x_label: frame.x_label.into(),
                y_label: frame.y_label.into(),
                x_scale: frame.x_scale,
                y_scale: Scale::Log,
                series: frame.curves.iter().map(curve).collect(),
            }
            .write(&format!("{}.svg", fig.name));
        }
        if let Some(config) = fig.config {
            write_json(&format!("{}.config.json", fig.name), &config());
        }
        let (holds, line) = (fig.check)(&cells);
        println!("{line}");
        if !holds {
            eprintln!("{}: shape check failed", fig.name);
            failed.push(fig.name);
        }
    }
    Ok(failed)
}

/// The §7 shape: one hiergossip point per `x` of `xs`, at the paper's
/// defaults with `set(cfg, x)` applied, seed bases 10 000 apart.
fn sweep(runs: usize, xs: &[f64], set: fn(&mut ExperimentConfig, f64)) -> Vec<Point> {
    let point = |(i, &x): (usize, &f64)| {
        let mut cfg = ExperimentConfig::paper_defaults();
        set(&mut cfg, x);
        Point {
            label: x.to_string(),
            x,
            cfg,
            seed_step: i as u64,
            runs,
            protocol: Protocol::HierGossip,
        }
    };
    xs.iter().enumerate().map(point).collect()
}

/// Paired runs: one hiergossip point per labelled config, all over
/// the same seeds.
fn variants(runs: usize, of: &[(&str, ExperimentConfig)]) -> Vec<Point> {
    let point = |&(label, cfg): &(&str, ExperimentConfig)| Point {
        label: label.into(),
        x: 0.0,
        cfg,
        seed_step: 0,
        runs,
        protocol: Protocol::HierGossip,
    };
    of.iter().map(point).collect()
}

/// One table row per cell.
fn each(cells: &[Cell<'_>], row: fn(&Cell<'_>) -> Vec<String>) -> Vec<Vec<String>> {
    cells.iter().map(row).collect()
}

/// Mean incompleteness of every cell, in sweep order.
fn ys(cells: &[Cell<'_>]) -> Vec<f64> {
    cells.iter().map(Cell::y).collect()
}

/// Figure 4 — first-phase completeness vs group size.
///
/// Paper: "-log(1 − C1(N, K, b)) varies linearly with log(N)" at
/// `K = 2, b = 4`, with the `1/N` line as the pessimistic reference
/// (Postulate 1: `C1 ≥ 1 − 1/N`).
///
/// The paper evaluates `C1` by simulation-plus-reasoning; we compute the
/// binomial-over-box-occupancy expression exactly (in log space) from
/// `gridagg-analysis`, and print the paper's reference line alongside.
static FIG04: Figure = Figure {
    name: "fig04",
    title: "Figure 4: 1-C1(N, K=2, b=4) vs N (analytic), with 1/N reference",
    columns: "N,1-C1,-ln(1-C1),1/N (ref)",
    csv: "n,incompleteness,neglog,ref_1_over_n",
    plot: Some(Frame {
        title: "Figure 4: first-phase incompleteness vs N (K=2, b=4)",
        x_label: "group size N",
        y_label: "1 - C1",
        x_scale: Scale::Log,
        curves: &[
            ("analytic 1-C1", fig04_c1),
            ("1/N reference", |c| 1.0 / c.p.x),
        ],
    }),
    points: |_| sweep(0, &[1000.0, 2000.0, 4000.0, 8000.0], |_, _| ()),
    rows: |cells| {
        each(cells, |c| {
            let neglog = -(fig04_c1(c).max(f64::MIN_POSITIVE)).ln();
            let reference = 1.0 - theorem1_bound(c.p.x); // 1/N
            vec![c.label(), sci(fig04_c1(c)), sci(neglog), sci(reference)]
        })
    },
    check: |cells| {
        let falls = is_decreasing(&cells.iter().map(fig04_c1).collect::<Vec<_>>());
        let below = cells.iter().all(|c| fig04_c1(c) <= 1.0 / c.p.x);
        let line = format!(
            "shape check: decreasing in N = {falls}; below 1/N reference = {below} (Postulate 1)"
        );
        (falls, line)
    },
    ..TABLE
};

fn fig04_c1(c: &Cell<'_>) -> f64 {
    c1_incompleteness(c.p.x as u64, 2.0, 4.0)
}

/// Figure 5 — first-phase completeness vs grid box size K.
///
/// Paper: "the completeness is monotonically increasing with K"
/// (equivalently, `1 − C1` falls with K) at `N = 2000, b = 4`, both
/// axes logarithmic.
static FIG05: Figure = Figure {
    name: "fig05",
    title: "Figure 5: 1-C1(N=2000, K, b=4) vs K (analytic)",
    columns: "K,1-C1",
    csv: "k,incompleteness",
    plot: Some(Frame {
        title: "Figure 5: first-phase incompleteness vs K (N=2000, b=4)",
        x_label: "grid box size K",
        y_label: "1 - C1",
        x_scale: Scale::Log,
        curves: &[("analytic 1-C1", fig05_c1)],
    }),
    points: |_| sweep(0, &[4.0, 8.0, 16.0, 32.0], |_, _| ()),
    rows: |cells| each(cells, |c| vec![c.label(), sci(fig05_c1(c))]),
    check: |cells| {
        let falls = is_decreasing(&cells.iter().map(fig05_c1).collect::<Vec<_>>());
        let line = format!("shape check: monotonically decreasing in K = {falls}");
        (falls, line)
    },
    ..TABLE
};

fn fig05_c1(c: &Cell<'_>) -> f64 {
    c1_incompleteness(2000, c.p.x, 4.0)
}

/// Figure 6 — Scalability 1: incompleteness vs group size N.
///
/// Paper: "Even at low gossip rates (where Theorem 1 does not apply),
/// the protocol's completeness scales well at high values of group size
/// N." Defaults: `ucastl=0.25, pf=0.001, K=4, M=2, C=1.0`; N doubles
/// from 200 to 3200.
static FIG06: Figure = Figure {
    name: "fig06",
    title: "Figure 6: incompleteness vs N (K=4, M=2, ucastl=0.25, pf=0.001)",
    columns: "N,incompleteness,std,messages,rounds,runs",
    csv: "n,incompleteness,std,messages,rounds,runs",
    plot: Some(Frame {
        title: "Figure 6: incompleteness vs group size N",
        x_label: "group size N",
        y_label: "incompleteness",
        x_scale: Scale::Log,
        curves: &[("K=4, M=2", |c| c.y())],
    }),
    config: Some(ExperimentConfig::paper_defaults),
    points: |runs| {
        let ns = [200.0, 400.0, 800.0, 1600.0, 3200.0];
        sweep(runs, &ns, |c, n| c.n = n as usize)
    },
    rows: |cells| {
        each(cells, |c| {
            let (messages, rounds) = (c.messages(), c.rounds());
            vec![c.label(), c.inc(), c.std(), messages, rounds, c.runs()]
        })
    },
    // paper's claim: completeness does not degrade as N grows into the
    // thousands (it improves slightly); reported, not enforced
    check: |cells| {
        let (first, last) = (&cells[0], &cells[cells.len() - 1]);
        let (at_200, at_3200) = (first.inc(), last.inc());
        let holds = last.y() <= 2.0 * first.y().max(1e-9);
        let line = format!("shape check: incompleteness at N=3200 ({at_3200}) <= 2x incompleteness at N=200 ({at_200}) = {holds}");
        (true, line)
    },
    ..TABLE
};

/// Figure 7 — Fault-tolerance 1: incompleteness vs unicast loss.
///
/// Paper: "The protocol's incompleteness falls exponentially fast with
/// decreasing unicast message loss probability." `ucastl` sweeps 0.7
/// down to 0.4 (we extend to the 0.25 default), N = 200.
static FIG07: Figure = Figure {
    name: "fig07",
    title: "Figure 7: incompleteness vs ucastl (N=200, K=4, M=2)",
    columns: "ucastl,incompleteness,std,runs",
    csv: "ucastl,incompleteness,std,runs",
    plot: Some(Frame {
        title: "Figure 7: incompleteness vs unicast loss",
        x_label: "message loss probability ucastl",
        y_label: "incompleteness",
        x_scale: Scale::Linear,
        curves: &[("N=200, K=4, M=2", |c| c.y())],
    }),
    config: Some(ExperimentConfig::paper_defaults),
    points: |runs| sweep(runs, &[0.7, 0.6, 0.5, 0.4, 0.25], |c, x| c.ucastl = x),
    rows: |cells| each(cells, |c| vec![c.label(), c.inc(), c.std(), c.runs()]),
    // exponential-ish: each 0.1 drop in loss shrinks incompleteness by a
    // roughly constant factor — check the end-to-end factor is large
    check: |cells| {
        let series = ys(cells);
        let (falls, factor) = (
            is_decreasing_noisy(&series),
            series[0] / series[4].max(1e-9),
        );
        let line = format!(
            "shape check: monotone fall = {falls}; 0.7 -> 0.25 shrink factor = {factor:.0}x"
        );
        (falls, line)
    },
    ..TABLE
};

/// Figure 8 — Effect of gossip rate: incompleteness vs rounds per phase.
///
/// Paper: "The protocol's incompleteness falls exponentially with
/// increasing gossip rate / gossip round length" — x is the number of
/// gossip rounds per protocol phase (1..5), N = 200.
static FIG08: Figure = Figure {
    name: "fig08",
    title: "Figure 8: incompleteness vs gossip rounds per phase (N=200, K=4, M=2)",
    columns: "rounds/phase,incompleteness,std,total rounds,runs",
    csv: "rounds_per_phase,incompleteness,std,total_rounds,runs",
    plot: Some(Frame {
        title: "Figure 8: incompleteness vs gossip rounds per phase",
        x_label: "gossip rounds per phase",
        y_label: "incompleteness",
        x_scale: Scale::Linear,
        curves: &[("N=200, K=4, M=2", |c| c.y())],
    }),
    config: Some(ExperimentConfig::paper_defaults),
    points: |runs| {
        let per_phase = [1.0, 2.0, 3.0, 4.0, 5.0];
        sweep(runs, &per_phase, |c, r| c.rounds_per_phase = Some(r as u32))
    },
    rows: |cells| {
        each(cells, |c| {
            vec![c.label(), c.inc(), c.std(), c.rounds(), c.runs()]
        })
    },
    check: |cells| {
        let series = ys(cells);
        let (falls, factor) = (is_decreasing(&series), series[0] / series[4].max(1e-9));
        let line = format!(
            "shape check: monotone fall = {falls}; 1 -> 5 rounds shrink factor = {factor:.0}x"
        );
        (falls, line)
    },
    ..TABLE
};

/// Figure 9 — Fault-tolerance 2: soft network partitions.
///
/// Paper: the group is split into two halves; cross-partition messages
/// drop with probability `partl`, intra-half with `ucastl`. "The
/// protocol's completeness degrades gracefully as the
/// partition/correlated failure rate becomes worse."
static FIG09: Figure = Figure {
    name: "fig09",
    title: "Figure 9: incompleteness vs partition loss partl (N=200, ucastl=0.25)",
    columns: "partl,incompleteness,std,runs",
    csv: "partl,incompleteness,std,runs",
    plot: Some(Frame {
        title: "Figure 9: incompleteness vs partition loss",
        x_label: "partition message loss partl",
        y_label: "incompleteness",
        x_scale: Scale::Linear,
        curves: &[("N=200, ucastl=0.25", |c| c.y())],
    }),
    config: Some(|| ExperimentConfig::paper_defaults().with_partl(0.6)),
    points: |runs| sweep(runs, &[0.5, 0.55, 0.6, 0.65, 0.7], |c, x| c.partl = Some(x)),
    rows: |cells| each(cells, |c| vec![c.label(), c.inc(), c.std(), c.runs()]),
    // graceful degradation: grows with partl but stays far from total
    // failure at partl = 0.7; reported, not enforced
    check: |cells| {
        let series = ys(cells);
        let grows = series.windows(2).all(|w| w[1] >= w[0] * 0.5);
        let graceful = series[series.len() - 1] < 0.5;
        let line = format!(
            "shape check: degrades with partl = {grows}; graceful (inc@0.7 < 0.5) = {graceful}"
        );
        (true, line)
    },
    ..TABLE
};

/// Figure 10 — Fault-tolerance 3: member crash rate.
///
/// Paper: "The protocol's incompleteness falls very quickly (faster than
/// exponential) with falling member failure rate." `pf` sweeps 0.008
/// down to 0.002 per round, N = 200.
static FIG10: Figure = Figure {
    name: "fig10",
    title: "Figure 10: incompleteness vs member failure rate pf (N=200)",
    columns: "pf,incompleteness,std,crashed frac,runs",
    csv: "pf,incompleteness,std,crashed_frac,runs",
    plot: Some(Frame {
        title: "Figure 10: incompleteness vs member failure rate",
        x_label: "per-round crash probability pf",
        y_label: "incompleteness",
        x_scale: Scale::Linear,
        curves: &[("N=200", |c| c.y())],
    }),
    config: Some(ExperimentConfig::paper_defaults),
    points: |runs| sweep(runs, &[0.008, 0.006, 0.004, 0.002, 0.001], |c, x| c.pf = x),
    rows: |cells| {
        each(cells, |c| {
            let crashed = format!("{:.3}", c.s.mean_crashed);
            vec![c.label(), c.inc(), c.std(), crashed, c.runs()]
        })
    },
    // Where crashes land is the dominant noise source in this figure,
    // so per-point monotonicity only emerges with enough runs. The
    // always-on check compares the sweep's ends averaged over two
    // points each, which stays stable down to the CI smoke's
    // GRIDAGG_RUNS=4; the strict noisy-monotone check still gates the
    // full-size run.
    check: |cells| {
        let series = ys(cells);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (high_pf, low_pf) = (mean(&series[..2]), mean(&series[series.len() - 2..]));
        if high_pf < low_pf {
            let line = format!("shape check: endpoint fall with pf = false (high-pf end {high_pf} < low-pf end {low_pf})");
            (false, line)
        } else if cells[0].s.runs >= 8 {
            let falls = is_decreasing_noisy(&series);
            let line = format!("shape check: monotone fall with pf = {falls}");
            (falls, line)
        } else {
            let line = "shape check: endpoint fall with pf = true (strict monotone needs GRIDAGG_RUNS >= 8)";
            (true, line.into())
        }
    },
    ..TABLE
};

/// Figure 11 — Scalability 2: incompleteness bounded by 1/N.
///
/// Paper: `C = 1.4, ucastl = pf = 0` (so `b ≈ 1.0`); although Theorem 1's
/// conditions do not hold, measured incompleteness "falls with N, and is
/// upper bounded by 1/N".
static FIG11: Figure = Figure {
    name: "fig11",
    title: "Figure 11: incompleteness vs N at C=1.4, ucastl=pf=0, vs 1/N bound",
    columns: "N,incompleteness,1/N bound,below bound,runs",
    csv: "n,incompleteness,bound,below_bound,runs",
    plot: Some(Frame {
        title: "Figure 11: incompleteness vs N at C=1.4, no loss",
        x_label: "group size N",
        y_label: "incompleteness",
        x_scale: Scale::Linear,
        curves: &[("measured", |c| c.y()), ("1/N bound", |c| 1.0 / c.p.x)],
    }),
    points: |runs| {
        sweep(runs, &[300.0, 400.0, 500.0, 600.0], |c, n| {
            (c.n, c.ucastl, c.pf, c.round_factor) = (n as usize, 0.0, 0.0, 1.4);
        })
    },
    rows: |cells| {
        each(cells, |c| {
            let (bound, below) = (1.0 / c.p.x, c.y() <= 1.0 / c.p.x);
            vec![c.label(), c.inc(), sci(bound), below.to_string(), c.runs()]
        })
    },
    check: |cells| {
        let below = cells.iter().all(|c| c.y() <= 1.0 / c.p.x);
        let line = format!("shape check: incompleteness <= 1/N at every N = {below}");
        (below, line)
    },
    ..TABLE
};

/// Complexity comparison — the claims of §§4–6 as one table.
///
/// | protocol            | messages        | time    | §   |
/// |---------------------|-----------------|---------|-----|
/// | fully distributed   | O(N²)           | O(N)    | 4   |
/// | centralized leader  | O(N)            | O(N)    | 5   |
/// | leader election     | O(N)            | O(logN) | 6.2 |
/// | hierarchical gossip | O(N·log²N)      | O(log²N)| 6.3 |
///
/// Measured at zero loss (complexity) and at the paper's default lossy
/// network (completeness), for doubling group sizes, every protocol
/// over the same (at most 10) seeds.
static PROTOCOLS: Figure = Figure {
    name: "complexity",
    title: "Complexity table ({}): messages, rounds, incompleteness",
    tables: &[("_zero_loss", "zero loss"), ("_lossy", "lossy (defaults)")],
    columns: "N,protocol,messages,msgs/N,rounds,incompleteness",
    csv: "n,protocol,messages,msgs_per_n,rounds,incompleteness",
    points: |runs| {
        let mut points = Vec::new();
        for (ucastl, pf) in [(0.0, 0.0), (0.25, 0.001)] {
            for n in [64usize, 128, 256, 512, 1024] {
                let mut cfg = ExperimentConfig::paper_defaults().with_n(n);
                (cfg.ucastl, cfg.pf) = (ucastl, pf);
                points.extend(Protocol::ALL.map(|protocol| Point {
                    label: n.to_string(),
                    x: n as f64,
                    cfg,
                    seed_step: 0,
                    runs: runs.min(10),
                    protocol,
                }));
            }
        }
        points
    },
    rows: |cells| {
        each(cells, |c| {
            let protocol = c.p.protocol.name().to_string();
            let per_member = format!("{:.2}", c.s.mean_messages / c.p.x);
            let incompleteness = sci(1.0 - c.s.mean_completeness);
            let (messages, rounds) = (c.messages(), c.rounds());
            vec![
                c.label(),
                protocol,
                messages,
                per_member,
                rounds,
                incompleteness,
            ]
        })
    },
    check: |_| {
        let expected = "expected shapes: flood msgs/N grows ~linearly in N (O(N^2) total); centralized and \n\
            leader msgs/N stay ~constant (O(N)); hiergossip msgs/N grows ~log^2 N; flood and \n\
            centralized rounds grow with N while hierarchical protocols stay polylog; under loss, \n\
            hiergossip completeness dominates leader election and centralized.";
        (true, expected.into())
    },
    ..TABLE
};

/// Ablation §6.2 — leader election is fragile under crash failures.
///
/// Paper: "Failure of a member elected as the leader of a subtree of
/// height i would result in the exclusion of the votes of an expected
/// K^i members from the final global estimate", and committees need
/// K' = O(logN) to survive. We sweep the per-round crash rate and
/// compare single-leader and committee variants against Hierarchical
/// Gossiping, the three over the same seeds at each `pf` (paired runs).
static LEADER: Figure = Figure {
    name: "ablation_leader",
    title: "Ablation: leader election fragility vs crash rate (N=256, ucastl=0.25)",
    columns: "pf,hiergossip,leader K'=1,leader K'=3",
    csv: "pf,hiergossip_inc,leader1_inc,leader3_inc",
    points: |runs| {
        let mut points = Vec::new();
        for (i, pf) in [0.0, 0.001, 0.002, 0.005, 0.01].into_iter().enumerate() {
            let leader = |committee| Protocol::Leader { committee };
            points.extend(
                [Protocol::HierGossip, leader(1), leader(3)].map(|protocol| Point {
                    label: pf.to_string(),
                    x: pf,
                    cfg: ExperimentConfig::paper_defaults().with_n(256).with_pf(pf),
                    seed_step: i as u64,
                    runs,
                    protocol,
                }),
            );
        }
        points
    },
    // one row per pf: hiergossip, single leader, committee of three
    rows: |cells| {
        let row = |c: &[Cell<'_>]| vec![c[0].label(), c[0].inc(), c[1].inc(), c[2].inc()];
        cells.chunks(3).map(row).collect()
    },
    // reported, not enforced
    check: |cells| {
        let (hier, leader1) = (&cells[cells.len() - 3], &cells[cells.len() - 2]);
        let (worse, of_leader, of_hier) = (leader1.y() > hier.y(), leader1.inc(), hier.inc());
        let line = format!("shape check: at pf=0.01, leader-election incompleteness ({of_leader}) exceeds hiergossip ({of_hier}) = {worse}");
        (true, line)
    },
    ..TABLE
};

/// Ablation §6.1 — topologically aware placement cuts long-haul load.
///
/// Paper: "Using such a topologically aware H would result in a
/// reduction of the load ... the (O(N)) messages in the initial phases
/// of the protocol would be restricted to travel short distances
/// (hops), and longer network routes would be taken only by the (much
/// fewer) messages in the latter phases."
///
/// Both variants run over the *same* 2-D sensor field and seeds; only
/// the hash changes: fair (random boxes) vs topologically aware (K-d
/// equal-count splits, Figure 3).
static TOPO: Figure = Figure {
    name: "ablation_topo",
    title: "Ablation: fair vs topologically-aware hash (N=256): link load",
    columns: "placement,messages,hops/msg,long-haul share,incompleteness",
    csv: "placement,messages,hops_per_msg,long_haul_share,incompleteness",
    points: |runs| {
        // positioned: the same field for both, for load accounting
        let mut fair = ExperimentConfig::paper_defaults().with_n(256);
        fair.positioned = true;
        let mut topo = fair;
        topo.topo_aware = true;
        variants(runs.min(10), &[("fair hash", fair), ("topo-aware", topo)])
    },
    rows: |cells| {
        each(cells, |c| {
            let (sent, hops, share) = link_load(c);
            let hops = format!("{hops:.3}");
            vec![c.label(), sent.to_string(), hops, sci(share), c.inc()]
        })
    },
    check: |cells| {
        let ((_, fair, fair_far), (_, topo, topo_far)) =
            (link_load(&cells[0]), link_load(&cells[1]));
        let (by, fair_far, topo_far) = (fair / topo.max(1e-9), sci(fair_far), sci(topo_far));
        let line = format!("shape check: topo-aware cuts hops/msg {fair:.2} -> {topo:.2} ({by:.1}x) and long-haul share {fair_far} -> {topo_far}");
        (topo < fair, line)
    },
    ..TABLE
};

/// Messages sent, mean hops per message and mean long-haul share of a
/// cell's runs.
fn link_load(c: &Cell<'_>) -> (u64, f64, f64) {
    let sent: u64 = c.reports.iter().map(|r| r.net.sent).sum();
    let hops: u64 = c.reports.iter().map(|r| r.net.total_hops).sum();
    let far: f64 = c.reports.iter().map(|r| r.net.long_haul_share(4)).sum();
    let per_msg = hops as f64 / sent.max(1) as f64;
    (sent, per_msg, far / c.reports.len() as f64)
}

/// Ablation — step 2(b) early bump-up and the gossip-exchange mode.
///
/// Four variants of Hierarchical Gossiping at the paper's defaults,
/// deliberately over the same seeds (paired runs): early bump on/off ×
/// exchange One/Batch. `Batch` is the "gossip with" interpretation that
/// calibrates to the paper's figures; `One` is the paper-literal
/// single-value push (see DESIGN.md).
static BUMP: Figure = Figure {
    name: "ablation_bump",
    title: "Ablation: early bump (step 2b) x exchange mode (N=200, defaults)",
    columns: "variant,incompleteness,rounds,messages",
    csv: "variant,incompleteness,rounds,messages",
    points: |runs| {
        let with = |early_bump, batch_exchange| ExperimentConfig {
            early_bump,
            batch_exchange,
            ..ExperimentConfig::paper_defaults()
        };
        let of = [
            ("batch + early bump (default)", with(true, true)),
            ("batch, synchronous phases", with(false, true)),
            ("one-value push + early bump", with(true, false)),
            ("one-value push, synchronous", with(false, false)),
        ];
        variants(runs, &of)
    },
    rows: |cells| {
        each(cells, |c| {
            vec![c.label(), c.inc(), c.rounds(), c.messages()]
        })
    },
    // reported, not enforced
    check: |cells| {
        let (batch, one, beats) = (cells[0].inc(), cells[2].inc(), cells[0].y() < cells[2].y());
        let line =
            format!("shape check: batch exchange beats one-value push ({batch} < {one}) = {beats}");
        (true, line)
    },
    ..TABLE
};

/// Ablation §2 — partial membership views.
///
/// "We assume henceforth that all members know about each other,
/// although this can be relaxed in our final hierarchical gossiping
/// solution." This sweep quantifies the relaxation: each member knows
/// only a uniform sample of the group; completeness degrades smoothly
/// as the view shrinks, and is nearly indistinguishable from complete
/// views once views cover a reasonable fraction of the group.
static VIEWS: Figure = Figure {
    name: "ablation_views",
    title: "Ablation: partial views (N=200, defaults): view size vs incompleteness",
    columns: "view size,incompleteness,std,runs",
    csv: "view_size,incompleteness,std,runs",
    points: |runs| {
        let mut points = sweep(runs, &[25.0, 50.0, 100.0, 150.0, 200.0], |c, view| {
            c.partial_view = (view < c.n as f64).then_some(view as usize);
        });
        points[4].label = "complete".into();
        points
    },
    rows: |cells| each(cells, |c| vec![c.label(), c.inc(), c.std(), c.runs()]),
    check: |cells| {
        let improves = ys(cells).windows(2).all(|w| w[1] <= w[0] + 1e-9);
        let line =
            format!("shape check: completeness improves monotonically with view size = {improves}");
        (improves, line)
    },
    ..TABLE
};

/// Ablation §6.1 — approximate group-size estimates.
///
/// "The global knowledge of N is trivial if the maximal group
/// membership is fixed. For a dynamically changing group membership,
/// members need to be periodically informed of changes in the group
/// size. However, an approximate estimate of N at each member usually
/// suffices, and thus these updates can be done rather infrequently."
///
/// We run the true group at N=200 while the hierarchy is derived from
/// estimates off by up to 4x in either direction.
static NESTIMATE: Figure = Figure {
    name: "ablation_nestimate",
    title: "Ablation: hierarchy from an approximate N estimate (true N=200)",
    columns: "estimate,est/N,incompleteness,rounds,messages",
    csv: "estimate,ratio,incompleteness,rounds,messages",
    points: |runs| {
        let estimates = [50.0, 100.0, 200.0, 400.0, 800.0];
        sweep(runs, &estimates, |c, est| c.n_estimate = Some(est as usize))
    },
    rows: |cells| {
        each(cells, |c| {
            let ratio = format!("{:.2}", c.p.x / c.p.cfg.n as f64);
            vec![c.label(), ratio, c.inc(), c.rounds(), c.messages()]
        })
    },
    // 4x-off estimates must not break the protocol
    check: |cells| {
        let worst = ys(cells).into_iter().fold(0.0, f64::max);
        let line = format!(
            "shape check: worst incompleteness across 4x-off estimates = {}",
            sci(worst)
        );
        (worst < 0.1, line)
    },
    ..TABLE
};

/// Ablation — network asynchrony (message delay jitter).
///
/// The paper's model is an asynchronous network; its simulation delivers
/// gossip next round. Here deliveries take uniformly 1..=D rounds: each
/// extra round of jitter stretches phases relative to the per-phase
/// timeout, degrading completeness smoothly — the protocol needs no
/// synchrony, only that "clock drifts \[be\] much smaller than the
/// protocol running time" (§6.3).
static DELAY: Figure = Figure {
    name: "ablation_delay",
    title: "Ablation: message delay jitter 1..=D rounds (N=200, defaults)",
    columns: "max delay,incompleteness,rounds,runs",
    csv: "max_delay,incompleteness,rounds,runs",
    points: |runs| {
        sweep(runs, &[1.0, 2.0, 3.0, 4.0], |c, d| {
            c.max_delay = Some(d as u64)
        })
    },
    rows: |cells| each(cells, |c| vec![c.label(), c.inc(), c.rounds(), c.runs()]),
    // reported, not enforced
    check: |cells| {
        let (first, last) = (&cells[0], &cells[cells.len() - 1]);
        let (at_1, at_4, holds) = (first.inc(), last.inc(), last.y() < 0.5);
        let line = format!("shape check: completeness degrades smoothly with jitter ({at_1} -> {at_4}), no collapse = {holds}");
        (true, line)
    },
    ..TABLE
};

/// Ablation — gossip fanout `M`.
///
/// The paper fixes `M = 2` ("A gossip round at a member consisted of
/// attempts to gossip with M randomly selected members", §7). This sweep
/// shows the completeness/message trade-off: higher fanout buys
/// completeness sub-linearly while messages grow linearly — why the
/// paper runs at a small constant fanout and spends rounds instead
/// (Figure 8's axis).
static FANOUT: Figure = Figure {
    name: "ablation_fanout",
    title: "Ablation: gossip fanout M (N=200, defaults otherwise)",
    columns: "M,incompleteness,messages,rounds,runs",
    csv: "fanout,incompleteness,messages,rounds,runs",
    points: |runs| sweep(runs, &[1.0, 2.0, 3.0, 4.0], |c, m| c.fanout = m as u32),
    rows: |cells| {
        each(cells, |c| {
            vec![c.label(), c.inc(), c.messages(), c.rounds(), c.runs()]
        })
    },
    // M=2 must beat M=1
    check: |cells| {
        let (one, two) = (cells[0].inc(), cells[1].inc());
        let line = format!("shape check: M=1 -> M=2 improves completeness ({one} -> {two}); diminishing returns beyond");
        (cells[1].y() <= cells[0].y(), line)
    },
    ..TABLE
};

/// Ablation — the grid box constant `K` on the full protocol.
///
/// Figure 5 studies `K` analytically for the first phase; this sweep
/// runs the whole protocol. Larger `K` means fewer, shorter phases but
/// bigger boxes and more sibling values per phase — the paper's fixed
/// `K = 4` sits in the sweet spot at `N = 200`.
static GRID_K: Figure = Figure {
    name: "ablation_k",
    title: "Ablation: grid box constant K (N=200, defaults otherwise)",
    columns: "K,phases,incompleteness,messages,rounds",
    csv: "k,phases,incompleteness,messages,rounds",
    points: |runs| sweep(runs, &[2.0, 4.0, 8.0, 16.0], |c, k| c.k = k as u8),
    rows: |cells| {
        each(cells, |c| {
            let phases = phases(c.p.cfg.n, c.p.cfg.k).to_string();
            vec![c.label(), phases, c.inc(), c.messages(), c.rounds()]
        })
    },
    check: |_| {
        let line = "all K values keep the protocol functional; rounds shrink with K (fewer phases)";
        (true, line.into())
    },
    ..TABLE
};

/// Phase profile — where does incompleteness come from?
///
/// Runs one simulation (see [`phase_profile`]) and reports, per phase:
/// how many members finished it missing components, the mean votes
/// covered, and the phase-end round distribution. This is the
/// diagnostic that motivated the reactive-reply exchange (DESIGN.md §6).
static PHASES: Figure = Figure {
    name: "phase_profile",
    title: "Phase profile (N=200, ucastl=0.25): component losses by phase",
    columns: "phase,members short,missing components,mean votes,last finish",
    csv: "phase,members_short,missing_components,mean_votes,last_finish",
    rows: |_| phase_profile().0,
    check: |_| {
        (
            true,
            format!("final mean completeness: {}", sci(phase_profile().1)),
        )
    },
    ..TABLE
};

/// The phase-profile rows and the final mean completeness of one
/// N = 200 run at `ucastl = 0.25` with no crashes. The run is not a
/// sweep cell because it needs the protocol instances back for their
/// per-member [`PhaseTrace`](gridagg_core::hiergossip::PhaseTrace),
/// which no [`RunReport`] carries; it takes a few milliseconds, so the
/// table and the completeness line each run it.
fn phase_profile() -> (Vec<Vec<String>>, f64) {
    use gridagg_core::hiergossip::{HierGossip, HierGossipConfig};
    use gridagg_core::protocol::AggregationProtocol;
    use gridagg_core::scope::ScopeIndex;
    use gridagg_core::Simulation;
    use gridagg_group::failure::{FailureModel, FailureProcess};
    use gridagg_group::view::View;
    use gridagg_group::{GroupBuilder, VoteDistribution};
    use gridagg_hierarchy::{FairHashPlacement, Hierarchy};
    use gridagg_simnet::loss::UniformLoss;
    use gridagg_simnet::network::{NetworkConfig, SimNetwork};

    let (n, seed) = (200usize, base_seed());
    let group = GroupBuilder::new(n)
        .votes(VoteDistribution::Index)
        .seed(seed)
        .build();
    let h = Hierarchy::for_group(4, n).expect("K=4, N=200 is a valid hierarchy");
    let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, seed));
    let protos: Vec<HierGossip<Average>> = group
        .members()
        .iter()
        .map(|m| HierGossip::new(m.id, m.vote, index.clone(), HierGossipConfig::default()))
        .collect();
    let loss = UniformLoss::new(0.25).expect("0.25 is a probability");
    let net = SimNetwork::new(NetworkConfig::default().with_loss(loss), seed);
    let failure = FailureProcess::new(FailureModel::None, n, seed);
    let truth = (n as f64 - 1.0) / 2.0; // mean of 0..n-1
    let (_, protos) = Simulation::new(net, protos, failure, seed, truth, 500).run_returning();

    let row = |phase: usize| {
        let (mut total, mut short, mut missing, mut votes, mut last) = (0, 0, 0, 0usize, 0);
        for t in protos.iter().flat_map(|p| &p.trace) {
            if t.phase == phase {
                total += 1;
                if t.known < t.expected {
                    short += 1;
                    missing += t.expected - t.known;
                }
                votes += t.votes;
                last = last.max(t.at);
            }
        }
        let mean_votes = format!("{:.1}", votes as f64 / total.max(1) as f64);
        let short = format!("{short}/{total}");
        vec![
            phase.to_string(),
            short,
            missing.to_string(),
            mean_votes,
            last.to_string(),
        ]
    };
    let completeness = protos
        .iter()
        .filter_map(|p| p.estimate().map(|e| e.completeness(n)));
    (
        (1..=h.phases()).map(row).collect(),
        completeness.sum::<f64>() / n as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_spec_table_is_well_formed() {
        for (i, fig) in FIGURES.iter().enumerate() {
            let name = fig.name;
            assert!(!names()[..i].contains(&name), "{name}: name used twice");
            assert_eq!(
                fig.csv.split(',').count(),
                fig.columns.split(',').count(),
                "{name}: CSV header and column list differ in width"
            );
            // points (hence rows) split evenly over the tables
            assert_eq!((fig.points)(2).len() % fig.tables.len(), 0, "{name}");
        }
        assert_eq!(run(&["fig99".to_string()], 1).unwrap_err(), "fig99");
    }
}
