//! `run_experiment` — run any protocol at any parameter point from the
//! command line.
//!
//! ```console
//! $ run_experiment protocol=hiergossip n=800 ucastl=0.3 runs=20
//! $ run_experiment protocol=centralized n=400 pf=0.01
//! $ run_experiment protocol=hiergossip n=200 partl=0.6 aggregate=max
//! $ run_experiment protocol=leader committee=3 seed=7
//! ```
//!
//! Accepted keys (defaults are the paper's §7 values):
//! `protocol` (hiergossip|flood|centralized|leader|flatgossip),
//! `aggregate` (average|sum|count|min|max|meanvar|histogram|topk),
//! `n`, `k`, `m` (fanout), `c` (round factor), `rounds_per_phase`,
//! `ucastl`, `partl`, `pf`, `runs`, `seed`, `committee`,
//! `partial_view`, `n_estimate`, `start_spread`, `max_delay`,
//! `topo` (true/false), `early_bump` (true/false), `batch` (true/false).

use gridagg_aggregate::wire::WireAggregate;
use gridagg_aggregate::{Average, Count, Histogram16, Max, MeanVar, Min, Sum, TopK};
use gridagg_bench::sweep::Sweep;
use gridagg_bench::{print_table, sci};
use gridagg_core::config::ExperimentConfig;
use gridagg_core::runner::Protocol;
use gridagg_core::summarize;

fn parse_args() -> Result<std::collections::BTreeMap<String, String>, String> {
    let mut map = std::collections::BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" || arg == "help" {
            return Err("help".to_string());
        }
        // worker-count flag, consumed by the sweep executor (which
        // re-reads argv); tolerated here so `--jobs 4` composes with
        // the key=value grammar
        if arg == "--jobs" {
            if args.next().is_none() {
                return Err("expected a worker count after --jobs".to_string());
            }
            continue;
        }
        if arg.starts_with("--jobs=") {
            continue;
        }
        let Some((k, v)) = arg.split_once('=') else {
            return Err(format!("argument `{arg}` is not key=value"));
        };
        map.insert(k.to_string(), v.to_string());
    }
    Ok(map)
}

fn get<T: std::str::FromStr>(
    args: &std::collections::BTreeMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    match args.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("could not parse {key}={v}")),
    }
}

fn run<A: WireAggregate>(cfg: &ExperimentConfig, protocol: Protocol, runs: usize, seed: u64) {
    let cfg = *cfg;
    let mut sweep = Sweep::new();
    sweep.push_seeded(protocol.name(), runs, seed, move |s| {
        protocol.run::<A>(&cfg, s)
    });
    let reports = sweep.run_or_exit("run_experiment");
    let s = summarize(&reports);
    print_table(
        &format!(
            "{} at N={} ({} runs, base seed {seed})",
            protocol.name(),
            cfg.n,
            runs
        ),
        &["metric", "value"],
        &[
            vec!["mean incompleteness".into(), sci(s.mean_incompleteness)],
            vec!["std incompleteness".into(), sci(s.std_incompleteness)],
            vec![
                "mean completeness".into(),
                format!("{:.6}", s.mean_completeness),
            ],
            vec!["mean messages".into(), format!("{:.0}", s.mean_messages)],
            vec![
                "messages / member".into(),
                format!("{:.1}", s.mean_messages / cfg.n as f64),
            ],
            vec!["mean rounds".into(), format!("{:.1}", s.mean_rounds)],
            vec!["mean value error".into(), sci(s.mean_value_error)],
            vec!["crashed fraction".into(), format!("{:.4}", s.mean_crashed)],
        ],
    );
}

fn main() {
    if let Err(e) = real_main() {
        if e == "help" {
            println!("{}", HELP);
            return;
        }
        eprintln!("error: {e}\n\n{}", HELP);
        std::process::exit(2);
    }
}

const HELP: &str = "usage: run_experiment [key=value ...] [--jobs J] — see the module docs; \
keys: protocol aggregate n k m c rounds_per_phase ucastl partl pf runs seed \
committee partial_view n_estimate start_spread max_delay topo early_bump batch";

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let mut cfg = ExperimentConfig::paper_defaults();
    if let Some(n) = get(&args, "n")? {
        cfg.n = n;
    }
    if let Some(k) = get(&args, "k")? {
        cfg.k = k;
    }
    if let Some(m) = get(&args, "m")? {
        cfg.fanout = m;
    }
    if let Some(c) = get(&args, "c")? {
        cfg.round_factor = c;
    }
    if let Some(r) = get(&args, "rounds_per_phase")? {
        cfg.rounds_per_phase = Some(r);
    }
    if let Some(u) = get(&args, "ucastl")? {
        cfg.ucastl = u;
    }
    if let Some(p) = get(&args, "partl")? {
        cfg.partl = Some(p);
    }
    if let Some(p) = get(&args, "pf")? {
        cfg.pf = p;
    }
    if let Some(v) = get(&args, "partial_view")? {
        cfg.partial_view = Some(v);
    }
    if let Some(e) = get(&args, "n_estimate")? {
        cfg.n_estimate = Some(e);
    }
    if let Some(sp) = get(&args, "start_spread")? {
        cfg.start_spread = Some(sp);
    }
    if let Some(d) = get(&args, "max_delay")? {
        cfg.max_delay = Some(d);
    }
    if let Some(t) = get(&args, "topo")? {
        cfg.topo_aware = t;
    }
    if let Some(b) = get(&args, "early_bump")? {
        cfg.early_bump = b;
    }
    if let Some(b) = get(&args, "batch")? {
        cfg.batch_exchange = b;
    }
    cfg.validate()?;

    let runs: usize = get(&args, "runs")?.unwrap_or(10);
    let seed: u64 = get(&args, "seed")?.unwrap_or(2001);
    let name = args.get("protocol").map_or("hiergossip", String::as_str);
    let committee = get(&args, "committee")?.unwrap_or(1);
    let protocol = match Protocol::from_name(name) {
        Some(Protocol::Leader { .. }) => Protocol::Leader { committee },
        Some(protocol) => protocol,
        None => return Err(format!("unknown protocol `{name}`")),
    };
    let aggregate = args
        .get("aggregate")
        .map(String::as_str)
        .unwrap_or("average");
    match aggregate {
        "average" => run::<Average>(&cfg, protocol, runs, seed),
        "sum" => run::<Sum>(&cfg, protocol, runs, seed),
        "count" => run::<Count>(&cfg, protocol, runs, seed),
        "min" => run::<Min>(&cfg, protocol, runs, seed),
        "max" => run::<Max>(&cfg, protocol, runs, seed),
        "meanvar" => run::<MeanVar>(&cfg, protocol, runs, seed),
        "histogram" => run::<Histogram16>(&cfg, protocol, runs, seed),
        "topk" => run::<TopK>(&cfg, protocol, runs, seed),
        other => return Err(format!("unknown aggregate `{other}`")),
    }
    Ok(())
}
