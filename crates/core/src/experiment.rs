//! Multi-run experiments: parameter sweeps with parallel seeds.
//!
//! "Each point in these plots is the average of several runs of the
//! protocol" (§7). [`run_many`] executes a run function over seeds
//! `base..base+runs` in parallel (std scoped threads) and
//! [`summarize`] folds the reports into the statistics the figures plot.

use crate::metrics::RunReport;

/// Aggregated statistics over a batch of runs at one parameter point.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of runs.
    pub runs: usize,
    /// Mean of per-run mean incompleteness (the figures' y-axis).
    pub mean_incompleteness: f64,
    /// Sample standard deviation of per-run mean incompleteness.
    pub std_incompleteness: f64,
    /// Mean of per-run mean completeness (over completed members).
    pub mean_completeness: f64,
    /// Mean messages per run (message complexity).
    pub mean_messages: f64,
    /// Mean rounds to last completion (time complexity).
    pub mean_rounds: f64,
    /// Mean relative value error versus ground truth.
    pub mean_value_error: f64,
    /// Mean fraction of members that crashed.
    pub mean_crashed: f64,
}

/// Run `f(seed)` for `runs` seeds starting at `base_seed`, in parallel.
///
/// Reports come back ordered by seed, so the result is independent of
/// thread scheduling.
///
/// ```
/// use gridagg_core::{run_many, summarize};
/// use gridagg_core::config::ExperimentConfig;
/// use gridagg_core::runner::run_hiergossip;
/// use gridagg_aggregate::Average;
///
/// let cfg = ExperimentConfig::paper_defaults().with_n(32);
/// let reports = run_many(4, 1, |seed| run_hiergossip::<Average>(&cfg, seed));
/// let summary = summarize(&reports);
/// assert_eq!(summary.runs, 4);
/// assert!(summary.mean_completeness > 0.5);
/// ```
pub fn run_many<F>(runs: usize, base_seed: u64, f: F) -> Vec<RunReport>
where
    F: Fn(u64) -> RunReport + Sync,
{
    #[expect(
        clippy::disallowed_methods,
        reason = "thread count only partitions seed-ordered work; results are scheduling-independent (run_many_matches_sequential_execution)"
    )]
    let threads = std::thread::available_parallelism()
        .map_or(4, std::num::NonZero::get)
        .min(runs.max(1));
    let mut reports: Vec<Option<RunReport>> = (0..runs).map(|_| None).collect();
    let chunk = runs.div_ceil(threads.max(1));
    #[expect(
        clippy::disallowed_methods,
        reason = "scoped fan-out over per-seed runs; each run is a pure function of its seed"
    )]
    std::thread::scope(|scope| {
        for (t, slot) in reports.chunks_mut(chunk.max(1)).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (i, s) in slot.iter_mut().enumerate() {
                    let seed = base_seed + (t * chunk + i) as u64;
                    *s = Some(f(seed));
                }
            });
        }
    });
    reports
        .into_iter()
        .map(|r| r.expect("all runs filled"))
        .collect()
}

/// Fold a batch of reports into a [`Summary`].
///
/// Total over all inputs: an empty batch (or one where every member
/// crashed or timed out) folds to the degenerate "nothing learned"
/// summary — zero runs, incompleteness `1.0` — rather than panicking,
/// so sweeps over catastrophic parameter points stay well-defined.
pub fn summarize(reports: &[RunReport]) -> Summary {
    if reports.is_empty() {
        return Summary {
            runs: 0,
            mean_incompleteness: 1.0,
            std_incompleteness: 0.0,
            mean_completeness: 0.0,
            mean_messages: 0.0,
            mean_rounds: 0.0,
            mean_value_error: 0.0,
            mean_crashed: 0.0,
        };
    }
    let runs = reports.len();
    let incs: Vec<f64> = reports
        .iter()
        .map(super::metrics::RunReport::mean_incompleteness)
        .collect();
    let mean_inc = incs.iter().sum::<f64>() / runs as f64;
    let var = if runs > 1 {
        incs.iter().map(|x| (x - mean_inc).powi(2)).sum::<f64>() / (runs - 1) as f64
    } else {
        0.0
    };
    let mean_of =
        |g: &dyn Fn(&RunReport) -> f64| -> f64 { reports.iter().map(g).sum::<f64>() / runs as f64 };
    Summary {
        runs,
        mean_incompleteness: mean_inc,
        std_incompleteness: var.sqrt(),
        mean_completeness: mean_of(&|r| r.mean_completeness().unwrap_or(0.0)),
        mean_messages: mean_of(&|r| r.messages() as f64),
        mean_rounds: mean_of(&|r| r.last_completion().unwrap_or(r.rounds) as f64),
        mean_value_error: mean_of(&|r| r.mean_value_error().unwrap_or(0.0)),
        mean_crashed: mean_of(&|r| r.crashed() as f64 / r.n as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::runner::run_hiergossip;
    use gridagg_aggregate::Average;

    #[test]
    fn run_many_is_ordered_and_deterministic() {
        let cfg = ExperimentConfig::default().with_n(32);
        let a = run_many(4, 100, |seed| run_hiergossip::<Average>(&cfg, seed));
        let b = run_many(4, 100, |seed| run_hiergossip::<Average>(&cfg, seed));
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.net.sent, y.net.sent);
            assert_eq!(x.mean_incompleteness(), y.mean_incompleteness());
        }
    }

    #[test]
    fn run_many_matches_sequential_execution() {
        // Thread count and chunking must not affect results: the
        // parallel batch must equal a plain sequential loop over the
        // same seeds, report by report.
        let cfg = ExperimentConfig::default().with_n(32);
        let parallel = run_many(5, 300, |seed| run_hiergossip::<Average>(&cfg, seed));
        let sequential: Vec<_> = (300..305)
            .map(|seed| run_hiergossip::<Average>(&cfg, seed))
            .collect();
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.rounds, s.rounds);
            assert_eq!(p.net, s.net);
            assert_eq!(p.outcomes, s.outcomes);
        }
    }

    #[test]
    fn summarize_folds() {
        let cfg = {
            let mut c = ExperimentConfig::default().with_n(32).with_ucastl(0.0);
            c.pf = 0.0;
            c
        };
        let reports = run_many(3, 7, |seed| run_hiergossip::<Average>(&cfg, seed));
        let s = summarize(&reports);
        assert_eq!(s.runs, 3);
        assert_eq!(s.mean_incompleteness, 0.0);
        assert_eq!(s.mean_completeness, 1.0);
        assert!(s.mean_messages > 0.0);
        assert!(s.mean_rounds > 0.0);
        assert_eq!(s.mean_crashed, 0.0);
    }

    #[test]
    fn summarize_empty_is_total() {
        let s = summarize(&[]);
        assert_eq!(s.runs, 0);
        assert_eq!(s.mean_incompleteness, 1.0);
        assert_eq!(s.mean_completeness, 0.0);
        assert!(s.mean_messages == 0.0 && s.mean_rounds == 0.0);
    }

    #[test]
    fn summarize_total_when_every_member_crashes() {
        // pf = 1.0: every member crashes in round 0 of every run
        let cfg = ExperimentConfig::default().with_n(32).with_pf(1.0);
        let reports = run_many(3, 17, |seed| run_hiergossip::<Average>(&cfg, seed));
        for r in &reports {
            assert_eq!(r.completed(), 0, "nobody can complete at pf=1.0");
        }
        let s = summarize(&reports);
        assert_eq!(s.runs, 3);
        assert_eq!(s.mean_crashed, 1.0);
        assert_eq!(s.mean_completeness, 0.0);
        assert_eq!(s.mean_incompleteness, 1.0);
        assert!(s.mean_value_error == 0.0, "no estimates, no error");
        assert!(
            s.mean_rounds.is_finite() && s.mean_messages.is_finite(),
            "summary must stay finite when all members crash"
        );
    }
}
