//! Multi-run experiments: the statistics over several seeds.
//!
//! "Each point in these plots is the average of several runs of the
//! protocol" (§7). [`summarize`] folds the reports of one parameter
//! point into the statistics the figures plot. A run is a pure function
//! of its config and seed, so the caller picks how to run the seeds:
//! a plain map, or the bench crate's `Sweep` pool, which returns its
//! results in declaration order.

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
    fn summarize_folds() {
        let cfg = {
            let mut c = ExperimentConfig::default().with_n(32).with_ucastl(0.0);
            c.pf = 0.0;
            c
        };
        let reports: Vec<_> = (7..10)
            .map(|seed| run_hiergossip::<Average>(&cfg, seed))
            .collect();
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
        let reports: Vec<_> = (17..20)
            .map(|seed| run_hiergossip::<Average>(&cfg, seed))
            .collect();
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
