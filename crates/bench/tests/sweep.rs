//! Sweep executor integration: parallel execution must be
//! output-equivalent to serial execution on real protocol cells, and a
//! panicking cell must fail the whole sweep naming the cell.

use gridagg_bench::sweep::Sweep;
use gridagg_core::config::ExperimentConfig;
use gridagg_core::runner::{run_hiergossip, Protocol};
use gridagg_core::RunReport;

use gridagg_aggregate::Average;

fn protocol_cells() -> Sweep<RunReport> {
    let mut sweep = Sweep::new();
    for n in [64usize, 128] {
        let cfg = ExperimentConfig::paper_defaults().with_n(n);
        sweep.push_seeded(&format!("hier/n={n}"), 3, 50, move |seed| {
            run_hiergossip::<Average>(&cfg, seed)
        });
        sweep.push_seeded(&format!("flat/n={n}"), 2, 50, move |seed| {
            Protocol::FlatGossip.run::<Average>(&cfg, seed)
        });
    }
    sweep
}

#[test]
fn sweep_parallel_determinism() {
    // The whole point of the executor: results keyed by declaration
    // index, so jobs=4 is indistinguishable from jobs=1 — per-report,
    // field by field, float bits included.
    let serial = protocol_cells().run_with_jobs(1).expect("serial ok");
    let parallel = protocol_cells().run_with_jobs(4).expect("parallel ok");
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.rounds, p.rounds, "cell {i}: rounds");
        assert_eq!(s.net, p.net, "cell {i}: network stats");
        assert_eq!(s.outcomes, p.outcomes, "cell {i}: outcomes");
        assert_eq!(
            s.mean_completeness().unwrap_or(-1.0).to_bits(),
            p.mean_completeness().unwrap_or(-1.0).to_bits(),
            "cell {i}: completeness bits"
        );
    }
}

#[test]
fn panicking_protocol_cell_reports_its_id() {
    let mut sweep = protocol_cells();
    sweep.push("poison/n=0", || {
        // a deliberately broken cell: with_n(0) is rejected upstream,
        // simulate any cell-level panic
        panic!("simulated cell failure")
    });
    let err = sweep.run_with_jobs(4).expect_err("poisoned sweep fails");
    assert!(err.failures.iter().any(|(id, _)| id == "poison/n=0"));
    assert!(err.to_string().contains("simulated cell failure"));
}
