//! Fork-join engine equivalence: a parallel run must be *byte-identical*
//! to the serial run — not statistically close, identical.
//!
//! The engine's contract (DESIGN.md §16) is that `engine_jobs` is a pure
//! execution knob: worker threads step disjoint member ranges, and a
//! serial replay phase applies every send to the network — and emits
//! every trace event — in exactly the order the serial engine would
//! have, so the single shared net RNG consumes an identical stream.
//!
//! These tests hold that contract across the whole protocol surface:
//! all five protocols with full trace recording, and the continuous
//! service under churn, each compared at engine threads 1 vs 2 vs 4 by
//! diffing the complete trace streams (every event, in order) and the
//! full `RunReport` (outcomes, network accounting, step counts), not
//! just summary aggregates.

use gridagg_aggregate::Average;
use gridagg_core::config::ExperimentConfig;
use gridagg_core::continuous::{run_continuous, ContinuousOptions, ContinuousProtocol};
use gridagg_core::periodic::VoteProcess;
use gridagg_core::runner::Protocol;
use gridagg_core::trace::RunTrace;
use gridagg_core::RunReport;
use gridagg_group::membership::ChurnModel;

const THREADS: [usize; 2] = [2, 4];

/// A lossy, crashy scenario: equivalence must survive the failure
/// process and loss draws, not just the happy path.
fn cfg(n: usize, jobs: usize) -> ExperimentConfig {
    let mut c = ExperimentConfig::paper_defaults()
        .with_n(n)
        .with_engine_jobs(jobs);
    c.pf = 0.01;
    c.validate().expect("scenario config is valid");
    c
}

/// Compare two traced runs field-by-field. The trace comparison walks
/// the streams event-by-event so a divergence names the first differing
/// index instead of dumping two multi-thousand-event vectors.
fn assert_identical(
    protocol: &str,
    jobs: usize,
    serial: &(RunReport, RunTrace),
    par: &(RunReport, RunTrace),
) {
    let (sr, st) = serial;
    let (pr, pt) = par;
    assert_eq!(
        format!("{sr:?}"),
        format!("{pr:?}"),
        "{protocol}: RunReport diverged at engine_jobs={jobs}"
    );
    assert_eq!(
        st.events.len(),
        pt.events.len(),
        "{protocol}: trace length diverged at engine_jobs={jobs}"
    );
    for (i, (a, b)) in st.events.iter().zip(&pt.events).enumerate() {
        assert_eq!(
            a,
            b,
            "{protocol}: trace event {i}/{} diverged at engine_jobs={jobs}",
            st.events.len()
        );
    }
}

#[test]
fn all_protocols_byte_identical_across_engine_threads() {
    let n = 192;
    let seed = 41;
    for p in Protocol::ALL {
        let name = p.name();
        let serial = p.run_traced::<Average>(&cfg(n, 1), seed);
        assert!(
            !serial.1.events.is_empty(),
            "{name}: traced serial run recorded no events — the comparison would be vacuous"
        );
        for jobs in THREADS {
            let par = p.run_traced::<Average>(&cfg(n, jobs), seed);
            assert_identical(name, jobs, &serial, &par);
        }
    }
}

#[test]
fn continuous_service_byte_identical_across_engine_threads() {
    let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
    opts.epochs = 6;
    opts.churn = ChurnModel {
        join_rate: 1.0,
        leave_prob: 0.01,
        crash_prob: 0.03,
        recover_prob: 0.5,
    };
    opts.votes = VoteProcess::RandomWalk { sigma: 0.5 };
    opts.recovery = 0.3;
    for protocol in [
        ContinuousProtocol::HierGossipRestart,
        ContinuousProtocol::FlowUpdating,
    ] {
        opts.protocol = protocol;
        let serial = run_continuous(&cfg(96, 1), &opts, 23);
        for jobs in THREADS {
            let par = run_continuous(&cfg(96, jobs), &opts, 23);
            assert_eq!(
                format!("{serial:?}"),
                format!("{par:?}"),
                "{protocol:?}: continuous outcome diverged at engine_jobs={jobs}"
            );
        }
    }
}
