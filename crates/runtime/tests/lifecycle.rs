//! Graceful shutdown: repeated cluster start/stop must leak neither
//! worker threads nor sockets.
//!
//! `Cluster::join` joins every worker thread before returning, and the
//! pool sockets are owned by the workers, so both counts must return
//! to their pre-run values after each run. Counted via procfs, so the
//! check is Linux-only (which covers CI).

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::Duration;

use gridagg_aggregate::Average;
use gridagg_core::hiergossip::HierGossipConfig;
use gridagg_core::scope::ScopeIndex;
use gridagg_group::view::View;
use gridagg_hierarchy::{FairHashPlacement, Hierarchy};
use gridagg_runtime::{Cluster, RuntimeConfig};

fn index(n: usize) -> Arc<ScopeIndex> {
    let h = Hierarchy::for_group(4, n).expect("shape");
    ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, 3))
}

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// The thread count once it is back to `want`, or as it reads after
/// 2 s: a joined thread can still be counted until the kernel reaps it,
/// while a leaked one never leaves.
fn thread_count_settled_at(want: usize) -> usize {
    for _ in 0..200 {
        if thread_count() == want {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    thread_count()
}

fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .count()
}

fn one_run(seed: u64) {
    let n = 16;
    let votes: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let cfg = RuntimeConfig {
        sockets: 4,
        workers: 2,
        seed,
        round_interval: Duration::from_millis(2),
        ..Default::default()
    };
    let run = Cluster::<Average>::launch(votes, index(n), HierGossipConfig::default(), cfg)
        .expect("cluster launches")
        .join();
    assert_eq!(run.report.reported, n);
}

#[test]
fn repeated_start_stop_leaks_no_threads_or_sockets() {
    // Warm-up: lazy std/test-harness initialization must not count
    // against the first measured run.
    one_run(100);

    let threads_before = thread_count();
    let fds_before = fd_count();
    for seed in 0..3 {
        one_run(seed);
        assert_eq!(
            thread_count_settled_at(threads_before),
            threads_before,
            "worker thread leaked by run {seed}"
        );
        assert_eq!(fd_count(), fds_before, "socket fd leaked by run {seed}");
    }
}
