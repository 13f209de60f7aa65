//! Cluster assembly, outcome collection, and the [`RuntimeReport`].
//!
//! A [`Cluster`] binds the socket pool, shards members across worker
//! threads, and anchors every worker at a shared epoch so round
//! boundaries align cluster-wide. [`Cluster::join`] collects one
//! outcome per member, signals shutdown, joins every worker thread
//! (no thread or socket outlives the call), and folds the per-worker
//! counters into a [`RuntimeReport`] — the real-network mirror of the
//! simulator's `RunReport`.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gridagg_aggregate::wire::WireAggregate;
use gridagg_core::hiergossip::{HierGossip, HierGossipConfig};
use gridagg_core::protocol::AggregationProtocol;
use gridagg_core::scope::ScopeIndex;
use gridagg_group::MemberId;

use crate::endpoint::EndpointPool;
use crate::multiplex::{Worker, WorkerStats};
use crate::{MemberOutcome, RuntimeConfig, RuntimeError};

/// Aggregated result of one real-network cluster run: the per-member
/// outcomes plus the cluster-wide [`RuntimeReport`].
#[derive(Debug)]
pub struct ClusterRun<A> {
    /// One outcome per member, sorted by member id.
    pub outcomes: Vec<MemberOutcome<A>>,
    /// Cluster-wide wall-clock and wire observability.
    pub report: RuntimeReport,
}

/// The real-network mirror of the simulator's `RunReport`: wall-clock,
/// completeness, and wire-level counters of one cluster run.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Group size.
    pub n: usize,
    /// Sockets in the shared pool.
    pub sockets: usize,
    /// Worker threads that drove the shards.
    pub workers: usize,
    /// Epoch-to-last-outcome wall clock.
    pub wall: Duration,
    /// Members that reported an outcome before the collection deadline.
    pub reported: usize,
    /// Mean completeness over **all** `n` members (missing = 0).
    pub mean_completeness: f64,
    /// Minimum completeness (0 if any member failed to report).
    pub min_completeness: f64,
    /// Mean wall-clock rounds members ran before terminating.
    pub mean_rounds: f64,
    /// Largest round count any member reached.
    pub max_rounds_seen: u64,
    /// Merged per-worker wire counters.
    pub stats: WorkerStats,
}

impl RuntimeReport {
    /// Mean frames coalesced into each datagram (the multiplexing win).
    pub fn frames_per_datagram(&self) -> f64 {
        self.stats.frames_sent as f64 / (self.stats.datagrams_sent as f64).max(1.0)
    }
}

/// A launched cluster: members sharded over worker threads, gossiping
/// over the socket pool. Obtain one with [`Cluster::launch`], then
/// [`Cluster::join`] to collect outcomes and tear everything down.
#[derive(Debug)]
pub struct Cluster<A> {
    handles: Vec<JoinHandle<WorkerStats>>,
    done_rx: mpsc::Receiver<MemberOutcome<A>>,
    shutdown: Arc<AtomicBool>,
    addrs: Arc<Vec<SocketAddr>>,
    n: usize,
    sockets: usize,
    workers: usize,
    epoch: Instant,
    /// When [`Cluster::join`] stops waiting for outcomes.
    deadline: Instant,
}

impl<A: WireAggregate + Send + 'static> Cluster<A> {
    /// [`Cluster::launch_with`] a Hierarchical Gossiping instance per
    /// vote: member `i` votes `votes[i]`.
    ///
    /// # Errors
    ///
    /// As [`Cluster::launch_with`].
    ///
    /// # Panics
    ///
    /// Panics if `votes.len()` does not match the index population.
    pub fn launch(
        votes: Vec<f64>,
        index: Arc<ScopeIndex>,
        proto_cfg: HierGossipConfig,
        rt_cfg: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        assert_eq!(votes.len(), index.len(), "one vote per indexed member");
        let protocols = votes.into_iter().enumerate();
        let protocols = protocols
            .map(|(i, vote)| HierGossip::new(MemberId(i as u32), vote, index.clone(), proto_cfg));
        Self::launch_with(protocols, rt_cfg)
    }

    /// Shard the members across worker threads — member `i` runs the
    /// `i`-th of `protocols` (a `Vec`, or an iterator that builds each
    /// straight into its shard) — bind the socket pool, and start every
    /// member's round clock at a shared epoch.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BudgetExceeded`] when the member count exceeds
    /// `sockets × members_per_socket` — the configured multiplexing
    /// budget — and [`RuntimeError::Io`] for socket or thread-spawn
    /// failures. Failing loudly here is what keeps an over-subscribed
    /// cluster from hanging half-started.
    pub fn launch_with<P>(
        protocols: impl IntoIterator<Item = P>,
        rt_cfg: RuntimeConfig,
    ) -> Result<Self, RuntimeError>
    where
        P: AggregationProtocol<A> + Send + 'static,
    {
        // the one floor on the round length, for the workers and the
        // collector alike
        let mut rt_cfg = rt_cfg;
        rt_cfg.round_interval = rt_cfg.round_interval.max(Duration::from_micros(200));
        let sockets = rt_cfg.sockets.max(1);
        let workers = rt_cfg.workers.max(1).min(sockets);

        // Shard members: member -> home socket -> owning worker. The
        // same arithmetic the send path uses, so ownership is exclusive.
        // The member count is what the iterator yields, not its hint.
        let protocols = protocols.into_iter();
        let per_worker = protocols.size_hint().0.div_ceil(workers);
        let mut shards: Vec<Vec<(MemberId, P)>> = (0..workers)
            .map(|_| Vec::with_capacity(per_worker))
            .collect();
        let mut n = 0;
        for proto in protocols {
            let me = MemberId(n as u32);
            let sock = EndpointPool::home_socket(me.0, sockets);
            shards[sock % workers].push((me, proto));
            n += 1;
        }
        if n > rt_cfg.capacity() {
            return Err(RuntimeError::BudgetExceeded {
                members: n,
                sockets,
                members_per_socket: rt_cfg.members_per_socket.max(1),
            });
        }

        let pool = EndpointPool::bind(sockets)?;
        let addrs = pool.addrs();
        let socket_sets = pool.split(workers);

        let (done_tx, done_rx) = mpsc::channel::<MemberOutcome<A>>();
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut built = Vec::with_capacity(workers);
        for (w, (sockets_of, members)) in socket_sets.into_iter().zip(shards).enumerate() {
            built.push(Worker::new(
                w,
                sockets_of,
                addrs.clone(),
                members,
                n as u32,
                rt_cfg.clone(),
                done_tx.clone(),
                shutdown.clone(),
            ));
        }
        drop(done_tx);

        // Every worker exists, so every round clock is anchored at one
        // epoch read now: round 0 ends one round interval after the last
        // worker was built, and a thread that starts late catches up on
        // its due rounds, one a quarter interval.
        let epoch = Instant::now();
        let budget = rt_cfg
            .max_rounds
            .saturating_add(rt_cfg.linger_rounds)
            .saturating_add(16);
        let mut handles = Vec::with_capacity(workers);
        for (w, worker) in built.into_iter().enumerate() {
            let spawned = std::thread::Builder::new()
                .name(format!("gridagg-w{w}"))
                .spawn(move || worker.run(epoch));
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // Unwind anything already running before reporting.
                    shutdown.store(true, Ordering::Relaxed);
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(RuntimeError::Io(e));
                }
            }
        }

        Ok(Cluster {
            handles,
            done_rx,
            shutdown,
            addrs,
            n,
            sockets,
            workers,
            epoch,
            // the full round budget plus linger and slack: a wedged
            // worker must not hang the collector forever
            deadline: epoch
                + rt_cfg.round_interval * u32::try_from(budget).unwrap_or(u32::MAX)
                + Duration::from_secs(5),
        })
    }

    /// The socket pool's address table — where the cluster listens.
    /// Exposed so tests can throw hostile datagrams at a live cluster.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Collect one outcome per member (bounded by the round budget),
    /// signal shutdown, and join every worker thread. No worker thread
    /// or pool socket survives this call — the graceful-teardown
    /// property the lifecycle tests pin down.
    pub fn join(self) -> ClusterRun<A> {
        let Cluster {
            handles,
            done_rx,
            shutdown,
            n,
            sockets,
            workers,
            epoch,
            deadline,
            ..
        } = self;

        let mut outcomes: Vec<MemberOutcome<A>> = Vec::with_capacity(n);
        let mut last_done = epoch;
        while outcomes.len() < n {
            let now = Instant::now();
            let Some(wait) = deadline.checked_duration_since(now) else {
                break;
            };
            match done_rx.recv_timeout(wait) {
                Ok(o) => {
                    last_done = Instant::now();
                    outcomes.push(o);
                }
                Err(_) => break, // timeout or every worker already gone
            }
        }

        shutdown.store(true, Ordering::Relaxed);
        let mut stats = WorkerStats::default();
        for h in handles {
            if let Ok(s) = h.join() {
                stats.merge(&s);
            }
        }
        outcomes.sort_by_key(|o| o.member);

        let reported = outcomes.len();
        let mean_completeness =
            outcomes.iter().map(|o| o.completeness(n)).sum::<f64>() / (n as f64).max(1.0);
        let min_completeness = if reported < n {
            0.0
        } else {
            outcomes
                .iter()
                .map(|o| o.completeness(n))
                .fold(f64::INFINITY, f64::min)
                .min(1.0)
        };
        let mean_rounds =
            outcomes.iter().map(|o| o.rounds as f64).sum::<f64>() / (reported as f64).max(1.0);
        let max_rounds_seen = outcomes.iter().map(|o| o.rounds).max().unwrap_or(0);
        let report = RuntimeReport {
            n,
            sockets,
            workers,
            wall: last_done.saturating_duration_since(epoch),
            reported,
            mean_completeness,
            min_completeness,
            mean_rounds,
            max_rounds_seen,
            stats,
        };
        ClusterRun { outcomes, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridagg_aggregate::{Aggregate, Average};
    use gridagg_group::view::View;
    use gridagg_hierarchy::{FairHashPlacement, Hierarchy};

    fn index(n: usize) -> Arc<ScopeIndex> {
        let h = Hierarchy::for_group(4, n).expect("shape");
        ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, 9))
    }

    /// Member `i` votes `i`.
    fn votes(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    fn run(n: usize, cfg: RuntimeConfig) -> ClusterRun<Average> {
        Cluster::launch(votes(n), index(n), HierGossipConfig::default(), cfg)
            .expect("launch")
            .join()
    }

    #[test]
    fn udp_group_converges_on_loopback() {
        let n = 24;
        let run = run(n, RuntimeConfig::default());
        assert_eq!(run.outcomes.len(), n);
        let completeness = run.report.mean_completeness;
        assert!(
            completeness > 0.9,
            "loopback run incomplete: {completeness}"
        );
        // fully complete members computed the exact average
        let truth = (n as f64 - 1.0) / 2.0;
        for o in run.outcomes.iter().filter(|o| o.completeness(n) == 1.0) {
            let est = o.estimate.as_ref().and_then(|e| e.aggregate()).unwrap();
            assert!((est.summary() - truth).abs() < 1e-9);
        }
    }

    #[test]
    fn udp_group_tolerates_injected_loss() {
        let cfg = RuntimeConfig::default().with_uniform_loss(0.25);
        let completeness = run(24, cfg).report.mean_completeness;
        assert!(
            completeness > 0.7,
            "lossy loopback run collapsed: {completeness}"
        );
    }

    #[test]
    fn concurrent_groups_do_not_collide() {
        // ephemeral ports mean two groups can run side by side
        let run = |seed: u64| {
            let cfg = RuntimeConfig {
                seed,
                sockets: 4,
                ..Default::default()
            };
            run(8, cfg).outcomes
        };
        let (a, b) = std::thread::scope(|s| {
            let ta = s.spawn(|| run(1));
            let tb = s.spawn(|| run(2));
            (ta.join().expect("a"), tb.join().expect("b"))
        });
        assert_eq!(a.len(), 8);
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn budget_exceeded_fails_loudly_not_hangs() {
        let n = 40;
        let cfg = RuntimeConfig {
            sockets: 2,
            members_per_socket: 8,
            ..Default::default()
        };
        let err = Cluster::<Average>::launch(votes(n), index(n), HierGossipConfig::default(), cfg)
            .expect_err("over budget");
        // the message names the request and does the arithmetic for the
        // operator
        assert!(err.to_string().contains("40 members exceed"), "{err}");
        assert!(err.to_string().contains("(= 16 max)"), "{err}");
        match err {
            RuntimeError::BudgetExceeded {
                members,
                sockets,
                members_per_socket,
            } => {
                assert_eq!(members, 40);
                assert_eq!(sockets, 2);
                assert_eq!(members_per_socket, 8);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn report_reflects_multiplexed_wire_traffic() {
        let n = 24;
        let cfg = RuntimeConfig {
            sockets: 4,
            workers: 2,
            ..Default::default()
        };
        let r = &run(n, cfg).report;
        assert_eq!(r.n, n);
        assert_eq!(r.sockets, 4);
        assert!(r.workers <= 2);
        assert_eq!(r.reported, n, "every member reports");
        assert!(r.stats.frames_sent > 0);
        assert!(r.stats.datagrams_sent > 0);
        assert!(
            r.stats.datagrams_sent <= r.stats.frames_sent,
            "coalescing can only shrink the datagram count"
        );
        assert!(r.stats.wakeups > 0);
        assert!(r.mean_completeness > 0.9, "got {}", r.mean_completeness);
        assert!(r.wall > Duration::ZERO);
    }

    #[test]
    fn round_zero_is_anchored_at_launch() {
        let n = 64;
        let cfg = RuntimeConfig {
            sockets: 8,
            workers: 2,
            ..Default::default()
        };
        let cluster =
            Cluster::<Average>::launch(votes(n), index(n), HierGossipConfig::default(), cfg)
                .expect("launch");
        // the epoch is read once every worker exists, not set ahead of it
        assert!(cluster.epoch <= Instant::now());
        assert_eq!(cluster.join().report.reported, n, "every member reports");
    }

    #[test]
    fn flood_runs_on_the_generic_worker() {
        use gridagg_core::baselines::{Flood, FloodConfig};

        let n = 64;
        let protocols: Vec<Flood<Average>> = (0..n)
            .map(|i| Flood::new(MemberId(i as u32), i as f64, n, FloodConfig::default()))
            .collect();
        // one worker ticks every member in lockstep, so each vote lands
        // before any receiver's next round: nothing is lost to timing
        let cfg = RuntimeConfig {
            sockets: 4,
            workers: 1,
            ..Default::default()
        };
        let run = Cluster::launch_with(protocols, cfg).expect("launch").join();
        assert_eq!(run.report.reported, n, "every member reports");
        assert_eq!(run.report.mean_completeness, 1.0);
        let truth = Some((n as f64 - 1.0) / 2.0);
        for o in &run.outcomes {
            let value = o.estimate.as_ref().and_then(|e| e.aggregate());
            assert_eq!(value.map(Aggregate::summary), truth, "{:?}", o.member);
        }
    }
}
