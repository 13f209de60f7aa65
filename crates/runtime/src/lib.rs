//! # gridagg-runtime
//!
//! A **multiplexed real-network runtime** for any aggregation protocol:
//! thousands of group members share a small pool of UDP sockets and
//! worker threads, gossip rounds are wall-clock timer ticks, and
//! messages are the binary wire form from
//! `gridagg_core::message::codec` — no simulator in the loop.
//!
//! Workers call the simulator's own protocol step,
//! [`gridagg_core::protocol::step`], with a socket effect target, so the
//! code path evaluated in the paper's figures is the code path that runs
//! on sockets here — for Hierarchical Gossiping ([`Cluster::launch`]) or
//! any `AggregationProtocol` ([`Cluster::launch_with`]). That separation
//! — pure protocol logic, swap the harness — is the core design property
//! this crate demonstrates, now at 10,000-member scale on loopback.
//!
//! ## Architecture
//!
//! - [`endpoint`] — the shared socket pool, the per-frame demux header
//!   (`dst | src | len | payload`) that lets one socket serve many
//!   members, and fault injection (loss models + reorder) at the socket
//!   boundary.
//! - [`multiplex`] — the sharded event loop: each worker thread owns a
//!   disjoint subset of sockets and the members homed on them, delivers
//!   each received frame to its member as it is read, coalesces the
//!   frames it sends per destination socket, and keeps per-worker
//!   counters.
//! - [`timer`] — a timer wheel only the benchmark package reads; each
//!   worker times its rounds with one round count anchored at the
//!   cluster's epoch, so round boundaries align across workers.
//! - [`cluster`] — assembly, outcome collection, graceful teardown, and
//!   the [`cluster::RuntimeReport`] mirroring the
//!   simulator's `RunReport`.
//!
//! ```no_run
//! use gridagg_runtime::{Cluster, RuntimeConfig};
//! use gridagg_core::hiergossip::HierGossipConfig;
//! use gridagg_core::scope::ScopeIndex;
//! use gridagg_group::view::View;
//! use gridagg_hierarchy::{FairHashPlacement, Hierarchy};
//! use gridagg_aggregate::Average;
//!
//! # fn demo() -> Result<(), gridagg_runtime::RuntimeError> {
//! let n = 32;
//! let h = Hierarchy::for_group(4, n).unwrap();
//! let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, 1));
//! let votes: Vec<f64> = (0..n).map(|i| i as f64).collect();
//! let cluster = Cluster::<Average>::launch(
//!     votes,
//!     index,
//!     HierGossipConfig::default(),
//!     RuntimeConfig::default(),
//! )?;
//! let run = cluster.join();
//! assert_eq!(run.outcomes.len(), 32);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub mod cluster;
pub mod endpoint;
pub mod multiplex;
pub mod timer;

use std::sync::Arc;
use std::time::Duration;

use gridagg_aggregate::wire::WireAggregate;
use gridagg_aggregate::Tagged;
use gridagg_group::MemberId;
use gridagg_simnet::loss::{LossModel, UniformLoss};

pub use cluster::{Cluster, ClusterRun, RuntimeReport};
pub use multiplex::WorkerStats;

/// Wall-clock and multiplexing parameters of a real-network cluster.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Length of one gossip round; a cluster raises a shorter one to
    /// 200 µs.
    pub round_interval: Duration,
    /// Safety cap: a member gives up after this many rounds even if the
    /// protocol has not terminated.
    pub max_rounds: u64,
    /// Seed for per-member randomness (gossipee selection, injected
    /// faults). The run is *not* globally deterministic — real
    /// schedulers and sockets interleave freely — but member-local
    /// choices are.
    pub seed: u64,
    /// How long terminated members linger to keep answering stragglers'
    /// pushes before retiring, in rounds.
    pub linger_rounds: u64,
    /// Size of the shared UDP socket pool members multiplex over.
    pub sockets: usize,
    /// Worker threads driving the member shards (capped at the socket
    /// count; each worker owns the sockets `s` with `s % workers == w`).
    pub workers: usize,
    /// Multiplexing budget: at most `sockets × members_per_socket`
    /// members may share the pool. Exceeding it is a loud
    /// [`RuntimeError::BudgetExceeded`], never a hang.
    pub members_per_socket: usize,
    /// Byte cap per coalesced datagram (≈ one MTU of frames).
    pub max_datagram: usize,
    /// After this many rounds without any inbound traffic, a round
    /// resends the frames its own step sent (0 disables
    /// retry-on-silence).
    pub retry_silent_rounds: u64,
    /// Channel loss injected at the socket boundary — any simulator
    /// [`LossModel`] (`None` = perfect channel).
    pub loss: Option<Arc<dyn LossModel>>,
    /// Per-datagram probability of being held back behind the next
    /// datagram (pairwise reorder at the socket boundary).
    pub reorder: f64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            round_interval: Duration::from_millis(5),
            max_rounds: 400,
            seed: 1,
            linger_rounds: 20,
            sockets: 16,
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            members_per_socket: 256,
            max_datagram: 1400,
            retry_silent_rounds: 2,
            loss: None,
            reorder: 0.0,
        }
    }
}

impl RuntimeConfig {
    /// Inject uniform i.i.d. loss with probability `p` at the socket
    /// boundary — the `ucastl` knob of the paper's simulations, applied
    /// to real datagrams.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability in `[0, 1]`.
    #[must_use]
    pub fn with_uniform_loss(mut self, p: f64) -> Self {
        self.loss = Some(Arc::new(
            UniformLoss::new(p).expect("probability in [0, 1]"),
        ));
        self
    }

    /// Largest group the configured pool may host.
    pub fn capacity(&self) -> usize {
        self.sockets
            .max(1)
            .saturating_mul(self.members_per_socket.max(1))
    }
}

/// Why a cluster could not run.
#[derive(Debug)]
pub enum RuntimeError {
    /// Socket or thread-spawn I/O failure.
    Io(std::io::Error),
    /// The requested member count exceeds the multiplexing budget
    /// (`sockets × members_per_socket`). Raise the budget or shrink the
    /// group; the runtime refuses to over-subscribe and hang.
    BudgetExceeded {
        /// Members requested.
        members: usize,
        /// Sockets in the configured pool.
        sockets: usize,
        /// Configured members-per-socket budget.
        members_per_socket: usize,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Io(e) => write!(f, "runtime I/O failure: {e}"),
            RuntimeError::BudgetExceeded {
                members,
                sockets,
                members_per_socket,
            } => write!(
                f,
                "{members} members exceed the multiplexing budget of \
                 {sockets} sockets x {members_per_socket} members/socket \
                 (= {} max); raise RuntimeConfig::sockets or members_per_socket",
                sockets * members_per_socket
            ),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Io(e) => Some(e),
            RuntimeError::BudgetExceeded { .. } => None,
        }
    }
}

impl From<std::io::Error> for RuntimeError {
    fn from(e: std::io::Error) -> Self {
        RuntimeError::Io(e)
    }
}

/// One member's outcome of a real-network run.
#[derive(Debug, Clone)]
pub struct MemberOutcome<A> {
    /// The member.
    pub member: MemberId,
    /// Its final estimate, if the protocol terminated in time.
    pub estimate: Option<Tagged<A>>,
    /// Wall-clock rounds the member ran before terminating.
    pub rounds: u64,
}

impl<A: WireAggregate> MemberOutcome<A> {
    /// Completeness of the estimate over a group of `n` (0 when the
    /// member never finished).
    pub fn completeness(&self, n: usize) -> f64 {
        self.estimate.as_ref().map_or(0.0, |e| e.completeness(n))
    }
}
