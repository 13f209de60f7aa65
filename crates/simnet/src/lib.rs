//! # gridagg-simnet
//!
//! A deterministic, round-based lossy network simulator: the substrate on
//! which the DSN 2001 *Hierarchical Gossiping* experiments run.
//!
//! The paper evaluates its protocol "over a simulated lossy network with
//! fail-prone machines". This crate reproduces that substrate:
//!
//! * **Rounds** — time advances in discrete gossip rounds ([`Round`]).
//! * **Loss models** ([`loss`]) — independent unicast loss `ucastl`,
//!   *soft partitions* with correlated cross-partition loss `partl`
//!   (paper §7, Figure 9), and distance-dependent loss for the
//!   topologically-aware experiments.
//! * **Delay models** ([`delay`]) — next-round delivery by default, with
//!   uniform/geometric jitter available for asynchrony experiments.
//! * **No bandwidth cap** — the paper assumes "a maximum network
//!   bandwidth constraint" per member; each protocol keeps it itself
//!   (its gossip fanout, or its own per-round caps), so the network
//!   counts every send and drops only what the loss model drops.
//! * **Determinism** — all randomness flows from a seeded, splittable
//!   [`rng::DetRng`], so every run is exactly reproducible from its seed.
//!
//! # Example
//!
//! ```
//! use gridagg_simnet::{network::{SimNetwork, NetworkConfig}, NodeId, loss::UniformLoss};
//!
//! let cfg = NetworkConfig::default().with_loss(UniformLoss::new(0.25).unwrap());
//! let mut net: SimNetwork<&'static str> = SimNetwork::new(cfg, 42);
//! net.send(0, NodeId(0), NodeId(1), "hello", 16);
//! let delivered = net.drain(1);
//! // with 25% loss the message may or may not arrive, deterministically per seed
//! assert!(delivered.len() <= 1);
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub mod bitset;
pub mod delay;
pub mod loss;
pub mod network;
pub mod rng;
pub mod stats;
pub mod topology;

/// A discrete gossip round. Round 0 is the first round of a run.
pub type Round = u64;

/// Identifier of a simulated node (process, sensor, group member).
///
/// Node ids are dense indices in `0..n` for a group of `n` members; the
/// group layer maps them to "globally unique identifiers" via hashing, as
/// the paper assumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a dense `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "M{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from(7u32);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "M7");
    }

    #[test]
    fn node_id_ordering_follows_index() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId::default(), NodeId(0));
    }
}
