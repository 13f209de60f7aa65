//! Network accounting.
//!
//! The paper's metrics are *message complexity*, *time complexity*, and
//! *completeness*. [`NetworkStats`] measures the first directly (messages
//! and bytes, split by fate) and records per-distance-bucket link load for
//! the §6.1 topology-aware claim ("messages in the initial phases of the
//! protocol would be restricted to travel short distances").

use crate::topology::DISTANCE_BUCKETS;

/// Counters accumulated by a [`crate::network::SimNetwork`] over one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages handed to the network by protocols.
    pub sent: u64,
    /// Messages actually delivered to their destination.
    pub delivered: u64,
    /// Messages dropped by the loss model.
    pub dropped_loss: u64,
    /// Bytes handed to the network.
    pub bytes_sent: u64,
    /// Bytes delivered.
    pub bytes_delivered: u64,
    /// Messages sent, bucketed by the sender→receiver distance (only
    /// populated when the network knows node positions).
    pub load_by_distance: [u64; DISTANCE_BUCKETS],
    /// Total hop count of all sent messages (distance-weighted load);
    /// only populated when positions are known.
    pub total_hops: u64,
    /// Largest number of messages simultaneously in flight at any point
    /// of the run — the network's buffering high-water mark, used by the
    /// bench baseline as a deterministic load proxy.
    pub peak_in_flight: u64,
}

impl NetworkStats {
    /// Fraction of sent traffic (messages) that fell in distance buckets
    /// `>= bucket` — "long-haul" load share.
    pub fn long_haul_share(&self, bucket: usize) -> f64 {
        let total: u64 = self.load_by_distance.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let far: u64 = self.load_by_distance[bucket.min(DISTANCE_BUCKETS - 1)..]
            .iter()
            .sum();
        far as f64 / total as f64
    }

    /// Merge another stats block into this one (used when aggregating
    /// multiple runs).
    pub fn merge(&mut self, other: &NetworkStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped_loss += other.dropped_loss;
        self.bytes_sent += other.bytes_sent;
        self.bytes_delivered += other.bytes_delivered;
        for (a, b) in self.load_by_distance.iter_mut().zip(other.load_by_distance) {
            *a += b;
        }
        self.total_hops += other.total_hops;
        // a high-water mark, not a flow count: the merged peak is the
        // worst single-run peak
        self.peak_in_flight = self.peak_in_flight.max(other.peak_in_flight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_haul_share() {
        let mut s = NetworkStats::default();
        s.load_by_distance[0] = 75;
        s.load_by_distance[7] = 25;
        assert!((s.long_haul_share(4) - 0.25).abs() < 1e-12);
        assert!((s.long_haul_share(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn long_haul_share_empty_is_zero() {
        assert_eq!(NetworkStats::default().long_haul_share(3), 0.0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = NetworkStats {
            sent: 1,
            delivered: 1,
            bytes_sent: 16,
            ..Default::default()
        };
        let b = NetworkStats {
            sent: 2,
            dropped_loss: 1,
            bytes_sent: 32,
            total_hops: 5,
            peak_in_flight: 9,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.sent, 3);
        assert_eq!(a.delivered, 1);
        assert_eq!(a.dropped_loss, 1);
        assert_eq!(a.bytes_sent, 48);
        assert_eq!(a.total_hops, 5);
        assert_eq!(a.peak_in_flight, 9, "peak merges as a max");
    }
}
