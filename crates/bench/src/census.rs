//! Where a run's bytes go: every message a hierarchical gossip run
//! sends, split by payload kind and by field, each field measured with
//! the codec's own length functions.
//!
//! A [`Censused`] member forwards every call to the protocol it wraps
//! and, after each step, reads what the step queued in its
//! [`Outbox`] before the engine sends it. The simulator charges each
//! send [`Payload::wire_size`] whether the network then drops it or not,
//! so the census of a run sums to its `RunReport::net.bytes_sent`
//! exactly; [`run`] asserts that.

use std::cell::RefCell;
use std::rc::Rc;

use gridagg_aggregate::wire::{clamp_len, tagged_len, varint_len, WireAggregate};
use gridagg_aggregate::Tagged;
use gridagg_core::config::ExperimentConfig;
use gridagg_core::message::codec::{addr_len, mask_len};
use gridagg_core::message::{carried, Payload};
use gridagg_core::protocol::{AggregationProtocol, Ctx, Outbox};
use gridagg_core::runner::run_hiergossip_wrapped;
use gridagg_core::RunReport;
use gridagg_group::MemberId;
use gridagg_simnet::Round;

/// The payload kinds, in the codec's tag order.
pub const KINDS: [&str; 6] = ["vote", "agg", "final", "vote-batch", "agg-batch", "flow"];

/// The fields a payload's bytes are split into: the tag byte; an
/// address (base and code); an aggregate batch's presence mask or a
/// vote batch's count; vote owners' ids; contributor counts (a `Flow`'s
/// included); and values (votes, aggregate values, a `Flow`'s two
/// `f64`s).
pub const FIELDS: [&str; 6] = [
    "tag",
    "address",
    "mask/count",
    "vote ids",
    "vote counts",
    "values",
];

/// Messages and bytes by payload kind, the bytes by field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Census {
    /// Messages sent, by kind.
    pub messages: [u64; KINDS.len()],
    /// Bytes sent, by kind and field.
    pub bytes: [[u64; FIELDS.len()]; KINDS.len()],
}

impl Census {
    /// Count one sent `payload`.
    pub fn add<A: WireAggregate>(&mut self, payload: &Payload<A>) {
        let (kind, fields) = split(payload);
        self.messages[kind] += 1;
        for (sum, field) in self.bytes[kind].iter_mut().zip(fields) {
            *sum += field as u64;
        }
    }

    /// All bytes counted.
    pub fn total(&self) -> u64 {
        self.bytes.iter().flatten().sum()
    }
}

/// A contributor count's bytes and its value's, as `encode_tagged`
/// writes them.
fn count_and_value<A: WireAggregate>(agg: &Tagged<A>) -> [usize; 2] {
    let count = varint_len(clamp_len(agg.vote_count()));
    [count, tagged_len(agg) - count]
}

/// `payload`'s kind and its bytes by field.
fn split<A: WireAggregate>(payload: &Payload<A>) -> (usize, [usize; FIELDS.len()]) {
    let [tag, mut address, mut head, mut ids, mut counts, mut values] = [1, 0, 0, 0, 0, 0];
    let kind = match payload {
        Payload::Vote { member, .. } => {
            (ids, values) = (varint_len(member.0), 8);
            0
        }
        Payload::Agg { subtree, agg } => {
            address = addr_len(subtree);
            [counts, values] = count_and_value(agg);
            1
        }
        Payload::Final { agg } => {
            [counts, values] = count_and_value(agg);
            2
        }
        Payload::VoteBatch { votes, skip, .. } => {
            let mut carried_votes = 0;
            for (_, (member, _)) in carried(votes, *skip) {
                carried_votes += 1;
                ids += varint_len(member.0);
            }
            (head, values) = (varint_len(clamp_len(carried_votes)), 8 * carried_votes);
            3
        }
        Payload::AggBatch {
            parent,
            skip,
            slots,
            ..
        } => {
            (address, head) = (addr_len(parent), mask_len(parent.base()));
            for (_, agg) in carried(slots, *skip) {
                if let Some(agg) = agg {
                    let [count, value] = count_and_value(agg);
                    (counts, values) = (counts + count, values + value);
                }
            }
            4
        }
        Payload::Flow { influenced, .. } => {
            (counts, values) = (varint_len(clamp_len(influenced.len())), 16);
            5
        }
    };
    (kind, [tag, address, head, ids, counts, values])
}

/// A member that counts what each of its steps queues into the run's
/// shared [`Census`], and otherwise is the protocol it wraps.
#[derive(Debug)]
pub struct Censused<P> {
    inner: P,
    census: Rc<RefCell<Census>>,
}

impl<P> Censused<P> {
    fn count<A: WireAggregate>(&self, out: &Outbox<A>, queued_before: usize) {
        let mut census = self.census.borrow_mut();
        for (_, payload) in out.iter().skip(queued_before) {
            census.add(payload);
        }
    }
}

impl<A: WireAggregate, P: AggregationProtocol<A>> AggregationProtocol<A> for Censused<P> {
    fn on_round(&mut self, ctx: &mut Ctx<'_>, out: &mut Outbox<A>) {
        let queued = out.len();
        self.inner.on_round(ctx, out);
        self.count(out, queued);
    }

    fn on_message(
        &mut self,
        from: MemberId,
        payload: Payload<A>,
        ctx: &mut Ctx<'_>,
        out: &mut Outbox<A>,
    ) {
        let queued = out.len();
        self.inner.on_message(from, payload, ctx, out);
        self.count(out, queued);
    }

    fn estimate(&self) -> Option<&Tagged<A>> {
        self.inner.estimate()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn completed_at(&self) -> Option<Round> {
        self.inner.completed_at()
    }
}

/// One hierarchical gossip run of `cfg` on `seed`, censused: its report
/// and where its bytes went.
///
/// # Panics
///
/// Panics if `cfg` fails validation, or if the census does not sum to
/// the run's `bytes_sent`.
pub fn run<A: WireAggregate>(cfg: &ExperimentConfig, seed: u64) -> (RunReport, Census) {
    let census = Rc::new(RefCell::new(Census::default()));
    let report = run_hiergossip_wrapped::<A, _>(cfg, seed, |inner| Censused {
        inner,
        census: Rc::clone(&census),
    });
    let census = census.take();
    assert_eq!(
        census.total(),
        report.net.bytes_sent,
        "the census misses bytes the simulator charged"
    );
    (report, census)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridagg_aggregate::Average;
    use gridagg_core::runner::Protocol;

    #[test]
    fn a_censused_run_is_the_plain_run_and_sums_to_its_bytes() {
        let cfg = ExperimentConfig::paper_defaults().with_n(256);
        let plain = Protocol::HierGossip.run::<Average>(&cfg, 7);
        let (report, census) = run::<Average>(&cfg, 7);
        assert_eq!(report.net, plain.net);
        assert_eq!(report.outcomes, plain.outcomes);
        assert_eq!(census.messages.iter().sum::<u64>(), plain.net.sent);
        assert_eq!(census.total(), plain.net.bytes_sent);
        // a batch run sends batches only, and every byte of a batch is
        // in one of its fields
        let [vote_batch, agg_batch] = [3, 4].map(|kind| census.bytes[kind]);
        assert!(vote_batch[1] == 0 && vote_batch[3] > 0 && agg_batch[1] > 0);
        assert_eq!(census.messages[3] + census.messages[4], plain.net.sent);
    }
}
