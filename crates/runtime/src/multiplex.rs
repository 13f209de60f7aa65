//! The sharded event loop: one worker thread drives many members.
//!
//! A `Worker` owns a disjoint subset of the socket pool and, with it,
//! the shard of members homed on those sockets. Its loop:
//!
//! 1. **drain and deliver** — poll every owned socket non-blocking and
//!    hand each frame to its member's protocol [`step`] where it lands,
//!    once it has been parsed for the group: [`FrameIter`] the header,
//!    [`codec::decode_for`] the payload, each rejecting what is garbage
//!    or outside the group as a `DecodeError` value, counted not
//!    panicked; the gossip the delivery produced is encoded into the
//!    coalescer at once;
//! 2. **tick** — pop due round deadlines off the [`TimerWheel`] and run
//!    each member's round [`step`] (plus termination, linger, and
//!    retry-on-silence bookkeeping);
//! 3. **flush** — seal the frames coalesced per destination socket into
//!    datagrams, route them through the [`FaultInjector`], and put them
//!    on the wire;
//! 4. **sleep** until the next deadline (bounded by a short poll cap so
//!    inbound traffic is never stalled a full round).
//!
//! The worker runs any [`AggregationProtocol`]: [`step`] is the
//! simulator's own protocol step, and what differs on sockets is only
//! its effect target, `Sends` — encode once per fan-out, inject loss,
//! coalesce, and on a retry step keep the frame for its resends.
//!
//! Everything a member needs lives in its `MemberSlot`; what a worker
//! reuses across wakeups (receive buffer, outbox, encode buffer, resend
//! buffer, datagram buffers, free list) is scratch. A retry-on-silence
//! round resends the frames its own step sent, so no member keeps
//! frames between steps. The loop still allocates for what it carries:
//! each decoded payload's `Arc` bodies (an aggregate batch is one per
//! entry) and the rows and aggregates `on_message` / `on_round` build.
//! Launching and running the `udp-sat-4k` cluster (4096 members on one
//! worker, 10 % loss, seed 7) makes about 697k allocations; it made
//! 734k while every member kept up to 16 frame buffers for retries.
//!
//! What members *keep* is shared, as in the simulator: a worker's
//! `SharedAggs` table answers every decoded aggregate whose wire bytes
//! it has seen with the `Arc` it handed out before, so members that
//! hold the same aggregate hold one copy of it. Equal encodings are
//! equal values, and no protocol compares a `Tagged`'s identity or
//! writes through a shared one, so every protocol decision is unchanged.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gridagg_aggregate::wire::{encode_tagged, WireAggregate};
use gridagg_aggregate::Tagged;
use gridagg_core::message::codec;
use gridagg_core::protocol::{step, AggregationProtocol, Effects, Outbox};
use gridagg_core::Payload;
use gridagg_group::MemberId;
use gridagg_simnet::network::Envelope;
use gridagg_simnet::rng::DetRng;
use gridagg_simnet::Round;

use crate::endpoint::{frame_len, push_frame, FaultInjector, Frame, FrameIter, MAX_FRAME_PAYLOAD};
use crate::timer::TimerWheel;
use crate::{MemberOutcome, RuntimeConfig};

/// Cap on the frames a retry-on-silence round resends.
const RETRY_FRAME_CAP: usize = 16;

/// Wire bytes sent between inbound drains. Loopback `send_to` delivers
/// straight into the destination socket's kernel receive queue
/// (`rmem_default` ≈ 208 KB), so a worker that emits a multi-megabyte
/// round burst before reading again overflows those queues and the
/// kernel drops datagrams silently — loss far above the injected rate,
/// invisible to every counter here. Draining after every 64 KB of
/// sends keeps each receive queue shallow no matter the burst size.
const DRAIN_EVERY_BYTES: u64 = 64 * 1024;

/// The shared-aggregate table sweeps on reaching twice what its last
/// sweep left, and never below `2 × SHARED_FLOOR` entries.
const SHARED_FLOOR: usize = 1024;

/// Per-worker observability counters, merged into the
/// [`RuntimeReport`](crate::cluster::RuntimeReport) at teardown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Datagrams the kernel accepted.
    pub datagrams_sent: u64,
    /// Datagrams received off the wire.
    pub datagrams_recv: u64,
    /// Protocol frames sent (several frames coalesce into one datagram).
    pub frames_sent: u64,
    /// Protocol frames received and demultiplexed.
    pub frames_recv: u64,
    /// Datagrams that carried more than one coalesced frame.
    pub batched_sends: u64,
    /// Wire bytes of the datagrams sent (headers included).
    pub bytes_sent: u64,
    /// Event-loop iterations.
    pub wakeups: u64,
    /// Always 0: a frame is delivered where it lands, so no member ever
    /// has mail waiting. Kept because the benchmark's
    /// `runtime.mailbox_high_water` reads it.
    pub mailbox_high_water: u64,
    /// Retry-on-silence frame resends.
    pub retries: u64,
    /// Frames dropped by the injected loss model.
    pub injected_drops: u64,
    /// Datagrams held back and swapped by the reorder injector.
    pub reordered: u64,
    /// Frames or payloads rejected by the decoders (`DecodeError`s).
    pub decode_errors: u64,
    /// What the send path lost: datagrams `send_to` refused, and
    /// payloads too long for a frame, which are never coalesced.
    pub send_errors: u64,
    /// Well-formed frames addressed to members this worker does not own.
    pub stray_frames: u64,
    /// Mid-burst receive drains: times a flush had put
    /// `DRAIN_EVERY_BYTES` on the wire since it last read its sockets.
    pub backpressure_drains: u64,
    /// Aggregates decoded from admitted payloads (an aggregate batch
    /// counts each entry).
    pub aggregates_decoded: u64,
    /// Decoded aggregates replaced by the copy the worker already
    /// shares with its members (same wire bytes).
    pub aggregates_shared: u64,
}

impl WorkerStats {
    /// Accumulate `other` into `self` (counters add, high-waters max).
    pub fn merge(&mut self, other: &WorkerStats) {
        self.datagrams_sent += other.datagrams_sent;
        self.datagrams_recv += other.datagrams_recv;
        self.frames_sent += other.frames_sent;
        self.frames_recv += other.frames_recv;
        self.batched_sends += other.batched_sends;
        self.bytes_sent += other.bytes_sent;
        self.wakeups += other.wakeups;
        self.mailbox_high_water = self.mailbox_high_water.max(other.mailbox_high_water);
        self.retries += other.retries;
        self.injected_drops += other.injected_drops;
        self.reordered += other.reordered;
        self.decode_errors += other.decode_errors;
        self.send_errors += other.send_errors;
        self.stray_frames += other.stray_frames;
        self.backpressure_drains += other.backpressure_drains;
        self.aggregates_decoded += other.aggregates_decoded;
        self.aggregates_shared += other.aggregates_shared;
    }
}

/// Everything one member needs inside its worker's shard.
struct MemberSlot<P> {
    id: MemberId,
    proto: P,
    rng: DetRng,
    /// Completed wall-clock rounds.
    round: u64,
    /// Round of the most recent inbound message (for retry-on-silence).
    last_rx_round: u64,
    reported: bool,
    linger_left: u64,
    retired: bool,
}

/// The frames a retry step sends, kept for its resends: the first
/// `RETRY_FRAME_CAP` payloads back to back in `bytes`, each listed in
/// `frames` as `(dst, end offset in bytes)`. Worker scratch, emptied
/// after every step.
#[derive(Default)]
struct Resend {
    frames: Vec<(u32, usize)>,
    bytes: Vec<u8>,
}

/// The socket side of one member's [`step`]: the send path. Every
/// protocol message is encoded (once per fan-out), loss-filtered and
/// coalesced here, and on a retry step kept for its resends.
struct Sends<'a> {
    /// The worker's [`Resend`] buffer on a retry step, `None` otherwise.
    resend: Option<&'a mut Resend>,
    /// Codec bytes of the payload being sent, shared by the copies of
    /// one fan-out.
    encoded: &'a mut Vec<u8>,
    faults: &'a mut FaultInjector,
    coalesce: &'a mut Coalescer,
    stats: &'a mut WorkerStats,
}

impl<A: WireAggregate> Effects<A> for Sends<'_> {
    fn send(&mut self, round: Round, from: MemberId, to: MemberId, msg: Payload<A>, shared: bool) {
        // a fan-out is encoded once, for its first destination
        if !shared {
            self.encoded.clear();
            codec::encode(&msg, self.encoded);
        }
        // Keep the frame for the resends before loss injection: a retry
        // resends what the protocol *tried* to send, whether or not the
        // channel ate it.
        if let Some(resend) = self.resend.as_deref_mut() {
            if resend.frames.len() < RETRY_FRAME_CAP {
                resend.bytes.extend_from_slice(self.encoded);
                resend.frames.push((to.0, resend.bytes.len()));
            }
        }
        if self.faults.drop_frame(from, to, round) {
            self.stats.injected_drops += 1;
            return;
        }
        self.coalesce
            .enqueue_frame(to.0, from.0, self.encoded, self.stats);
    }
}

/// One copy of each aggregate a worker decodes: wire bytes (as
/// [`encode_tagged`] writes them) to the `Arc` last decoded with them.
/// Once the table reaches `sweep_at` it forgets every entry that only
/// it still holds, and `sweep_at` becomes twice what is left (at least
/// `2 × SHARED_FLOOR`), so the table stays within about twice what the
/// worker's members keep.
struct SharedAggs<A> {
    /// A `HashMap`: only `get`, `insert` and `retain` touch it, never
    /// its iteration order.
    table: HashMap<Box<[u8]>, Arc<Tagged<A>>>,
    sweep_at: usize,
    /// Reused key buffer.
    key: Vec<u8>,
}

impl<A: WireAggregate> SharedAggs<A> {
    fn new() -> Self {
        SharedAggs {
            table: HashMap::new(),
            sweep_at: 2 * SHARED_FLOOR,
            key: Vec::new(),
        }
    }

    /// Replace every aggregate of a freshly decoded `payload` with the
    /// shared copy of its wire bytes, or share it from now on.
    fn adopt(&mut self, payload: &mut Payload<A>, stats: &mut WorkerStats) {
        match payload {
            Payload::Agg { agg, .. } | Payload::Final { agg } => self.share(agg, stats),
            // the decoder's row, referenced nowhere else yet
            Payload::AggBatch { slots, .. } => {
                if let Some(slots) = Arc::get_mut(slots) {
                    for agg in slots.iter_mut().flatten() {
                        self.share(agg, stats);
                    }
                }
            }
            Payload::Vote { .. } | Payload::VoteBatch { .. } | Payload::Flow { .. } => {}
        }
    }

    fn share(&mut self, agg: &mut Arc<Tagged<A>>, stats: &mut WorkerStats) {
        stats.aggregates_decoded += 1;
        self.key.clear();
        encode_tagged(agg, &mut self.key);
        if let Some(kept) = self.table.get(self.key.as_slice()) {
            *agg = Arc::clone(kept);
            stats.aggregates_shared += 1;
            return;
        }
        if self.table.len() >= self.sweep_at {
            self.table.retain(|_, kept| Arc::strong_count(kept) > 1);
            self.sweep_at = 2 * self.table.len().max(SHARED_FLOOR);
        }
        self.table
            .insert(self.key.as_slice().into(), Arc::clone(agg));
    }
}

/// One shard-owning worker thread of a [`Cluster`](crate::cluster::Cluster).
pub(crate) struct Worker<A, P> {
    /// Owned sockets, each tagged with its pool index.
    pub(crate) sockets: Vec<(usize, UdpSocket)>,
    pub(crate) addrs: Arc<Vec<SocketAddr>>,
    pub(crate) n_members: u32,
    pub(crate) cfg: RuntimeConfig,
    pub(crate) done: mpsc::Sender<MemberOutcome<A>>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) faults: FaultInjector,

    slots: Vec<MemberSlot<P>>,
    /// Global member id -> local slot index (`u32::MAX` = not ours).
    local_of: Vec<u32>,
    live: usize,
    stats: WorkerStats,
    shared: SharedAggs<A>,

    // Reused scratch:
    outbox: Outbox<A>,
    /// [`Sends::encoded`].
    encoded: Vec<u8>,
    resend: Resend,
    due: Vec<u32>,
    coalesce: Coalescer,
    /// Datagrams sequenced (possibly reordered) for sending.
    wire: Vec<(SocketAddr, Vec<u8>)>,
    recv_buf: Vec<u8>,
}

/// Per-destination-socket datagram coalescing: frames accumulate in one
/// buffer per destination socket, which is sealed into `ready` when the
/// next frame would overflow `max_datagram` (and at every flush).
struct Coalescer {
    max_datagram: usize,
    /// Per-destination-socket datagram under construction.
    bufs: Vec<Vec<u8>>,
    /// Frames coalesced into each `bufs` entry so far.
    frames: Vec<u32>,
    /// Completed datagrams awaiting the wire: `(dest socket index, bytes)`.
    ready: Vec<(usize, Vec<u8>)>,
    /// Recycled datagram buffers.
    spare: Vec<Vec<u8>>,
}

impl Coalescer {
    // One call per frame sent, fresh or retried.
    fn enqueue_frame(&mut self, to: u32, src: u32, bytes: &[u8], stats: &mut WorkerStats) {
        if bytes.len() > MAX_FRAME_PAYLOAD {
            stats.send_errors += 1;
            return;
        }
        let sock = to as usize % self.bufs.len();
        let buf = &self.bufs[sock];
        if !buf.is_empty() && buf.len() + frame_len(bytes.len()) > self.max_datagram {
            self.seal(sock, stats);
        }
        push_frame(&mut self.bufs[sock], to, src, bytes);
        self.frames[sock] += 1;
        stats.frames_sent += 1;
    }

    /// Move `sock`'s datagram under construction to `ready` and start a
    /// fresh (recycled) buffer.
    fn seal(&mut self, sock: usize, stats: &mut WorkerStats) {
        let fresh = self.spare.pop().unwrap_or_default();
        let full = std::mem::replace(&mut self.bufs[sock], fresh);
        self.ready.push((sock, full));
        if self.frames[sock] > 1 {
            stats.batched_sends += 1;
        }
        self.frames[sock] = 0;
    }
}

impl<A: WireAggregate, P: AggregationProtocol<A>> Worker<A, P> {
    /// Assemble a worker over its sockets and the members homed there,
    /// each with its protocol instance.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        worker_id: usize,
        sockets: Vec<(usize, UdpSocket)>,
        addrs: Arc<Vec<SocketAddr>>,
        members: Vec<(MemberId, P)>,
        n_members: u32,
        cfg: RuntimeConfig,
        root_rng: &DetRng,
        done: mpsc::Sender<MemberOutcome<A>>,
        shutdown: Arc<AtomicBool>,
    ) -> Self {
        let mut local_of = vec![u32::MAX; n_members as usize];
        let mut slots = Vec::with_capacity(members.len());
        for (id, proto) in members {
            local_of[id.index()] = slots.len() as u32;
            slots.push(MemberSlot {
                id,
                proto,
                rng: root_rng.fork(0x7275_6E00 ^ u64::from(id.0)), // "run"
                round: 0,
                last_rx_round: 0,
                reported: false,
                linger_left: cfg.linger_rounds,
                retired: false,
            });
        }
        let live = slots.len();
        let coalesce = Coalescer {
            max_datagram: cfg.max_datagram,
            bufs: (0..addrs.len()).map(|_| Vec::new()).collect(),
            frames: vec![0; addrs.len()],
            ready: Vec::new(),
            spare: Vec::new(),
        };
        let faults = FaultInjector::new(
            cfg.loss.clone(),
            cfg.reorder,
            root_rng.fork(0x6661_756C ^ worker_id as u64), // "faul"
        );
        Worker {
            sockets,
            addrs,
            n_members,
            cfg,
            done,
            shutdown,
            faults,
            slots,
            local_of,
            live,
            stats: WorkerStats::default(),
            shared: SharedAggs::new(),
            outbox: Outbox::new(),
            encoded: Vec::new(),
            resend: Resend::default(),
            due: Vec::new(),
            coalesce,
            wire: Vec::new(),
            recv_buf: vec![0u8; 64 * 1024],
        }
    }

    /// The worker's event loop, with round 0 ending one round interval
    /// after `epoch`; returns its counters at exit.
    pub(crate) fn run(mut self, epoch: Instant) -> WorkerStats {
        let interval = self.cfg.round_interval.max(Duration::from_micros(200));
        let poll_cap = (interval / 4).clamp(Duration::from_micros(200), Duration::from_millis(2));
        // Slot count ≈ one round of granularity-interval/4 ticks per
        // lap; laps are handled by the wheel anyway.
        let mut wheel = TimerWheel::new(epoch, interval / 4, 64);
        for local in 0..self.slots.len() as u32 {
            wheel.schedule(epoch + interval, local);
        }
        loop {
            self.stats.wakeups += 1;
            self.drain_sockets();
            self.tick_due(&mut wheel, epoch, Instant::now());
            self.flush_ready();
            if self.live == 0 || self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let now = Instant::now();
            let until_deadline = wheel
                .next_deadline()
                .map_or(poll_cap, |d| d.saturating_duration_since(now));
            std::thread::sleep(until_deadline.min(poll_cap).max(Duration::from_micros(50)));
        }
        self.stats
    }

    /// Poll every owned socket dry, delivering each frame as it is read.
    // The receive path: every datagram of a 10k-member cluster crosses
    // this loop.
    fn drain_sockets(&mut self) {
        // out of `self` while frames borrow it and deliveries need `self`
        let mut buf = std::mem::take(&mut self.recv_buf);
        for s in 0..self.sockets.len() {
            // `WouldBlock` (or any transient error) ends this socket's drain.
            while let Ok((len, _)) = self.sockets[s].1.recv_from(&mut buf) {
                self.stats.datagrams_recv += 1;
                for frame in FrameIter::new(&buf[..len], self.n_members) {
                    let Ok(frame) = frame else {
                        self.stats.decode_errors += 1;
                        break; // rest of the datagram is unusable
                    };
                    self.stats.frames_recv += 1;
                    self.deliver(frame);
                }
            }
        }
        self.recv_buf = buf;
    }

    /// Decode one received frame's payload for the group and step its
    /// member with it. Called from inside [`Worker::flush_ready`]'s send
    /// loop too: the replies wait in the coalescer for the next flush.
    fn deliver(&mut self, frame: Frame<'_>) {
        let local = self.local_of[frame.dst as usize];
        if local == u32::MAX {
            self.stats.stray_frames += 1;
            return;
        }
        let mut bytes = frame.payload;
        let Ok(mut payload) = codec::decode_for::<A, _>(self.n_members, &mut bytes) else {
            self.stats.decode_errors += 1;
            return;
        };
        self.shared.adopt(&mut payload, &mut self.stats);
        let slot = &mut self.slots[local as usize];
        if slot.retired {
            return;
        }
        slot.last_rx_round = slot.round;
        // `step` reads only `from` and `payload`; the frame carries no
        // send round, so `sent_at` is a placeholder (the receive round).
        let env = Envelope {
            from: MemberId(frame.src),
            to: slot.id,
            sent_at: slot.round,
            payload,
        };
        self.step_member(local, Some(env), false);
    }

    /// Pop due round deadlines and advance each member's round state.
    fn tick_due(&mut self, wheel: &mut TimerWheel, epoch: Instant, now: Instant) {
        let interval = self.cfg.round_interval.max(Duration::from_micros(200));
        self.due.clear();
        wheel.pop_due(now, &mut self.due);
        let mut k = 0;
        while k < self.due.len() {
            let local = self.due[k];
            k += 1;
            let slot = &mut self.slots[local as usize];
            if slot.retired {
                continue;
            }
            if !slot.reported {
                if !slot.proto.is_done() && slot.round < self.cfg.max_rounds {
                    // Retry-on-silence backs off exponentially: resend
                    // after r, 2r, 4r, ... silent rounds, not every
                    // round — a congested cluster must not answer
                    // silence with a retry storm.
                    let silent_rounds = slot.round.saturating_sub(slot.last_rx_round);
                    let r = self.cfg.retry_silent_rounds;
                    let silent = r > 0
                        && silent_rounds >= r
                        && silent_rounds.is_multiple_of(r)
                        && (silent_rounds / r).is_power_of_two();
                    self.step_member(local, None, silent);
                }
                let slot = &mut self.slots[local as usize];
                slot.round += 1;
                if slot.proto.is_done() || slot.round >= self.cfg.max_rounds {
                    slot.reported = true;
                    let outcome = MemberOutcome {
                        member: slot.id,
                        estimate: slot.proto.estimate().cloned(),
                        rounds: slot.round,
                    };
                    // The collector may already have what it needs and
                    // hung up; lingering members keep serving either way.
                    let _ = self.done.send(outcome);
                }
            } else {
                slot.round += 1;
                if slot.linger_left == 0 {
                    slot.retired = true;
                    self.live -= 1;
                    continue;
                }
                slot.linger_left -= 1;
            }
            let slot = &self.slots[local as usize];
            let next = epoch + interval * u32::try_from(slot.round + 1).unwrap_or(u32::MAX);
            wheel.schedule(next, local);
        }
    }

    /// Run one member's protocol [`step`] into its [`Sends`]: deliver
    /// `msg`, or with `None` run its round. On `retry`, a member still
    /// running then resends the first `RETRY_FRAME_CAP` frames that
    /// step sent, in send order; a step that sent nothing resends
    /// nothing.
    fn step_member(&mut self, local: u32, msg: Option<Envelope<Payload<A>>>, retry: bool) {
        let n = self.n_members as usize;
        let MemberSlot {
            id,
            proto,
            rng,
            round,
            ..
        } = &mut self.slots[local as usize];
        let mut fx = Sends {
            resend: retry.then_some(&mut self.resend),
            encoded: &mut self.encoded,
            faults: &mut self.faults,
            coalesce: &mut self.coalesce,
            stats: &mut self.stats,
        };
        let done = step(proto, rng, *id, *round, n, msg, &mut self.outbox, &mut fx);
        if retry && !done {
            let mut start = 0;
            for &(to, end) in &self.resend.frames {
                let bytes = &self.resend.bytes[start..end];
                start = end;
                if self.faults.drop_frame(*id, MemberId(to), *round) {
                    self.stats.injected_drops += 1;
                    continue;
                }
                self.coalesce
                    .enqueue_frame(to, id.0, bytes, &mut self.stats);
                self.stats.retries += 1;
            }
        }
        self.resend.frames.clear();
        self.resend.bytes.clear();
    }

    /// Seal every pending datagram, sequence the batch through the
    /// reorder pocket, and put it on the wire.
    // One call per wakeup; sends the whole coalesced batch.
    fn flush_ready(&mut self) {
        for sock in 0..self.addrs.len() {
            if !self.coalesce.bufs[sock].is_empty() {
                self.coalesce.seal(sock, &mut self.stats);
            }
        }
        if self.coalesce.ready.is_empty() {
            return;
        }
        for (sock, bytes) in self.coalesce.ready.drain(..) {
            let dest = self.addrs[sock];
            if self.faults.sequence(dest, bytes, &mut self.wire) {
                self.stats.reordered += 1;
            }
        }
        self.faults.flush_pocket(&mut self.wire);
        let mut wire = std::mem::take(&mut self.wire);
        let mut since_drain = 0u64;
        for (dest, bytes) in wire.drain(..) {
            since_drain += bytes.len() as u64;
            if self.sockets[0].1.send_to(&bytes, dest).is_ok() {
                self.stats.datagrams_sent += 1;
                self.stats.bytes_sent += bytes.len() as u64;
            } else {
                self.stats.send_errors += 1;
            }
            let mut recycled = bytes;
            recycled.clear();
            self.coalesce.spare.push(recycled);
            // Backpressure: reading our own sockets mid-burst stops the
            // kernel receive queues from overflowing (see
            // DRAIN_EVERY_BYTES). The replies those deliveries make go
            // into the coalescer and leave on the next flush.
            if since_drain >= DRAIN_EVERY_BYTES {
                since_drain = 0;
                self.stats.backpressure_drains += 1;
                self.drain_sockets();
            }
        }
        self.wire = wire;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::FRAME_HEADER_LEN;
    use gridagg_aggregate::{Average, Tagged};
    use gridagg_core::protocol::Ctx;

    #[test]
    fn worker_stats_merge_adds_and_maxes() {
        let mut a = WorkerStats {
            datagrams_sent: 3,
            mailbox_high_water: 5,
            ..Default::default()
        };
        let b = WorkerStats {
            datagrams_sent: 4,
            mailbox_high_water: 2,
            frames_recv: 9,
            backpressure_drains: 2,
            aggregates_decoded: 5,
            aggregates_shared: 3,
            send_errors: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.datagrams_sent, 7);
        assert_eq!(a.mailbox_high_water, 5);
        assert_eq!(a.frames_recv, 9);
        assert_eq!(a.backpressure_drains, 2);
        assert_eq!((a.aggregates_decoded, a.aggregates_shared), (5, 3));
        assert_eq!(a.send_errors, 2);
    }

    /// Queues the same fan-outs every round and never finishes.
    #[derive(Debug)]
    struct Script;

    fn batch(k: u32) -> Payload<Average> {
        Payload::VoteBatch {
            votes: (0..k).map(|i| (MemberId(i), f64::from(i))).collect(),
            skip: 0,
            reply: false,
        }
    }

    impl AggregationProtocol<Average> for Script {
        // fan-outs of different payloads back to back, singles in between
        fn on_round(&mut self, _: &mut Ctx<'_>, out: &mut Outbox<Average>) {
            out.send_many([MemberId(1), MemberId(2), MemberId(3)], batch(4));
            out.send_many([MemberId(4), MemberId(5)], batch(1));
            out.send(MemberId(6), batch(9));
            out.send_many([MemberId(7)], batch(2));
            out.send_many([], batch(3));
        }
        fn on_message(
            &mut self,
            _: MemberId,
            _: Payload<Average>,
            _: &mut Ctx<'_>,
            _: &mut Outbox<Average>,
        ) {
        }
        fn estimate(&self) -> Option<&Tagged<Average>> {
            None
        }
        fn is_done(&self) -> bool {
            false
        }
        fn completed_at(&self) -> Option<Round> {
            None
        }
    }

    /// A socketless worker over one address with member 0 running
    /// `proto` in a group of `n`: frames stay in `coalesce.bufs[0]`.
    fn worker<P: AggregationProtocol<Average>>(
        proto: P,
        n: u32,
        cfg: RuntimeConfig,
    ) -> Worker<Average, P> {
        worker_of(vec![(MemberId(0), proto)], n, cfg)
    }

    /// [`worker`] over several members.
    fn worker_of<P: AggregationProtocol<Average>>(
        members: Vec<(MemberId, P)>,
        n: u32,
        cfg: RuntimeConfig,
    ) -> Worker<Average, P> {
        let (done, _outcomes) = mpsc::channel();
        Worker::new(
            0,
            Vec::new(),
            Arc::new(vec![SocketAddr::from(([127, 0, 0, 1], 9))]),
            members,
            n,
            cfg,
            &DetRng::seeded(1),
            done,
            Arc::new(AtomicBool::new(false)),
        )
    }

    #[test]
    fn every_flushed_frame_carries_its_own_payloads_bytes() {
        let n = 16;
        let mut worker = worker(Script, n, RuntimeConfig::default());
        worker.step_member(0, None, false);
        // a silent round sends afresh, then resends the frames it just
        // sent
        worker.step_member(0, None, true);
        let sent = [(1, 4), (2, 4), (3, 4), (4, 1), (5, 1), (6, 9), (7, 2)];
        let frames: Vec<_> = FrameIter::new(&worker.coalesce.bufs[0], n)
            .collect::<Result<_, _>>()
            .expect("well-formed frames");
        assert_eq!(frames.len(), 3 * sent.len());
        for (frame, (to, k)) in frames.iter().zip(sent.iter().cycle()) {
            let mut bytes = Vec::new();
            codec::encode(&batch(*k), &mut bytes);
            assert_eq!((frame.dst, frame.src), (*to, 0));
            assert_eq!(frame.payload, bytes, "frame to {to}");
        }
        assert_eq!(worker.stats.retries, sent.len() as u64);
    }

    /// Sends `self.0` single votes, the `i`-th to member `i + 1`, on
    /// every round and every delivery; never finishes.
    #[derive(Debug)]
    struct Votes(u32);

    fn vote(i: u32) -> Payload<Average> {
        Payload::Vote {
            member: MemberId(i),
            value: f64::from(i),
        }
    }

    impl Votes {
        fn send(&self, out: &mut Outbox<Average>) {
            for i in 0..self.0 {
                out.send(MemberId(i + 1), vote(i));
            }
        }
    }

    impl AggregationProtocol<Average> for Votes {
        fn on_round(&mut self, _: &mut Ctx<'_>, out: &mut Outbox<Average>) {
            self.send(out);
        }
        fn on_message(
            &mut self,
            _: MemberId,
            _: Payload<Average>,
            _: &mut Ctx<'_>,
            out: &mut Outbox<Average>,
        ) {
            self.send(out);
        }
        fn estimate(&self) -> Option<&Tagged<Average>> {
            None
        }
        fn is_done(&self) -> bool {
            false
        }
        fn completed_at(&self) -> Option<Round> {
            None
        }
    }

    const N: u32 = 32;

    /// Room for every frame of a test step in one datagram.
    fn roomy() -> RuntimeConfig {
        RuntimeConfig {
            max_datagram: 64 * 1024,
            ..Default::default()
        }
    }

    /// `(dst, payload)` of every frame coalesced so far, in send order.
    fn coalesced<P>(worker: &Worker<Average, P>) -> Vec<(u32, Vec<u8>)> {
        FrameIter::new(&worker.coalesce.bufs[0], N)
            .map(|frame| {
                let frame = frame.expect("well-formed frame");
                assert_eq!(frame.src, 0);
                (frame.dst, frame.payload.to_vec())
            })
            .collect()
    }

    #[test]
    fn a_silent_round_resends_the_first_frames_its_own_step_sent() {
        let mut worker = worker(Votes(20), N, roomy());
        worker.step_member(0, None, true);
        let frames = coalesced(&worker);
        assert_eq!(frames.len(), 20 + RETRY_FRAME_CAP);
        let (fresh, resent) = frames.split_at(20);
        for (i, (dst, payload)) in (0..).zip(fresh) {
            let mut bytes = Vec::new();
            codec::encode(&vote(i), &mut bytes);
            assert_eq!((*dst, payload), (i + 1, &bytes), "fresh frame {i}");
        }
        assert_eq!(resent, &fresh[..RETRY_FRAME_CAP]);
        assert_eq!(worker.stats.retries, RETRY_FRAME_CAP as u64);
        assert_eq!(worker.stats.frames_sent, frames.len() as u64);
    }

    #[test]
    fn a_silent_round_whose_step_sends_nothing_resends_nothing() {
        let mut worker = worker(Votes(5), N, roomy());
        worker.step_member(0, None, false);
        worker.slots[0].proto.0 = 0;
        worker.step_member(0, None, true);
        assert_eq!(coalesced(&worker).len(), 5);
        assert_eq!(worker.stats.retries, 0);
    }

    #[test]
    fn a_delivery_step_keeps_nothing_to_resend() {
        let mut worker = worker(Votes(5), N, roomy());
        let env = Envelope {
            from: MemberId(3),
            to: MemberId(0),
            sent_at: 0,
            payload: vote(3),
        };
        worker.step_member(0, Some(env), false);
        assert_eq!(coalesced(&worker).len(), 5);
        assert!(worker.resend.frames.is_empty() && worker.resend.bytes.is_empty());
        // the delivery's frames are not what the next silent round resends
        worker.slots[0].proto.0 = 0;
        worker.step_member(0, None, true);
        assert_eq!(coalesced(&worker).len(), 5);
        assert_eq!(worker.stats.retries, 0);
    }

    #[test]
    fn under_total_loss_each_fresh_and_resent_frame_is_its_own_drop() {
        let mut worker = worker(Votes(20), N, roomy().with_uniform_loss(1.0));
        worker.step_member(0, None, true);
        assert!(coalesced(&worker).is_empty());
        assert_eq!(worker.stats.injected_drops, (20 + RETRY_FRAME_CAP) as u64);
        assert_eq!(worker.stats.retries, 0);
        assert_eq!(worker.stats.frames_sent, 0);
    }

    #[test]
    fn a_member_nobody_answers_retries_at_r_2r_4r_reports_once_then_lingers_and_retires() {
        let cfg = RuntimeConfig {
            max_rounds: 20,
            linger_rounds: 3,
            retry_silent_rounds: 2,
            ..roomy()
        };
        let interval = cfg.round_interval;
        let mut worker = worker(Votes(1), N, cfg);
        let (done, outcomes) = mpsc::channel();
        worker.done = done;
        let epoch = Instant::now();
        let mut wheel = TimerWheel::new(epoch, interval / 4, 64);
        wheel.schedule(epoch + interval, 0);
        let mut retried_at = Vec::new();
        for k in 1..=24 {
            let retries = worker.stats.retries;
            worker.tick_due(&mut wheel, epoch, epoch + interval * k);
            if worker.stats.retries > retries {
                retried_at.push(k - 1);
            }
            let reported = outcomes.try_iter().count();
            assert_eq!(reported, usize::from(k == 20), "outcomes at tick {k}");
            assert_eq!(worker.live, usize::from(k < 24), "live after tick {k}");
        }
        // silent rounds 2, 4, 8 and 16: one fresh vote a round, plus
        // one resent on each
        assert_eq!(retried_at, [2, 4, 8, 16]);
        assert_eq!(worker.stats.frames_sent, 20 + 4);
        assert_eq!(wheel.pending(), 0, "a retired member schedules nothing");
    }

    /// Keeps every aggregate delivered to it while `keep` is set;
    /// sends nothing and never finishes.
    #[derive(Debug, Default)]
    struct Keep {
        keep: bool,
        kept: Vec<Arc<Tagged<Average>>>,
    }

    impl AggregationProtocol<Average> for Keep {
        fn on_round(&mut self, _: &mut Ctx<'_>, _: &mut Outbox<Average>) {}
        fn on_message(
            &mut self,
            _: MemberId,
            msg: Payload<Average>,
            _: &mut Ctx<'_>,
            _: &mut Outbox<Average>,
        ) {
            if !self.keep {
                return;
            }
            match msg {
                Payload::Agg { agg, .. } | Payload::Final { agg } => self.kept.push(agg),
                Payload::AggBatch { slots, .. } => {
                    self.kept.extend(slots.iter().flatten().cloned())
                }
                Payload::Vote { .. } | Payload::VoteBatch { .. } | Payload::Flow { .. } => {}
            }
        }
        fn estimate(&self) -> Option<&Tagged<Average>> {
            None
        }
        fn is_done(&self) -> bool {
            false
        }
        fn completed_at(&self) -> Option<Round> {
            None
        }
    }

    /// An admissible aggregate of member `i`'s vote, distinct for each `i`.
    fn agg(i: u32) -> Arc<Tagged<Average>> {
        Arc::new(Tagged::from_vote(
            (i % N) as usize,
            f64::from(i),
            N as usize,
        ))
    }

    /// Encode `payload` and hand it to member `dst` as member 9 sent it.
    fn deliver<P: AggregationProtocol<Average>>(
        worker: &mut Worker<Average, P>,
        dst: u32,
        payload: &Payload<Average>,
    ) {
        let mut bytes = Vec::new();
        codec::encode(payload, &mut bytes);
        worker.deliver(Frame {
            dst,
            src: 9,
            payload: &bytes,
        });
    }

    fn keepers() -> Worker<Average, Keep> {
        let keeper = || Keep {
            keep: true,
            kept: Vec::new(),
        };
        worker_of(
            vec![(MemberId(0), keeper()), (MemberId(1), keeper())],
            N,
            roomy(),
        )
    }

    /// The table's entry for `agg`'s wire bytes.
    fn entry(
        worker: &Worker<Average, Keep>,
        agg: &Tagged<Average>,
    ) -> Option<Arc<Tagged<Average>>> {
        let mut key = Vec::new();
        encode_tagged(agg, &mut key);
        worker.shared.table.get(key.as_slice()).cloned()
    }

    #[test]
    fn byte_identical_aggregates_delivered_to_two_members_share_one_copy() {
        let mut worker = keepers();
        let parent = gridagg_hierarchy::Addr::from_digits(4, &[2]).expect("address");
        let row = (0..4).map(|d| (d == 1).then(|| agg(5))).collect();
        deliver(&mut worker, 0, &Payload::agg_batch(parent, row, false));
        let subtree = parent.child(1).expect("address");
        deliver(
            &mut worker,
            1,
            &Payload::Agg {
                subtree,
                agg: agg(5),
            },
        );
        let (a, b) = (&worker.slots[0].proto.kept, &worker.slots[1].proto.kept);
        assert_eq!((a.len(), b.len()), (1, 1));
        assert!(Arc::ptr_eq(&a[0], &b[0]), "one copy for both members");
        // the receiver's counted form of the value sent
        let sent = agg(5);
        assert_eq!(a[0].aggregate(), sent.aggregate());
        assert_eq!(a[0].vote_count(), 1);
        assert_eq!(worker.stats.aggregates_decoded, 2);
        assert_eq!(worker.stats.aggregates_shared, 1);
    }

    #[test]
    fn a_sweep_forgets_what_no_member_keeps_and_only_that() {
        let mut worker = keepers();
        deliver(&mut worker, 0, &Payload::Final { agg: agg(1) });
        deliver(&mut worker, 1, &Payload::Final { agg: agg(1) });
        deliver(&mut worker, 1, &Payload::Final { agg: agg(2) });
        // both members drop the first aggregate, member 1 keeps the second
        worker.slots[0].proto.kept.clear();
        worker.slots[1].proto.kept.remove(0);
        for slot in &mut worker.slots {
            slot.proto.keep = false;
        }
        assert!(entry(&worker, &agg(1)).is_some(), "no sweep yet");
        // fill the table to its first sweep, then one more
        for i in 3..=(2 * SHARED_FLOOR as u32) + 1 {
            deliver(&mut worker, 0, &Payload::Final { agg: agg(i) });
        }
        assert!(entry(&worker, &agg(1)).is_none(), "nobody keeps it");
        let kept = entry(&worker, &agg(2)).expect("member 1 keeps it");
        assert!(Arc::ptr_eq(&kept, &worker.slots[1].proto.kept[0]));
        assert_eq!(worker.shared.table.len(), 2);
    }

    #[test]
    fn distinct_aggregates_nobody_keeps_leave_the_table_bounded() {
        let mut worker = worker(Keep::default(), N, roomy());
        let mut peak = 0;
        for i in 0..10_000 {
            deliver(&mut worker, 0, &Payload::Final { agg: agg(i) });
            peak = peak.max(worker.shared.table.len());
        }
        // without the sweep the table would hold all 10,000
        assert_eq!(peak, 2 * SHARED_FLOOR);
        assert_eq!(worker.stats.aggregates_decoded, 10_000);
        assert_eq!(worker.stats.aggregates_shared, 0);
    }

    #[test]
    fn a_payload_too_long_for_a_frame_is_a_send_error_and_never_coalesced() {
        let mut worker = worker(Votes(0), N, roomy());
        let stats = &mut worker.stats;
        let longest = vec![0; MAX_FRAME_PAYLOAD];
        worker.coalesce.enqueue_frame(1, 0, &longest, stats);
        worker
            .coalesce
            .enqueue_frame(2, 0, &[0; MAX_FRAME_PAYLOAD + 1], stats);
        assert_eq!((stats.send_errors, stats.frames_sent), (1, 1));
        let frames = coalesced(&worker);
        assert_eq!(frames, [(1, longest)], "the refused frame left no bytes");
    }

    #[test]
    fn a_datagram_the_kernel_refuses_is_a_send_error_not_a_send() {
        // one socket sending to itself: a datagram past the 65,507
        // bytes a UDP/IPv4 datagram carries fails with `EMSGSIZE`
        let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("loopback socket");
        socket.set_nonblocking(true).expect("non-blocking");
        let addr = socket.local_addr().expect("bound");
        let cfg = RuntimeConfig {
            max_datagram: 128 * 1024,
            ..Default::default()
        };
        let (done, _outcomes) = mpsc::channel();
        let members = vec![(MemberId(0), Votes(0))];
        let shutdown = Arc::new(AtomicBool::new(false));
        let rng = DetRng::seeded(1);
        let sockets = vec![(0, socket)];
        let mut worker: Worker<Average, Votes> = Worker::new(
            0,
            sockets,
            Arc::new(vec![addr]),
            members,
            N,
            cfg,
            &rng,
            done,
            shutdown,
        );
        let half = vec![0; 40_000];
        for bytes in [&half, &half] {
            worker
                .coalesce
                .enqueue_frame(0, 0, bytes, &mut worker.stats);
        }
        worker.flush_ready();
        let stats = worker.stats;
        assert_eq!(
            (stats.send_errors, stats.datagrams_sent, stats.bytes_sent),
            (1, 0, 0)
        );
        // a datagram that fits is sent, and counted as sent
        worker
            .coalesce
            .enqueue_frame(0, 0, &half, &mut worker.stats);
        worker.flush_ready();
        let stats = worker.stats;
        let sent = frame_len(half.len()) as u64;
        assert_eq!(
            (stats.send_errors, stats.datagrams_sent, stats.bytes_sent),
            (1, 1, sent)
        );
    }

    #[test]
    fn frame_header_constant_matches_format() {
        // dst u32 + src u32 + len u16
        assert_eq!(FRAME_HEADER_LEN, 4 + 4 + 2);
    }
}
