//! Socket-pool endpoints and the datagram frame format.
//!
//! Thousands of members share a small pool of UDP sockets. A member's
//! **home socket** is `member % pool_size`; every datagram carries a
//! per-message frame header naming the destination *and* source member,
//! so one endpoint demultiplexes traffic for many members and replies
//! can be routed without per-member ports. Frames destined for members
//! homed on the same socket are **coalesced** into one datagram (up to
//! a configurable byte cap), which is what turns 10,000 members' gossip
//! into a few hundred `sendto` calls per round.
//!
//! ## Frame format
//!
//! ```text
//! datagram := frame*
//! frame    := dst_member: u32 | src_member: u32 | len: u16 | payload: [u8; len]
//! ```
//!
//! `payload` is the [`gridagg_core::message::codec`] encoding of one
//! protocol message. A frame is checked against the group by two
//! parsers, one per layer: [`FrameIter`] rejects a short header, a
//! clipped frame or a member id outside the group, and
//! [`decode_for`](gridagg_core::message::codec::decode_for) rejects a
//! payload that is malformed or reaches outside the group. Either
//! reports a [`DecodeError`] value, never a panic: the receive path
//! treats the network as hostile.
//!
//! ## Fault injection
//!
//! [`FaultInjector`] drops and reorders traffic *at the socket
//! boundary*, reusing the simulator's [`LossModel`] implementations
//! (uniform loss, soft partitions, distance loss, mid-run switches), so
//! a loopback cluster exhibits the paper's loss regimes on real
//! sockets with the same models the figures were generated from.

use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;

use gridagg_core::message::codec::DecodeError;
use gridagg_group::MemberId;
use gridagg_simnet::loss::LossModel;
use gridagg_simnet::rng::DetRng;

/// Bytes of the per-frame header: dst u32, src u32, len u16.
pub const FRAME_HEADER_LEN: usize = 10;

/// The longest payload a frame's `u16` length can carry.
pub const MAX_FRAME_PAYLOAD: usize = u16::MAX as usize;

/// One demultiplexed frame inside a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Destination member.
    pub dst: u32,
    /// Sending member.
    pub src: u32,
    /// The codec-encoded payload bytes.
    pub payload: &'a [u8],
}

/// Append one frame to a datagram under construction.
///
/// # Panics
///
/// If `payload` is longer than [`MAX_FRAME_PAYLOAD`]: its length would
/// wrap, and the receiver would misparse the rest of the datagram. A
/// sender checks first (the runtime counts such a payload as a send
/// error).
pub fn push_frame(buf: &mut Vec<u8>, dst: u32, src: u32, payload: &[u8]) {
    let len = u16::try_from(payload.len()).expect("payload exceeds a frame");
    buf.extend_from_slice(&dst.to_be_bytes());
    buf.extend_from_slice(&src.to_be_bytes());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(payload);
}

/// Wire size of one frame carrying `payload_len` payload bytes.
pub fn frame_len(payload_len: usize) -> usize {
    FRAME_HEADER_LEN + payload_len
}

/// Iterator over the frames of one received datagram. Yields
/// `Err(DecodeError)` (and then stops) if the datagram is truncated,
/// clipped mid-frame, or names a member outside the group — the
/// demux header rejects garbage with an error value, never a panic.
#[derive(Debug)]
pub struct FrameIter<'a> {
    rest: &'a [u8],
    n_members: u32,
    failed: bool,
}

impl<'a> FrameIter<'a> {
    /// Iterate the frames of `datagram` for a group of `n_members`.
    pub fn new(datagram: &'a [u8], n_members: u32) -> Self {
        FrameIter {
            rest: datagram,
            n_members,
            failed: false,
        }
    }
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = Result<Frame<'a>, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.rest.is_empty() {
            return None;
        }
        if self.rest.len() < FRAME_HEADER_LEN {
            self.failed = true;
            return Some(Err(DecodeError::Truncated { variant: "frame" }));
        }
        let dst = u32::from_be_bytes(self.rest[0..4].try_into().expect("4 bytes"));
        let src = u32::from_be_bytes(self.rest[4..8].try_into().expect("4 bytes"));
        let len = u16::from_be_bytes(self.rest[8..10].try_into().expect("2 bytes")) as usize;
        if self.rest.len() < FRAME_HEADER_LEN + len {
            self.failed = true;
            return Some(Err(DecodeError::Truncated { variant: "frame" }));
        }
        if dst >= self.n_members || src >= self.n_members {
            self.failed = true;
            return Some(Err(DecodeError::Malformed { variant: "frame" }));
        }
        let payload = &self.rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        self.rest = &self.rest[FRAME_HEADER_LEN + len..];
        Some(Ok(Frame { dst, src, payload }))
    }
}

/// The shared pool of UDP sockets members multiplex over.
///
/// All sockets are bound to loopback ephemeral ports and set
/// non-blocking; workers own disjoint subsets and poll them. The
/// address table is shared read-only across workers.
#[derive(Debug)]
pub struct EndpointPool {
    sockets: Vec<UdpSocket>,
    addrs: Arc<Vec<SocketAddr>>,
}

impl EndpointPool {
    /// Bind `count` non-blocking loopback sockets on ephemeral ports.
    ///
    /// # Errors
    ///
    /// Returns any socket I/O error raised while binding.
    pub fn bind(count: usize) -> std::io::Result<Self> {
        let mut sockets = Vec::with_capacity(count);
        let mut addrs = Vec::with_capacity(count);
        for _ in 0..count {
            let socket = UdpSocket::bind(("127.0.0.1", 0))?;
            socket.set_nonblocking(true)?;
            addrs.push(socket.local_addr()?);
            sockets.push(socket);
        }
        Ok(EndpointPool {
            sockets,
            addrs: Arc::new(addrs),
        })
    }

    /// Number of sockets in the pool.
    pub fn len(&self) -> usize {
        self.sockets.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.sockets.is_empty()
    }

    /// The shared address table (index = socket index).
    pub fn addrs(&self) -> Arc<Vec<SocketAddr>> {
        self.addrs.clone()
    }

    /// The home socket index of a member in a pool of `pool` sockets.
    pub fn home_socket(member: u32, pool: usize) -> usize {
        member as usize % pool.max(1)
    }

    /// Split the pool into per-worker socket sets: worker `w` owns the
    /// sockets whose index `% workers == w`, each tagged with its pool
    /// index. Consumes the pool; the address table survives via
    /// [`EndpointPool::addrs`].
    pub fn split(self, workers: usize) -> Vec<Vec<(usize, UdpSocket)>> {
        let workers = workers.max(1);
        let mut out: Vec<Vec<(usize, UdpSocket)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, s) in self.sockets.into_iter().enumerate() {
            out[i % workers].push((i, s));
        }
        out
    }
}

/// Channel-fault injection at the socket boundary: per-frame loss via a
/// simulator [`LossModel`] and per-datagram reordering via a one-deep
/// hold-back pocket. Each worker owns one injector with a private
/// deterministic stream, so member-local fault decisions are
/// reproducible per seed even though wall-clock interleavings are not.
#[derive(Debug)]
pub struct FaultInjector {
    loss: Option<Arc<dyn LossModel>>,
    reorder: f64,
    rng: DetRng,
    /// Held-back datagram (destination addr, bytes) awaiting a later
    /// send, realizing a pairwise reorder.
    pocket: Option<(SocketAddr, Vec<u8>)>,
}

impl FaultInjector {
    /// An injector with the given loss model (`None` = perfect), a
    /// per-datagram reorder probability, and a private random stream.
    pub fn new(loss: Option<Arc<dyn LossModel>>, reorder: f64, rng: DetRng) -> Self {
        FaultInjector {
            loss,
            reorder,
            pocket: None,
            rng,
        }
    }

    /// Whether the frame `from -> to` sent in `round` should be dropped.
    pub fn drop_frame(&mut self, from: MemberId, to: MemberId, round: u64) -> bool {
        match &self.loss {
            Some(model) => model.dropped(from, to, round, &mut self.rng),
            None => false,
        }
    }

    /// Route one outbound datagram through the reorder pocket: returns
    /// the datagram(s) to actually put on the wire now, in order. With
    /// probability `reorder` the datagram is held back and rides behind
    /// the *next* one (a pairwise swap, the classic UDP reorder shape).
    pub fn sequence(
        &mut self,
        dest: SocketAddr,
        bytes: Vec<u8>,
        out: &mut Vec<(SocketAddr, Vec<u8>)>,
    ) -> bool {
        if self.reorder > 0.0 && self.pocket.is_none() && self.rng.chance(self.reorder) {
            self.pocket = Some((dest, bytes));
            return true;
        }
        out.push((dest, bytes));
        if let Some(held) = self.pocket.take() {
            out.push(held);
        }
        false
    }

    /// Flush a held-back datagram at the end of a batch so nothing is
    /// delayed past one wakeup.
    pub fn flush_pocket(&mut self, out: &mut Vec<(SocketAddr, Vec<u8>)>) {
        if let Some(held) = self.pocket.take() {
            out.push(held);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridagg_simnet::loss::UniformLoss;

    #[test]
    fn frames_roundtrip_through_a_datagram() {
        let mut dgram = Vec::new();
        push_frame(&mut dgram, 3, 1, b"abc");
        push_frame(&mut dgram, 9, 2, b"");
        push_frame(&mut dgram, 0, 3, b"xyzw");
        let frames: Vec<Frame<'_>> = FrameIter::new(&dgram, 16)
            .collect::<Result<_, _>>()
            .expect("clean datagram");
        assert_eq!(frames.len(), 3);
        assert_eq!(
            frames[0],
            Frame {
                dst: 3,
                src: 1,
                payload: b"abc"
            }
        );
        assert_eq!(frames[1].payload, b"");
        assert_eq!(
            frames[2],
            Frame {
                dst: 0,
                src: 3,
                payload: b"xyzw"
            }
        );
    }

    #[test]
    fn truncated_header_rejected_with_decode_error() {
        for len in 1..FRAME_HEADER_LEN {
            let junk = vec![0u8; len];
            let r: Vec<_> = FrameIter::new(&junk, 8).collect();
            assert_eq!(r, vec![Err(DecodeError::Truncated { variant: "frame" })]);
        }
    }

    #[test]
    fn clipped_payload_rejected_with_decode_error() {
        let mut dgram = Vec::new();
        push_frame(&mut dgram, 1, 0, b"hello");
        dgram.truncate(dgram.len() - 2);
        let r: Vec<_> = FrameIter::new(&dgram, 8).collect();
        assert_eq!(r, vec![Err(DecodeError::Truncated { variant: "frame" })]);
    }

    #[test]
    fn out_of_range_member_rejected_as_malformed() {
        let mut dgram = Vec::new();
        push_frame(&mut dgram, 200, 0, b"x");
        let r: Vec<_> = FrameIter::new(&dgram, 8).collect();
        assert_eq!(r, vec![Err(DecodeError::Malformed { variant: "frame" })]);

        let mut dgram = Vec::new();
        push_frame(&mut dgram, 0, 200, b"x");
        let r: Vec<_> = FrameIter::new(&dgram, 8).collect();
        assert_eq!(r, vec![Err(DecodeError::Malformed { variant: "frame" })]);
    }

    #[test]
    fn error_stops_iteration_after_valid_prefix() {
        let mut dgram = Vec::new();
        push_frame(&mut dgram, 1, 0, b"ok");
        dgram.extend_from_slice(&[0xFF; 5]); // garbage tail
        let r: Vec<_> = FrameIter::new(&dgram, 8).collect();
        assert_eq!(r.len(), 2);
        assert!(r[0].is_ok());
        assert!(r[1].is_err());
    }

    #[test]
    #[should_panic(expected = "payload exceeds a frame")]
    fn a_payload_longer_than_a_frame_is_refused_not_wrapped() {
        push_frame(&mut Vec::new(), 0, 1, &[0; MAX_FRAME_PAYLOAD + 1]);
    }

    #[test]
    fn empty_datagram_yields_nothing() {
        assert_eq!(FrameIter::new(&[], 8).count(), 0);
    }

    #[test]
    fn pool_binds_and_splits_round_robin() {
        let pool = EndpointPool::bind(5).expect("bind");
        assert_eq!(pool.len(), 5);
        let addrs = pool.addrs();
        assert_eq!(addrs.len(), 5);
        let sets = pool.split(2);
        assert_eq!(sets.len(), 2);
        assert_eq!(
            sets[0].iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            [0, 2, 4]
        );
        assert_eq!(sets[1].iter().map(|(i, _)| *i).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(EndpointPool::home_socket(7, 5), 2);
    }

    #[test]
    fn injector_drops_with_the_loss_model() {
        let loss = Arc::new(UniformLoss::new(1.0).expect("probability"));
        let mut inj = FaultInjector::new(Some(loss), 0.0, DetRng::seeded(1));
        assert!(inj.drop_frame(MemberId(0), MemberId(1), 0));
        let mut none = FaultInjector::new(None, 0.0, DetRng::seeded(1));
        assert!(!none.drop_frame(MemberId(0), MemberId(1), 0));
    }

    #[test]
    fn reorder_swaps_adjacent_datagrams() {
        let addr: SocketAddr = "127.0.0.1:9".parse().expect("addr");
        let mut inj = FaultInjector::new(None, 1.0, DetRng::seeded(7));
        let mut wire = Vec::new();
        let held = inj.sequence(addr, vec![1], &mut wire);
        assert!(held && wire.is_empty());
        inj.sequence(addr, vec![2], &mut wire);
        // the second datagram goes first, the held one follows
        assert_eq!(wire.iter().map(|(_, b)| b[0]).collect::<Vec<_>>(), [2, 1]);
        inj.flush_pocket(&mut wire);
        assert_eq!(wire.len(), 2, "pocket was already empty");
    }
}
