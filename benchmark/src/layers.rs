//! Replay loops: one layer at a time, called the way the traced run
//! called it, timed from outside.
//!
//! Each function here drives public functions of one workspace module
//! with inputs shaped like the workload's (the group size, the mean
//! frame size, the per-round send counts the traced rep recorded) and
//! returns per-layer metrics by name. Iteration counts are fixed, not
//! timed, so the work is the same on every host.

use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use gridagg_aggregate::wire::{decode_tagged, encode_tagged};
use gridagg_aggregate::{Average, Tagged, EXACT_TRACK_MAX};
use gridagg_core::message::codec;
use gridagg_core::Payload;
use gridagg_group::MemberId;
use gridagg_hierarchy::{FairHashPlacement, Hierarchy, Placement};
use gridagg_runtime::endpoint::{frame_len, push_frame, EndpointPool, FrameIter};
use gridagg_runtime::timer::TimerWheel;
use gridagg_simnet::loss::UniformLoss;
use gridagg_simnet::network::{NetworkConfig, SimNetwork};

use crate::trace::Trace;

/// Named per-layer values.
pub type Metrics = Vec<(&'static str, f64)>;

fn ns_per(elapsed: Duration, ops: usize) -> f64 {
    elapsed.as_nanos() as f64 / ops.max(1) as f64
}

/// A `Tagged` covering members `from..to` of a group of `n`, built the
/// way protocols build theirs: one vote at a time. `for_scale` selects
/// the `*_for_scale` constructors.
fn covering(from: usize, to: usize, n: usize, for_scale: bool) -> Tagged<Average> {
    let vote = |m: usize| {
        if for_scale {
            Tagged::<Average>::from_vote_for_scale(m, m as f64, n)
        } else {
            Tagged::<Average>::from_vote(m, m as f64, n)
        }
    };
    let mut acc = vote(from);
    for m in from + 1..to {
        acc.try_merge(&vote(m)).expect("distinct members");
    }
    acc
}

/// Nanoseconds per `try_merge` of the upper half of a group into the
/// lower half. The clones being merged into are made before the clock
/// starts.
fn try_merge_ns(n: usize, for_scale: bool) -> f64 {
    const BATCH: usize = 128;
    const ROUNDS: usize = 16;
    let lower = covering(0, n / 2, n, for_scale);
    let upper = covering(n / 2, n, n, for_scale);
    let mut total = Duration::ZERO;
    for _ in 0..ROUNDS {
        let mut batch: Vec<Tagged<Average>> = (0..BATCH).map(|_| lower.clone()).collect();
        let t = Instant::now();
        for acc in &mut batch {
            acc.try_merge(black_box(&upper)).expect("disjoint halves");
        }
        total += t.elapsed();
        black_box(&batch);
    }
    ns_per(total, BATCH * ROUNDS)
}

/// `aggregate.*`: contributor-set merges and the tagged wire form at
/// the workload's group size `n`. Exact merges are measured at
/// `min(n, EXACT_TRACK_MAX)`, counted ones just above the threshold
/// (their cost does not depend on `n`); the wire form is the one a
/// structurally-deduping protocol ships at `n`.
pub fn aggregate(n: usize, trace: &mut Trace) -> Metrics {
    const WIRE_ITERS: usize = 2048;
    let span = trace.begin("aggregate.replay");
    let exact_ns = try_merge_ns(n.min(EXACT_TRACK_MAX), false);
    let counted_ns = try_merge_ns(2 * EXACT_TRACK_MAX, true);

    let full = covering(0, n, n, true);
    let mut buf = Vec::new();
    let t = Instant::now();
    for _ in 0..WIRE_ITERS {
        buf.clear();
        encode_tagged(black_box(&full), &mut buf);
    }
    let encode_ns = ns_per(t.elapsed(), WIRE_ITERS);
    let t = Instant::now();
    for _ in 0..WIRE_ITERS {
        let mut bytes: &[u8] = black_box(&buf);
        black_box(decode_tagged::<Average, _>(&mut bytes).expect("own encoding decodes"));
    }
    let decode_ns = ns_per(t.elapsed(), WIRE_ITERS);
    trace.end(span);
    trace.count("aggregate.tagged_wire_bytes", buf.len() as f64);
    vec![
        ("aggregate.try_merge_exact_ns", exact_ns),
        ("aggregate.try_merge_counted_ns", counted_ns),
        ("aggregate.tagged_wire_bytes", buf.len() as f64),
        ("aggregate.encode_tagged_ns", encode_ns),
        ("aggregate.decode_tagged_ns", decode_ns),
    ]
}

/// `codec.*`: encode and decode of payloads sampled from a real run.
/// Returns the metrics and the mean frame size (header included).
pub fn codec(payloads: &[Payload<Average>], trace: &mut Trace) -> (Metrics, f64) {
    const PASSES: usize = 8;
    assert!(!payloads.is_empty(), "codec replay needs sampled payloads");
    let span = trace.begin("codec.replay");
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(payloads.len());
    let mut gap = 0.0;
    let mut frame_bytes = 0.0;
    for p in payloads {
        let mut buf = Vec::new();
        codec::encode(p, &mut buf);
        gap += buf.len() as f64 - f64::from(p.wire_size());
        frame_bytes += frame_len(buf.len()) as f64;
        encoded.push(buf);
    }
    let count = payloads.len() as f64;

    let mut buf = Vec::new();
    let t = Instant::now();
    for _ in 0..PASSES {
        for p in payloads {
            buf.clear();
            codec::encode(black_box(p), &mut buf);
        }
    }
    let encode_ns = ns_per(t.elapsed(), PASSES * payloads.len());
    let t = Instant::now();
    for _ in 0..PASSES {
        for bytes in &encoded {
            let mut bytes: &[u8] = black_box(bytes);
            black_box(codec::decode::<Average, _>(&mut bytes).expect("own encoding decodes"));
        }
    }
    let decode_ns = ns_per(t.elapsed(), PASSES * payloads.len());
    trace.end(span);
    trace.count("codec.payloads_sampled", count);
    let frame_bytes_mean = frame_bytes / count;
    (
        vec![
            ("codec.encode_ns", encode_ns),
            ("codec.decode_ns", decode_ns),
            ("codec.frame_bytes_mean", frame_bytes_mean),
            ("codec.wire_size_gap_bytes", gap / count),
        ],
        frame_bytes_mean,
    )
}

/// `simnet.send_drain_ns_per_msg`: the traced run's per-round send
/// counts pushed through a fresh `SimNetwork` with the run's loss rate
/// — one `drain_into` then that round's `send`s, as the engine orders
/// them. Returns the per-message cost and the replay's total seconds.
pub fn simnet(
    n: usize,
    ucastl: f64,
    seed: u64,
    sends_by_round: &[u64],
    trace: &mut Trace,
) -> (f64, f64) {
    let cfg = NetworkConfig::default().with_loss(UniformLoss::new(ucastl).expect("probability"));
    let mut net: SimNetwork<Payload<Average>> = SimNetwork::new(cfg, seed);
    net.reserve_nodes(n);
    let mut due = Vec::new();
    let n = n as u32;
    let span = trace.begin("simnet.replay");
    let t = Instant::now();
    for (round, &sends) in sends_by_round.iter().enumerate() {
        net.drain_into(round as u64, &mut due);
        black_box(&due);
        for i in 0..sends as u32 {
            let from = MemberId(i % n);
            // an odd multiplier scatters destinations over the group
            let to = MemberId(i.wrapping_mul(2_654_435_761) % n);
            let payload = Payload::Vote {
                member: from,
                value: 1.0,
            };
            black_box(net.send(round as u64, from, to, payload, 13));
        }
    }
    net.drain_into(sends_by_round.len() as u64, &mut due);
    let elapsed = t.elapsed();
    trace.end(span);
    let msgs: u64 = sends_by_round.iter().sum();
    trace.count("simnet.replayed_msgs", msgs as f64);
    (ns_per(elapsed, msgs as usize), elapsed.as_secs_f64())
}

/// `hierarchy.place_ns`: the fair hash placement of every member.
pub fn placement(n: usize, k: u8, seed: u64, trace: &mut Trace) -> Metrics {
    const PASSES: usize = 4;
    let hierarchy = Hierarchy::for_group(k, n).expect("validated group size and K");
    let placement = FairHashPlacement::new(hierarchy, seed);
    let span = trace.begin("hierarchy.place");
    let t = Instant::now();
    for _ in 0..PASSES {
        for id in 0..n as u32 {
            black_box(placement.place(MemberId(id)));
        }
    }
    let ns = ns_per(t.elapsed(), PASSES * n);
    trace.end(span);
    vec![("hierarchy.place_ns", ns)]
}

/// `endpoint.*` and `timer.*`: the socket-runtime pieces around the
/// codec, at the workload's pool size, frame size, datagram count and
/// datagram size.
pub fn endpoint(
    sockets: usize,
    n: usize,
    frame_bytes_mean: f64,
    datagrams: u64,
    datagram_bytes_mean: f64,
    max_datagram: usize,
    trace: &mut Trace,
) -> std::io::Result<Metrics> {
    let (pool, bind_s) = {
        let span = trace.begin("endpoint.bind");
        let t = Instant::now();
        let pool = EndpointPool::bind(sockets)?;
        let secs = t.elapsed().as_secs_f64();
        trace.end(span);
        (pool, secs)
    };
    drop(pool);

    // frames of the mean size, packed into datagrams up to the cap
    const FRAME_PASSES: usize = 2048;
    let payload = vec![
        0xA5u8;
        (frame_bytes_mean as usize)
            .saturating_sub(frame_len(0))
            .max(1)
    ];
    let per_datagram = (max_datagram / frame_len(payload.len())).max(1);
    let span = trace.begin("endpoint.frames");
    let mut datagram = Vec::with_capacity(max_datagram);
    let t = Instant::now();
    for _ in 0..FRAME_PASSES {
        datagram.clear();
        for i in 0..per_datagram as u32 {
            push_frame(&mut datagram, i % n as u32, i, black_box(&payload));
        }
    }
    let push_ns = ns_per(t.elapsed(), FRAME_PASSES * per_datagram);
    let t = Instant::now();
    for _ in 0..FRAME_PASSES {
        for frame in FrameIter::new(black_box(&datagram), n as u32) {
            black_box(frame.expect("own frames parse"));
        }
    }
    let iter_ns = ns_per(t.elapsed(), FRAME_PASSES * per_datagram);
    trace.end(span);

    // the kernel's share: the run's datagram count at its mean size,
    // sent and received one at a time over one loopback pair
    let a = UdpSocket::bind(("127.0.0.1", 0))?;
    let b = UdpSocket::bind(("127.0.0.1", 0))?;
    b.set_read_timeout(Some(Duration::from_secs(2)))?;
    let to = b.local_addr()?;
    let out = vec![0x5Au8; (datagram_bytes_mean as usize).clamp(1, 65_000)];
    let mut inbox = vec![0u8; 65_536];
    let span = trace.begin("endpoint.udp_floor");
    let t = Instant::now();
    for _ in 0..datagrams {
        a.send_to(&out, to)?;
        black_box(b.recv_from(&mut inbox)?);
    }
    let floor_s = t.elapsed().as_secs_f64();
    trace.end(span);

    // one round of timers for every member: schedule, then pop as due
    const TIMER_PASSES: usize = 64;
    let interval = Duration::from_millis(5);
    let span = trace.begin("timer.replay");
    let epoch = Instant::now();
    let mut wheel = TimerWheel::new(epoch, interval / 4, 64);
    let mut popped = Vec::with_capacity(n);
    let t = Instant::now();
    for pass in 0..TIMER_PASSES as u32 {
        let deadline = epoch + interval * (pass + 1);
        for member in 0..n as u32 {
            wheel.schedule(deadline, member);
        }
        popped.clear();
        black_box(wheel.pop_due(deadline, &mut popped));
    }
    let timer_ns = ns_per(t.elapsed(), TIMER_PASSES * n);
    trace.end(span);

    Ok(vec![
        ("endpoint.bind_s", bind_s),
        ("endpoint.frame_push_ns", push_ns),
        ("endpoint.frame_iter_ns", iter_ns),
        ("endpoint.udp_floor_s", floor_s),
        ("timer.schedule_pop_ns", timer_ns),
    ])
}
