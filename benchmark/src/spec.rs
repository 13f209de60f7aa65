//! The benchmark's fixed vocabulary: workloads, metrics, units, bounds.
//!
//! `BENCHMARK.json` at the repo root states the same tables for the
//! driver that gates pull requests; `tests/spec.rs` fails when the two
//! drift apart.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// The fixed name.
    pub name: &'static str,
    /// One line: what it stresses that the others do not.
    pub why: &'static str,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// The fixed name.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// One per-layer metric; the module it measures is the name's prefix.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// The fixed name.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// A timing difference below this is never reported as a regression by
/// `compare`, whatever its share of the median.
pub const TIMING_FLOOR_S: f64 = 0.005;

/// The five workloads.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "sim-exact-16k",
        why: "one-shot hiergossip at N=16384, the largest group on exact 2 KB contributor bitmaps: VoteSet/Tagged merges and clones dominate",
    },
    WorkloadSpec {
        name: "sim-counted-32k",
        why: "same at N=32768 on 8-byte counted sets: engine round loop, simnet send/drain and the hiergossip step dominate, VoteSet work must not show",
    },
    WorkloadSpec {
        name: "sweep-small",
        why: "168 tiny runs of all five protocols on the sweep executor, as the figure binaries do: per-run set-up, the baselines and the thread pool dominate",
    },
    WorkloadSpec {
        name: "churn-2k",
        why: "24 epochs of run_continuous under churn at N=2048, hiergossip restart then Flow-Updating: engine re-entry over a rebuilt membership",
    },
    WorkloadSpec {
        name: "udp-sat-4k",
        why: "4096 members over 64 loopback UDP sockets with ticks back to back: the only workload through codec, runtime and kernel sockets",
    },
];

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Higher,
        bound,
    }
}

/// The eight end-to-end metrics. README.md has the glossary.
///
/// The bounds come from what the metrics do on the 2-core probe host
/// when nothing changes: each is at least three times the spread of
/// ten runs with ten seeds on a quiet host (`steadiness.py`). Host time
/// gets the widest bound the driver allows; README.md, "Noise", says
/// why.
pub const END_TO_END: [EndToEnd; 8] = [
    lower("setup_s", "s", 0.25),
    lower("run_s", "s", 0.25),
    lower("peak_rss_mb", "MB", 0.15),
    lower("rounds_to_done", "rounds", 0.10),
    lower("msgs_per_member", "msgs", 0.05),
    lower("bytes_per_member", "B", 0.10),
    higher("completeness", "fraction", 0.05),
    higher("ok_frac", "fraction", 0.001),
];

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, grouped by the module they measure. A
/// workload that does not run a layer reports that layer's metrics as
/// 0; README.md says which workload runs which.
pub const PER_LAYER: [PerLayer; 62] = [
    lo("aggregate.try_merge_exact_ns", "ns"),
    lo("aggregate.try_merge_counted_ns", "ns"),
    lo("aggregate.tagged_wire_bytes", "B"),
    lo("aggregate.encode_tagged_ns", "ns"),
    lo("aggregate.decode_tagged_ns", "ns"),
    lo("codec.encode_ns", "ns"),
    lo("codec.decode_ns", "ns"),
    lo("codec.frame_bytes_mean", "B"),
    lo("codec.wire_size_gap_bytes", "B"),
    lo("hiergossip.on_message_s", "s"),
    lo("hiergossip.on_round_s", "s"),
    lo("hiergossip.on_message_calls", "count"),
    lo("hiergossip.on_round_calls", "count"),
    lo("hiergossip.init_s", "s"),
    lo("simnet.send_drain_ns_per_msg", "ns"),
    lo("simnet.peak_in_flight", "count"),
    lo("simnet.drop_frac", "fraction"),
    lo("engine.run_traced_s", "s"),
    lo("engine.self_s", "s"),
    lo("engine.self_frac", "fraction"),
    lo("engine.ns_per_msg", "ns"),
    lo("engine.allocs_per_msg", "count"),
    lo("engine.peak_heap_mb", "MB"),
    lo("engine.protocol_steps", "count"),
    lo("engine.trace_overhead_frac", "fraction"),
    hi("engine.forkjoin_speedup_j2", "x"),
    lo("group.build_s", "s"),
    lo("scope.build_s", "s"),
    lo("hierarchy.place_ns", "ns"),
    lo("baselines.flood_s", "s"),
    lo("baselines.flatgossip_s", "s"),
    lo("baselines.central_s", "s"),
    lo("baselines.leader_s", "s"),
    lo("hiergossip.cells_s", "s"),
    lo("sweep.cells", "count"),
    lo("sweep.cpu_s", "s"),
    hi("sweep.parallel_efficiency", "fraction"),
    lo("continuous.hier_s", "s"),
    lo("continuous.flow_s", "s"),
    lo("continuous.msgs_per_epoch", "msgs"),
    lo("continuous.ns_per_msg", "ns"),
    hi("continuous.epochs_run", "count"),
    lo("runtime.agg_wall_s", "s"),
    lo("runtime.cpu_user_s", "s"),
    lo("runtime.cpu_sys_s", "s"),
    lo("runtime.us_per_frame", "us"),
    lo("runtime.frames_sent", "count"),
    lo("runtime.datagrams_sent", "count"),
    hi("runtime.frames_per_datagram", "count"),
    lo("runtime.bytes_per_frame", "B"),
    lo("runtime.retries", "count"),
    lo("runtime.injected_drops", "count"),
    lo("runtime.decode_errors", "count"),
    lo("runtime.mailbox_high_water", "count"),
    lo("runtime.wakeups", "count"),
    lo("runtime.mean_rounds", "rounds"),
    hi("runtime.w2_speedup", "x"),
    lo("endpoint.bind_s", "s"),
    lo("endpoint.frame_push_ns", "ns"),
    lo("endpoint.frame_iter_ns", "ns"),
    lo("endpoint.udp_floor_s", "s"),
    lo("timer.schedule_pop_ns", "ns"),
];
