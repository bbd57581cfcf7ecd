//! What the benchmark declares: its workloads and metrics, by name.
//!
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`--emit-benchmark-json`), and a unit test in [`crate::suite`] fails when
//! the checked-in file is not the generated one.

use netsim::Backend;

/// The message pattern of a launch; an *op* is what every `op_*` metric
/// and `ops_per_s` count. The workloads use the first four; the ladder also
/// uses the rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One op = one round trip of `words` u64 words rank 0 -> 1 -> 0.
    PingPong { words: usize },
    /// One op = one message of `words` u64 words rank 0 -> 1; after every
    /// `window` messages rank 1 answers with a 1-byte ack.
    Stream { words: usize, window: u64 },
    /// One op = one `allreduce` (Sum) of `elems` f64.
    Allreduce { elems: usize },
    /// One op = one `run_comd` solve.
    Comd,
    /// One op = one `barrier`.
    Barrier,
    /// One op = one `bcast` of `words` u64 words from rank 0.
    Bcast { words: usize },
    /// One op = one `task_execute` of `chunks` near-empty chunks.
    Task { chunks: u32 },
}

impl Shape {
    /// Ops per latency sample: a stream is timed by the window, everything
    /// else by the op.
    pub fn ops_per_sample(self) -> u64 {
        match self {
            Shape::Stream { window, .. } => window,
            _ => 1,
        }
    }
}

/// The interconnect of a multi-node configuration, plan by plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Net {
    /// Raw frame plane.
    pub backend: Backend,
    /// Arm the reliable sublayer with a fault plan dropping this many frames
    /// per thousand (`Some(0)` arms it and loses nothing).
    pub drop_pm: Option<u32>,
    /// Arm `CoalescePlan::default()`.
    pub coalesce: bool,
    /// Arm the failure detector.
    pub detect: bool,
}

/// Where the ranks of a launch live and what connects them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// `INTRA`: `Config::new(2)`, both ranks on one node.
    Intra,
    /// One rank alone (`Config::new(1)`): nobody to steal its chunks.
    Solo,
    /// One rank per node over `Net`.
    Nodes(Net),
}

impl Net {
    /// `WIRE_FULL(backend)`: reliable (zero-probability fault plan),
    /// coalescing and failure detection all armed.
    pub const fn full(backend: Backend) -> Self {
        Net {
            backend,
            drop_pm: Some(0),
            coalesce: true,
            detect: true,
        }
    }

    /// `WIRE_BARE(backend)`: none of the three plans (ladder only).
    pub const fn bare(backend: Backend) -> Self {
        Net {
            backend,
            drop_pm: None,
            coalesce: false,
            detect: false,
        }
    }
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as the driver passes it to `--workload`.
    pub name: &'static str,
    /// Runtime configuration.
    pub wire: Wire,
    /// Message pattern.
    pub shape: Shape,
    /// Ops between two looks at the clock (a multiple of the window).
    pub batch: u64,
    /// Why the workload exists (one line, goes into `BENCHMARK.json`).
    pub why: &'static str,
}

/// 96 KiB in u64 words.
pub const WORDS_96K: usize = 96 * 1024 / 8;
/// 8 KiB in u64 words.
pub const WORDS_8K: usize = 8 * 1024 / 8;
/// 1 MiB in f64 elements.
pub const ELEMS_1M: usize = 131_072;

/// The seven workloads, in the order the suite runs them.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "intra_pingpong_8B",
        wire: Wire::Intra,
        shape: Shape::PingPong { words: 1 },
        batch: 2048,
        why: "smallest message on the PBQ path: per-message bookkeeping in pbq/channel/msg is all the work, netsim does none",
    },
    Workload {
        name: "intra_stream_96K",
        wire: Wire::Intra,
        shape: Shape::Stream { words: WORDS_96K, window: 16 },
        batch: 64,
        why: "rendezvous single-copy path over a buffer set 4x a core's L2: envelope + memcpy do the work, pbq almost none",
    },
    Workload {
        name: "xnode_sim_stream_8B",
        wire: Wire::Nodes(Net::full(Backend::Sim)),
        shape: Shape::Stream { words: 1, window: 64 },
        batch: 1024,
        why: "small-message rate through endpoint, coalesce, reliable and pool over Sim, where protocol CPU cost is the whole bill",
    },
    Workload {
        name: "xnode_sim_pingpong_8B",
        wire: Wire::Nodes(Net::full(Backend::Sim)),
        shape: Shape::PingPong { words: 1 },
        batch: 32,
        why: "the same wire layers as latency: coalescing's age watermark and ACK timers cost here instead of paying",
    },
    Workload {
        name: "xnode_tcp_stream_8B",
        wire: Wire::Nodes(Net::full(Backend::Tcp)),
        shape: Shape::Stream { words: 1, window: 64 },
        batch: 1024,
        why: "the same protocol code over real loopback sockets: syscalls dominate, coalescing pays, tcp copies appear",
    },
    Workload {
        name: "allreduce_intra_1M",
        wire: Wire::Intra,
        shape: Shape::Allreduce { elems: ELEMS_1M },
        batch: 8,
        why: "partitioned reducer on 1 MiB, memory-bound: large-payload collectives must show here, messaging changes must not",
    },
    Workload {
        name: "comd_imbalanced",
        wire: Wire::Intra,
        shape: Shape::Comd,
        batch: 8,
        why: "time-to-solution of the paper's headline app with one rank hollowed out: compute and task stealing dominate",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric is good.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end: the share of the parent's median by which the metric may
    /// worsen. Per-layer: unused (0).
    pub bound: f64,
    /// End-to-end: the definition. Per-layer: which end-to-end metric it
    /// should move, on which workload.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        note,
    }
}

/// The end-to-end metrics, measured with tracing off. Every timing bound is
/// at the 25 % the driver allows at most: on the shared 2-vCPU guest this
/// was sized on, ten runs of the same code spread by up to 19 % on
/// `op_p50_us` when the host had a slow quarter of an hour, and a bound the
/// benchmark's own noise can cross refuses every PR.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25,
        "launch call -> rank 0 has left the first barrier and finished its first op (threads, channel tables, first channel, TCP mesh); median over the run's Pure launches"),
    e2e("teardown_s", "s", Better::Lower, 0.25,
        "last op done -> launch returns (finalize linger, reliable drain, pool purge, watchdog join); median over the run's Pure launches"),
    e2e("op_p50_us", "us", Better::Lower, 0.25,
        "median op latency (stream workloads: window time / window size); median over blocks"),
    e2e("op_p99_us", "us", Better::Lower, 0.25,
        "p99 op latency within each of up to 64 consecutive chunks (>= 1000 samples each) of the run's timed ops; first quartile over chunks"),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25,
        "timed ops / time spent in timed batches, at the payload size in the workload's name; median over blocks"),
    e2e("speedup_vs_mpi", "ratio", Better::Higher, 0.25,
        "mpi-baseline time per op / Pure time per op for the identical op sequence; ratio of block medians over alternating Pure/MPI blocks of one process"),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10,
        "VmHWM of the workload's process after its first Pure block, before the baseline first runs"),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        note,
    }
}

const PBQ_MOVES: &str = "op_p50_us, ops_per_s, speedup_vs_mpi on intra_pingpong_8B; flat on intra_stream_96K, allreduce_intra_1M, xnode_*";
const ENV_MOVES: &str = "ops_per_s, op_p50_us on intra_stream_96K; flat on intra_pingpong_8B";
const WIRE_MOVES: &str = "ops_per_s on xnode_sim_stream_8B (most) and xnode_tcp_stream_8B (less: syscalls dilute it); flat on every intra workload";
const LAT_MOVES: &str =
    "op_p50_us, op_p99_us on xnode_sim_pingpong_8B; xnode_*_stream_8B must not lose rate for it";
const TCP_MOVES: &str =
    "ops_per_s on xnode_tcp_stream_8B; xnode_sim_pingpong_8B op_p50_us must not rise for it";
const COLL_MOVES: &str =
    "op_p50_us, speedup_vs_mpi on allreduce_intra_1M; flat on all p2p workloads";
const TASK_MOVES: &str =
    "ops_per_s, speedup_vs_mpi, op_p99_us on comd_imbalanced; flat on p2p workloads";
const SETUP_MOVES: &str = "setup_s, teardown_s on all workloads, largest on xnode_tcp_stream_8B";
const ALLOC_MOVES: &str = "op_p99_us, peak_rss_mb on xnode_*";
const REF_MOVES: &str = "speedup_vs_mpi's denominator; a reference, not a target";
const INFO_MOVES: &str = "context for reading the other metrics of its layer";

/// The per-layer metrics, printed by a traced run. `note` is the
/// prediction written down before measuring: which end-to-end metric the
/// layer metric should move, on which workload, and what should stay flat.
pub const PER_LAYER: [MetricDef; 65] = [
    // runtime: the traced workload's own launches.
    layer("runtime.launch_us", "us", Better::Lower, SETUP_MOVES),
    layer("runtime.first_barrier_us", "us", Better::Lower, SETUP_MOVES),
    layer("runtime.finalize_us", "us", Better::Lower, SETUP_MOVES),
    layer(
        "runtime.ssw_spins_per_op",
        "count",
        Better::Lower,
        TASK_MOVES,
    ),
    layer(
        "runtime.ssw_yields_per_op",
        "count",
        Better::Lower,
        TASK_MOVES,
    ),
    layer("runtime.allocs_per_op", "count", Better::Lower, ALLOC_MOVES),
    layer("runtime.trace_overhead_pct", "%", Better::Lower, INFO_MOVES),
    // pbq: the raw queue, outside any launch.
    layer("pbq.send_recv_ns_8B", "ns", Better::Lower, PBQ_MOVES),
    layer("pbq.send_recv_ns_8K", "ns", Better::Lower, PBQ_MOVES),
    layer("pbq.handoff_ns_8B", "ns", Better::Lower, PBQ_MOVES),
    layer("pbq.batch4_ns_per_msg_8B", "ns", Better::Lower, PBQ_MOVES),
    layer(
        "pbq.full_stalls_per_kmsg",
        "count",
        Better::Lower,
        PBQ_MOVES,
    ),
    layer(
        "pbq.index_refresh_per_kmsg",
        "count",
        Better::Lower,
        PBQ_MOVES,
    ),
    // envelope
    layer("envelope.rdv_ns_96K", "ns", Better::Lower, ENV_MOVES),
    layer("envelope.posts_per_msg", "count", Better::Lower, ENV_MOVES),
    // msg (channel + msg), through an INTRA launch.
    layer("msg.half_rtt_ns_8B", "ns", Better::Lower, PBQ_MOVES),
    layer("msg.half_rtt_ns_8K", "ns", Better::Lower, PBQ_MOVES),
    layer("msg.half_rtt_ns_96K", "ns", Better::Lower, ENV_MOVES),
    layer("msg.send_call_ns_8B", "ns", Better::Lower, PBQ_MOVES),
    layer("msg.recv_call_ns_8B", "ns", Better::Lower, PBQ_MOVES),
    layer("msg.added_ns_8B", "ns", Better::Lower, PBQ_MOVES),
    layer("msg.first_message_us", "us", Better::Lower, SETUP_MOVES),
    // collectives
    layer(
        "collectives.allreduce_ns_8B",
        "ns",
        Better::Lower,
        COLL_MOVES,
    ),
    layer(
        "collectives.allreduce_ns_1M",
        "ns",
        Better::Lower,
        COLL_MOVES,
    ),
    layer(
        "collectives.reduce_gb_per_s_1M",
        "GB/s",
        Better::Higher,
        COLL_MOVES,
    ),
    layer("collectives.barrier_ns", "ns", Better::Lower, COLL_MOVES),
    layer("collectives.bcast_ns_8K", "ns", Better::Lower, COLL_MOVES),
    // task
    layer(
        "task.execute_ns_per_chunk_solo",
        "ns",
        Better::Lower,
        TASK_MOVES,
    ),
    layer(
        "task.steal_success_ratio",
        "ratio",
        Better::Higher,
        TASK_MOVES,
    ),
    layer(
        "task.chunks_stolen_share",
        "ratio",
        Better::Higher,
        TASK_MOVES,
    ),
    // internode: the runtime over a bare 2-node Sim cluster.
    layer(
        "internode.allreduce_ns_8B_2node",
        "ns",
        Better::Lower,
        COLL_MOVES,
    ),
    layer(
        "internode.allreduce_ns_1M_2node",
        "ns",
        Better::Lower,
        COLL_MOVES,
    ),
    layer("internode.half_rtt_ns_8B", "ns", Better::Lower, WIRE_MOVES),
    layer("internode.added_ns_8B", "ns", Better::Lower, WIRE_MOVES),
    // pool
    layer("pool.acquire_release_ns", "ns", Better::Lower, WIRE_MOVES),
    layer("pool.hit_ratio", "ratio", Better::Higher, ALLOC_MOVES),
    layer(
        "pool.outstanding_at_exit",
        "count",
        Better::Lower,
        "must be 0: a nonzero value fails the run",
    ),
    // reliable
    layer(
        "reliable.stage_accept_ack_ns",
        "ns",
        Better::Lower,
        WIRE_MOVES,
    ),
    layer(
        "reliable.added_ns_per_frame",
        "ns",
        Better::Lower,
        WIRE_MOVES,
    ),
    layer(
        "reliable.acks_per_kframe",
        "count",
        Better::Lower,
        LAT_MOVES,
    ),
    layer(
        "reliable.retransmits_per_kframe",
        "count",
        Better::Lower,
        LAT_MOVES,
    ),
    layer(
        "reliable.lossy_goodput_ratio",
        "ratio",
        Better::Higher,
        INFO_MOVES,
    ),
    // coalesce
    layer(
        "coalesce.pack_unpack_ns_per_subframe",
        "ns",
        Better::Lower,
        WIRE_MOVES,
    ),
    layer(
        "coalesce.added_ns_per_msg_stream",
        "ns",
        Better::Lower,
        WIRE_MOVES,
    ),
    layer("coalesce.added_us_pingpong", "us", Better::Lower, LAT_MOVES),
    layer(
        "coalesce.subframes_per_jumbo",
        "count",
        Better::Higher,
        TCP_MOVES,
    ),
    layer(
        "coalesce.frame_reduction",
        "ratio",
        Better::Higher,
        TCP_MOVES,
    ),
    // endpoint: one thread driving both endpoints of a 2-node cluster.
    layer("endpoint.send_recv_ns_8B", "ns", Better::Lower, WIRE_MOVES),
    layer("endpoint.send_recv_ns_8K", "ns", Better::Lower, WIRE_MOVES),
    layer("endpoint.send_recv_ns_96K", "ns", Better::Lower, WIRE_MOVES),
    layer("endpoint.progress_idle_ns", "ns", Better::Lower, LAT_MOVES),
    layer(
        "endpoint.progress_polls_per_msg",
        "count",
        Better::Lower,
        WIRE_MOVES,
    ),
    layer(
        "endpoint.memcpy_bytes_per_payload_byte",
        "ratio",
        Better::Lower,
        WIRE_MOVES,
    ),
    // tcp
    layer("tcp.send_recv_ns_8B", "ns", Better::Lower, TCP_MOVES),
    layer("tcp.send_recv_ns_96K", "ns", Better::Lower, TCP_MOVES),
    layer("tcp.half_rtt_ns_8B", "ns", Better::Lower, TCP_MOVES),
    layer("tcp.mesh_setup_us", "us", Better::Lower, SETUP_MOVES),
    layer(
        "tcp.memcpy_bytes_per_payload_byte",
        "ratio",
        Better::Lower,
        TCP_MOVES,
    ),
    // baseline
    layer("baseline.half_rtt_ns_8B", "ns", Better::Lower, REF_MOVES),
    layer("baseline.half_rtt_ns_96K", "ns", Better::Lower, REF_MOVES),
    layer("baseline.allreduce_ns_8B", "ns", Better::Lower, REF_MOVES),
    layer("baseline.allreduce_ns_1M", "ns", Better::Lower, REF_MOVES),
    // apps
    layer(
        "apps.comd_msgs_per_solve",
        "count",
        Better::Lower,
        TASK_MOVES,
    ),
    layer(
        "apps.comd_compute_share",
        "ratio",
        Better::Higher,
        TASK_MOVES,
    ),
    layer("apps.comd_wait_share", "ratio", Better::Lower, TASK_MOVES),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// True when `name` is made of the characters a metric name may use.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_declared_name_is_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(valid_name(n), "invalid name {n:?}");
            assert!(seen.insert(n), "name {n:?} used twice");
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn batches_are_whole_windows_and_bounds_fit_the_contract() {
        for w in &WORKLOADS {
            if let Shape::Stream { window, .. } = w.shape {
                assert_eq!(w.batch % window, 0, "{}", w.name);
            }
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
