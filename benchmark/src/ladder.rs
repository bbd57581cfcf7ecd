//! The ladder: the same message driven through each prefix of the stack
//! (raw PBQ, `msg` within a node, a bare `NodeEndpoint`, then reliable and
//! coalescing on top of it, the runtime across two nodes, TCP), timing each
//! layer from outside through its public API; and the probes behind every
//! per-layer metric that is not specific to the traced workload.
//!
//! Two kinds of probe. *Raw* probes build a layer's public type and call it
//! from this thread (or two threads) in a loop. *Launch* probes run one of
//! the rank programs of [`crate::workloads`] under a chosen configuration
//! and read the block statistics and the launch report's counters.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use netsim::coalesce::{unpack_subframe_ranges, CoalesceBuf};
use netsim::reliable::{deframe, RxState, TxState, SEQ_HEADER_BYTES};
use netsim::{Backend, Cluster, FramePool, WireTag};
use pure_core::channel::envelope::EnvelopeQueue;
use pure_core::channel::pbq::PureBufferQueue;
use pure_core::Counter;

use crate::report::{Failures, Measured};
use crate::segment::{net_config, run_segment, Runtime, Segment};
use crate::spans::{durations_of, totals_by_name};
use crate::spec::{Net, Shape, Wire, ELEMS_1M, WORDS_8K, WORDS_96K};
use crate::stats::{iqr_share, median};
use crate::workloads::{Inputs, Plan};

/// What the ladder produced: the per-layer metrics it owns, the table of
/// rungs, and anything that went wrong on the way.
pub struct LadderOut {
    /// Metric name -> value.
    pub metrics: BTreeMap<&'static str, Measured>,
    /// The rung table, ready to print.
    pub table: String,
}

// ---------------------------------------------------------------------------
// Raw probes
// ---------------------------------------------------------------------------

/// Time `body` for about `budget`: batches of a calibrated iteration count,
/// the median over batches of ns per iteration.
fn per_iter(budget: Duration, mut body: impl FnMut()) -> Measured {
    // Grow the batch until one takes 50 us, so the clock reads are noise.
    let mut n = 8u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..n {
            body();
        }
        if t0.elapsed() >= Duration::from_micros(50) || n >= 1 << 20 {
            break;
        }
        n *= 2;
    }
    let mut batches = Vec::new();
    let start = Instant::now();
    while batches.len() < 5 || start.elapsed() < budget {
        let t0 = Instant::now();
        for _ in 0..n {
            body();
        }
        batches.push(t0.elapsed().as_nanos() as f64 / n as f64);
    }
    Measured::new(
        median(&batches),
        iqr_share(&batches),
        format!("median of {} batches of {n} iterations", batches.len()),
    )
}

fn pbq_send_recv(budget: Duration, bytes: usize) -> Measured {
    let q = PureBufferQueue::new(8, 8192);
    let payload = vec![0xA5u8; bytes];
    let mut out = vec![0u8; bytes];
    per_iter(budget, || {
        black_box(q.try_send(black_box(&payload)));
        black_box(q.try_recv(&mut out));
    })
}

fn pbq_batch4(budget: Duration) -> Measured {
    let q = PureBufferQueue::new(8, 8192);
    let payload = [0xA5u8; 8];
    let msgs: [&[u8]; 4] = [&payload; 4];
    let mut sink = 0u64;
    let mut m = per_iter(budget, || {
        black_box(q.try_send_batch(black_box(msgs)));
        q.try_recv_batch(4, |_, b| sink += u64::from(b[0]));
    });
    black_box(sink);
    m.value /= 4.0;
    m.basis.push_str(", 4 messages each");
    m
}

/// Half a round trip between two threads over two raw PBQs.
fn pbq_handoff(budget: Duration) -> Measured {
    let (there, back) = (PureBufferQueue::new(8, 64), PureBufferQueue::new(8, 64));
    let stop = AtomicBool::new(false);
    let payload = [0x5Au8; 8];
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut buf = [0u8; 8];
            while !stop.load(Ordering::Relaxed) {
                if there.try_recv(&mut buf).is_some() {
                    while !back.try_send(&buf) {}
                }
            }
        });
        let mut buf = [0u8; 8];
        let mut m = per_iter(budget, || {
            while !there.try_send(&payload) {}
            while back.try_recv(&mut buf).is_none() {
                std::hint::spin_loop();
            }
        });
        stop.store(true, Ordering::Relaxed);
        m.value /= 2.0;
        m.basis.push_str(", half of each round trip");
        m
    })
}

fn envelope_rdv(budget: Duration) -> Measured {
    let q = EnvelopeQueue::new(8);
    let payload = vec![0xA5u8; WORDS_96K * 8];
    let mut dst = vec![0u8; WORDS_96K * 8];
    per_iter(budget, || {
        // SAFETY: `dst` outlives the loop and is touched by nobody else until
        // `try_consume` returns below; this one thread plays both the
        // receiver (post, consume) and the sender (fill), in protocol order.
        let ticket = unsafe { q.try_post(dst.as_mut_ptr(), dst.len()) };
        black_box(q.try_fill(black_box(&payload)));
        black_box(ticket.and_then(|t| q.try_consume(t)));
    })
}

fn pool_acquire_release(budget: Duration) -> Measured {
    let pool = FramePool::new();
    per_iter(budget, || {
        let mut b = pool.acquire(64);
        b.extend_from_slice(&[0u8; 8]);
        black_box(&b);
    })
}

/// One frame through an isolated reliable link: stage, deframe, accept,
/// deliver, decide the ACK, apply it.
fn reliable_stage_accept_ack(budget: Duration) -> Measured {
    let pool = FramePool::new();
    let (mut tx, mut rx) = (TxState::new(), RxState::default());
    let mut now = 0u64;
    per_iter(budget, || {
        now += 1000;
        let mut b = pool.acquire(SEQ_HEADER_BYTES + 8);
        b.extend_from_slice(&[0u8; SEQ_HEADER_BYTES]);
        b.extend_from_slice(&[0xA5u8; 8]);
        let wire = tx.stage(b, now);
        let (seq, payload) = deframe(&wire);
        rx.accept(seq, payload);
        black_box(rx.pop_ready());
        if let Some((ack, _)) = rx.ack_due(now, false) {
            tx.on_ack(ack);
        }
    })
}

/// Eight 8-byte subframes packed into a jumbo and walked back out.
fn coalesce_pack_unpack(budget: Duration) -> Measured {
    let pool = FramePool::new();
    let mut buf = CoalesceBuf::default();
    let tag = WireTag::p2p(0, 0, 1).encode();
    let mut m = per_iter(budget, || {
        for _ in 0..8 {
            buf.push(&pool, tag, &[], &[0xA5u8; 8], 0);
        }
        if let Some(jumbo) = buf.take() {
            let frame = jumbo.freeze();
            let mut n = 0usize;
            for (t, r) in unpack_subframe_ranges(&frame[netsim::coalesce::JUMBO_HEADROOM..]) {
                n += r.len() + t as usize % 2;
            }
            black_box(n);
        }
    });
    m.value /= 8.0;
    m.basis.push_str(", 8 subframes each");
    m
}

/// Messages sent back to back before the receiver drains them. Eight is the
/// default coalescing plan's frame watermark, so the burst leaves as one
/// jumbo by count and no rung waits on the age timer.
const BURST: usize = 8;

/// What one endpoint-ladder rung measured.
struct EndpointRung {
    ns_per_msg: Measured,
    memcpy_per_payload_byte: f64,
    pool_outstanding: i64,
}

/// One thread driving both endpoints of a 2-node cluster: a burst of sends
/// from node 0, `progress`, then `try_recv` on node 1 until all arrived.
fn endpoint_burst(budget: Duration, net: Net, bytes: usize, seed: u64) -> EndpointRung {
    let cluster = Cluster::new(2, net_config(net, seed));
    let (a, b) = (cluster.endpoint(0), cluster.endpoint(1));
    let tag = WireTag::p2p(0, 0, 7);
    let payload = vec![0xA5u8; bytes];
    let mut user = vec![0u8; bytes];
    let mut msgs = 0u64;
    let mut m = per_iter(budget, || {
        for _ in 0..BURST {
            a.send(1, tag, &payload);
        }
        a.progress();
        let mut got = 0;
        while got < BURST {
            match b.try_recv(0, tag) {
                Some(frame) => {
                    user.copy_from_slice(&frame);
                    got += 1;
                }
                None => {
                    a.progress();
                }
            }
        }
        msgs += BURST as u64;
    });
    black_box(&user);
    m.value /= BURST as f64;
    m.basis.push_str(&format!(", bursts of {BURST}"));
    let memcpy = cluster.memcpy_bytes() as f64 / (msgs as f64 * bytes as f64);
    cluster.purge_pooled();
    EndpointRung {
        ns_per_msg: m,
        memcpy_per_payload_byte: memcpy,
        pool_outstanding: cluster.pool_snapshot().outstanding(),
    }
}

/// `progress()` on a fully armed 2-node Sim cluster with nothing to do
/// (both endpoints ticked in turn, so neither falls silent).
fn progress_idle(budget: Duration, seed: u64) -> Measured {
    let cluster = Cluster::new(2, net_config(Net::full(Backend::Sim), seed));
    let (a, b) = (cluster.endpoint(0), cluster.endpoint(1));
    let mut m = per_iter(budget, || {
        black_box(a.progress());
        black_box(b.progress());
    });
    m.value /= 2.0;
    m
}

fn tcp_mesh_setup() -> Measured {
    let net = Net::bare(Backend::Tcp);
    let us: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            let c = Cluster::new(2, net_config(net, 0));
            let dt = t0.elapsed().as_nanos() as f64 / 1e3;
            drop(c);
            dt
        })
        .collect();
    Measured::new(
        median(&us),
        iqr_share(&us),
        format!("median of {} 2-node loopback meshes", us.len()),
    )
}

// ---------------------------------------------------------------------------
// Launch probes
// ---------------------------------------------------------------------------

/// Ops per batch of a ladder launch: enough that a batch outlasts the clock
/// reads around it, few enough that a short slice still sees several.
fn batch_of(shape: Shape) -> u64 {
    match shape {
        Shape::PingPong { words } if words <= WORDS_8K => 256,
        Shape::PingPong { .. } => 32,
        Shape::Stream { words: 1, window } => window * 8,
        Shape::Stream { window, .. } => window * 2,
        Shape::Allreduce { elems } if elems <= 1024 => 256,
        Shape::Allreduce { .. } => 8,
        Shape::Comd => 4,
        Shape::Barrier | Shape::Bcast { .. } => 256,
        Shape::Task { .. } => 64,
    }
}

/// State shared by the launch probes: the budget of each, the seed, and the
/// account of what failed.
struct Launcher<'a> {
    seed: u64,
    slice: Duration,
    fails: &'a mut Failures,
    worst_pool_outstanding: i64,
}

impl Launcher<'_> {
    /// One launch of `shape` over `wire`, timed for one slice.
    fn go(&mut self, rt: Runtime, wire: Wire, shape: Shape, trace: bool) -> Segment {
        let inputs = Inputs::generate(self.seed, shape);
        let plan = Plan {
            shape,
            batch: batch_of(shape),
            warm: self.slice.mul_f64(crate::e2e::WARM_SHARE),
            slice: Some(self.slice),
            comd_tasks: true,
        };
        let seg = run_segment(rt, wire, &inputs, &plan, trace);
        crate::e2e::account(std::slice::from_ref(&seg), self.fails);
        self.worst_pool_outstanding = self
            .worst_pool_outstanding
            .max(seg.pool_outstanding().abs());
        seg
    }

    /// Median op latency of such a launch, in ns.
    fn p50(&mut self, rt: Runtime, wire: Wire, shape: Shape) -> Measured {
        let seg = self.go(rt, wire, shape, false);
        block_p50(&seg)
    }
}

fn block_p50(seg: &Segment) -> Measured {
    match seg.block {
        Some(b) => Measured::plain(
            b.p50_ns,
            format!("median of {} ops in one launch", b.samples),
        ),
        None => Measured::plain(f64::NAN, "launch aborted"),
    }
}

fn halved(mut m: Measured) -> Measured {
    m.value /= 2.0;
    m.basis.push_str(", half of each round trip");
    m
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run every probe. `budget` is shared out evenly between them.
pub fn run(seed: u64, budget: Duration, fails: &mut Failures) -> LadderOut {
    // 21 raw probes and 27 timed launches; a launch also pays its warm-up.
    let each = budget.div_f64(21.0 + 27.0 * (1.0 + crate::e2e::WARM_SHARE));
    let mut m: BTreeMap<&'static str, Measured> = BTreeMap::new();
    let ping = |words| Shape::PingPong { words };
    let (bare, full) = (Net::bare(Backend::Sim), Net::full(Backend::Sim));
    let tcp_net = Net::bare(Backend::Tcp);
    let (sim_bare, sim_full, tcp_bare) =
        (Wire::Nodes(bare), Wire::Nodes(full), Wire::Nodes(tcp_net));
    let reliable_only = Net {
        coalesce: false,
        detect: false,
        ..full
    };
    let reliable_coalesce = Net {
        detect: false,
        ..full
    };

    // --- raw layers ---------------------------------------------------------
    m.insert("pbq.send_recv_ns_8B", pbq_send_recv(each, 8));
    m.insert("pbq.send_recv_ns_8K", pbq_send_recv(each, 8192));
    m.insert("pbq.handoff_ns_8B", pbq_handoff(each));
    m.insert("pbq.batch4_ns_per_msg_8B", pbq_batch4(each));
    m.insert("envelope.rdv_ns_96K", envelope_rdv(each));
    m.insert("pool.acquire_release_ns", pool_acquire_release(each));
    m.insert(
        "reliable.stage_accept_ack_ns",
        reliable_stage_accept_ack(each),
    );
    m.insert(
        "coalesce.pack_unpack_ns_per_subframe",
        coalesce_pack_unpack(each),
    );
    m.insert("endpoint.progress_idle_ns", progress_idle(each, seed));
    m.insert("tcp.mesh_setup_us", tcp_mesh_setup());

    // Endpoint rungs: bare, + reliable, + coalesce on Sim, then bare TCP,
    // each at the three sizes.
    let sizes = [8usize, 8192, WORDS_96K * 8];
    let mut raw_pool_outstanding = 0i64;
    let mut rung = |net: Net| -> Vec<EndpointRung> {
        sizes
            .iter()
            .map(|&b| {
                let r = endpoint_burst(each, net, b, seed);
                raw_pool_outstanding = raw_pool_outstanding.max(r.pool_outstanding.abs());
                r
            })
            .collect()
    };
    let ep_bare = rung(bare);
    let ep_rel = rung(reliable_only);
    let ep_co = rung(reliable_coalesce);
    let ep_tcp = rung(tcp_net);
    m.insert("endpoint.send_recv_ns_8B", ep_bare[0].ns_per_msg.clone());
    m.insert("endpoint.send_recv_ns_8K", ep_bare[1].ns_per_msg.clone());
    m.insert("endpoint.send_recv_ns_96K", ep_bare[2].ns_per_msg.clone());
    m.insert(
        "endpoint.memcpy_bytes_per_payload_byte",
        Measured::plain(
            ep_bare[1].memcpy_per_payload_byte,
            "8 KiB messages, bare Sim",
        ),
    );
    m.insert("tcp.send_recv_ns_8B", ep_tcp[0].ns_per_msg.clone());
    m.insert("tcp.send_recv_ns_96K", ep_tcp[2].ns_per_msg.clone());
    m.insert(
        "tcp.memcpy_bytes_per_payload_byte",
        Measured::plain(
            ep_tcp[1].memcpy_per_payload_byte,
            "8 KiB messages, bare TCP",
        ),
    );
    let diff = |a: &Measured, b: &Measured, what: &str| {
        Measured::plain(
            a.value - b.value,
            format!("{:.1} - {:.1} ns, {what}", a.value, b.value),
        )
    };
    m.insert(
        "reliable.added_ns_per_frame",
        diff(
            &ep_rel[0].ns_per_msg,
            &ep_bare[0].ns_per_msg,
            "reliable - bare endpoint, 8 B",
        ),
    );
    m.insert(
        "coalesce.added_ns_per_msg_stream",
        diff(
            &ep_co[0].ns_per_msg,
            &ep_rel[0].ns_per_msg,
            "coalesce+reliable - reliable endpoint, 8 B",
        ),
    );

    // --- launches -----------------------------------------------------------
    let mut l = Launcher {
        seed,
        slice: each,
        fails,
        worst_pool_outstanding: 0,
    };
    use Runtime::{Mpi, Pure};

    // msg within a node.
    let msg8 = halved(l.p50(Pure, Wire::Intra, ping(1)));
    let msg8k = halved(l.p50(Pure, Wire::Intra, ping(WORDS_8K)));
    let msg96k = halved(l.p50(Pure, Wire::Intra, ping(WORDS_96K)));
    m.insert(
        "msg.added_ns_8B",
        diff(
            &msg8,
            &m["pbq.handoff_ns_8B"],
            "msg half round trip - raw PBQ handoff",
        ),
    );
    let traced = l.go(Pure, Wire::Intra, ping(1), true);
    let spans0 = traced
        .trace
        .as_ref()
        .and_then(|t| t.spans.first())
        .map(|(s, _)| s.as_slice())
        .unwrap_or_default();
    for (name, span) in [
        ("msg.send_call_ns_8B", "msg.send"),
        ("msg.recv_call_ns_8B", "msg.recv"),
    ] {
        let d = durations_of(spans0, span);
        let v = if d.is_empty() { f64::NAN } else { median(&d) };
        m.insert(
            name,
            Measured::new(
                v,
                iqr_share(&d),
                format!("median of {} spans on rank 0", d.len()),
            ),
        );
    }
    // First message on fresh channels: the first op of a fresh launch.
    let firsts: Vec<f64> = (0..15)
        .filter_map(|_| {
            let inputs = Inputs::generate(seed, ping(1));
            let plan = Plan {
                shape: ping(1),
                batch: 1,
                warm: Duration::ZERO,
                slice: None,
                comd_tasks: true,
            };
            let seg = run_segment(Pure, Wire::Intra, &inputs, &plan, false);
            crate::e2e::account(std::slice::from_ref(&seg), l.fails);
            seg.ranks
                .as_ref()
                .map(|r| (r[0].t_first_op_ns - r[0].t_barrier_ns) as f64 / 1e3)
        })
        .collect();
    m.insert(
        "msg.first_message_us",
        Measured::new(
            if firsts.is_empty() {
                f64::NAN
            } else {
                median(&firsts)
            },
            iqr_share(&firsts),
            format!(
                "first round trip of {} fresh launches (both directions' channels created)",
                firsts.len()
            ),
        ),
    );
    // PBQ and envelope counters under a windowed stream.
    let s8 = l.go(
        Pure,
        Wire::Intra,
        Shape::Stream {
            words: 1,
            window: 64,
        },
        false,
    );
    let pbq_msgs = s8.counter(Counter::PbqEnq) + s8.counter(Counter::PbqSendBatchMsgs);
    m.insert(
        "pbq.full_stalls_per_kmsg",
        Measured::plain(
            1e3 * ratio(s8.counter(Counter::PbqFullStall), pbq_msgs),
            format!("{pbq_msgs} PBQ messages, 8 B stream in windows of 64"),
        ),
    );
    m.insert(
        "pbq.index_refresh_per_kmsg",
        Measured::plain(
            1e3 * ratio(s8.counter(Counter::PbqIndexRefresh), pbq_msgs),
            format!("{pbq_msgs} PBQ messages, 8 B stream in windows of 64"),
        ),
    );
    let s96 = l.go(
        Pure,
        Wire::Intra,
        Shape::Stream {
            words: WORDS_96K,
            window: 16,
        },
        false,
    );
    let env_msgs = s96.counter(Counter::EnvConsume);
    m.insert(
        "envelope.posts_per_msg",
        Measured::plain(
            ratio(s96.counter(Counter::EnvPost), env_msgs),
            format!("{env_msgs} rendezvous messages, 96 KiB stream in windows of 16"),
        ),
    );

    // collectives within a node.
    let ar8 = l.p50(Pure, Wire::Intra, Shape::Allreduce { elems: 1 });
    let ar1m = l.p50(Pure, Wire::Intra, Shape::Allreduce { elems: ELEMS_1M });
    m.insert(
        "collectives.reduce_gb_per_s_1M",
        Measured::plain(
            2.0 * (ELEMS_1M * 8) as f64 / ar1m.value,
            "2 ranks x 1 MiB of operands / allreduce time",
        ),
    );
    m.insert("collectives.allreduce_ns_8B", ar8);
    m.insert("collectives.allreduce_ns_1M", ar1m);
    m.insert(
        "collectives.barrier_ns",
        l.p50(Pure, Wire::Intra, Shape::Barrier),
    );
    m.insert(
        "collectives.bcast_ns_8K",
        l.p50(Pure, Wire::Intra, Shape::Bcast { words: WORDS_8K }),
    );

    // task: one rank alone, 64 near-empty chunks per op.
    let mut solo = l.p50(Pure, Wire::Solo, Shape::Task { chunks: 64 });
    solo.value /= 64.0;
    solo.basis.push_str(", 64 chunks each");
    m.insert("task.execute_ns_per_chunk_solo", solo);

    // internode: the runtime over a bare 2-node Sim cluster.
    let inter8 = halved(l.p50(Pure, sim_bare, ping(1)));
    let inter8k = halved(l.p50(Pure, sim_bare, ping(WORDS_8K)));
    let inter96k = halved(l.p50(Pure, sim_bare, ping(WORDS_96K)));
    m.insert(
        "internode.added_ns_8B",
        diff(
            &inter8,
            &m["endpoint.send_recv_ns_8B"],
            "runtime half round trip - bare endpoint",
        ),
    );
    m.insert(
        "internode.allreduce_ns_8B_2node",
        l.p50(Pure, sim_bare, Shape::Allreduce { elems: 1 }),
    );
    m.insert(
        "internode.allreduce_ns_1M_2node",
        l.p50(Pure, sim_bare, Shape::Allreduce { elems: ELEMS_1M }),
    );
    let tcp8 = halved(l.p50(Pure, tcp_bare, ping(1)));

    // coalescing as latency: full stack against full-minus-coalescing.
    let no_coalesce = Wire::Nodes(Net {
        coalesce: false,
        ..full
    });
    let pp_full = l.p50(Pure, sim_full, ping(1));
    let pp_noco = l.p50(Pure, no_coalesce, ping(1));
    m.insert(
        "coalesce.added_us_pingpong",
        Measured::plain(
            (pp_full.value - pp_noco.value) / 1e3,
            format!(
                "{:.1} us round trip fully armed - {:.1} us without coalescing, Sim",
                pp_full.value / 1e3,
                pp_noco.value / 1e3
            ),
        ),
    );

    // wire counters under the 8 B stream: fully armed, without coalescing,
    // and fully armed with 1 % of frames dropped.
    let stream = Shape::Stream {
        words: 1,
        window: 64,
    };
    let st_full = l.go(Pure, sim_full, stream, false);
    let st_noco = l.go(Pure, no_coalesce, stream, false);
    let st_lossy = l.go(
        Pure,
        Wire::Nodes(Net {
            drop_pm: Some(10),
            ..full
        }),
        stream,
        false,
    );
    let stats = |s: &Segment| s.report.as_ref().map(|r| r.stats.clone());
    if let (Some(f), Some(n)) = (stats(&st_full), stats(&st_noco)) {
        let (msgs_f, msgs_n) = (st_full.ops().max(1), st_noco.ops().max(1));
        m.insert(
            "reliable.acks_per_kframe",
            Measured::plain(
                1e3 * ratio(f.net_acks, f.net_frames),
                format!("{} wire frames", f.net_frames),
            ),
        );
        m.insert(
            "reliable.retransmits_per_kframe",
            Measured::plain(
                1e3 * ratio(f.net_retransmits, f.net_frames),
                format!("{} wire frames, no loss injected", f.net_frames),
            ),
        );
        m.insert(
            "coalesce.subframes_per_jumbo",
            Measured::plain(
                ratio(f.net_coalesced, f.net_coalesce_flushes),
                format!("{} jumbos", f.net_coalesce_flushes),
            ),
        );
        m.insert(
            "coalesce.frame_reduction",
            Measured::plain(
                ratio(n.net_frames, msgs_n) / ratio(f.net_frames, msgs_f),
                format!(
                    "{:.3} wire frames per message without coalescing over {:.3} with",
                    ratio(n.net_frames, msgs_n),
                    ratio(f.net_frames, msgs_f)
                ),
            ),
        );
        m.insert(
            "pool.hit_ratio",
            Measured::plain(
                ratio(f.pool_hits, f.pool_hits + f.pool_misses),
                format!("{} acquires", f.pool_hits + f.pool_misses),
            ),
        );
        m.insert(
            "endpoint.progress_polls_per_msg",
            Measured::plain(
                ratio(f.net_progress_polls, msgs_f),
                format!("{msgs_f} messages"),
            ),
        );
    }
    let rate = |s: &Segment| s.block.map_or(f64::NAN, |b| b.ops_per_s());
    m.insert(
        "reliable.lossy_goodput_ratio",
        Measured::plain(
            rate(&st_lossy) / rate(&st_full),
            format!(
                "{:.0} msg/s with 1 % of frames dropped over {:.0} msg/s lossless",
                rate(&st_lossy),
                rate(&st_full)
            ),
        ),
    );

    // baseline.
    m.insert(
        "baseline.half_rtt_ns_8B",
        halved(l.p50(Mpi, Wire::Intra, ping(1))),
    );
    m.insert(
        "baseline.half_rtt_ns_96K",
        halved(l.p50(Mpi, Wire::Intra, ping(WORDS_96K))),
    );
    m.insert(
        "baseline.allreduce_ns_8B",
        l.p50(Mpi, Wire::Intra, Shape::Allreduce { elems: 1 }),
    );
    m.insert(
        "baseline.allreduce_ns_1M",
        l.p50(Mpi, Wire::Intra, Shape::Allreduce { elems: ELEMS_1M }),
    );

    // apps: CoMD under the traced communicator.
    let comd = l.go(Pure, Wire::Intra, Shape::Comd, true);
    let solves = comd.ops().max(1);
    if let (Some(report), Some(trace)) = (&comd.report, &comd.trace) {
        let sent: u64 = report.per_rank.iter().map(|r| r.msgs_sent).sum();
        m.insert(
            "apps.comd_msgs_per_solve",
            Measured::plain(
                ratio(sent, solves),
                format!("{solves} solves, both ranks' sends"),
            ),
        );
        let (mut total, mut wait, mut task) = (0u64, 0u64, 0u64);
        for (spans, _) in &trace.spans {
            for (name, t) in totals_by_name(spans) {
                match name {
                    "apps.run_comd" => total += t.total_ns,
                    "task.execute" => task += t.total_ns,
                    n if n.starts_with("msg.") || n.starts_with("collectives.") => {
                        wait += t.total_ns
                    }
                    _ => {}
                }
            }
        }
        let dropped: u64 = trace.spans.iter().map(|(_, d)| d).sum();
        let basis = format!(
            "{:.1} ms in run_comd over both ranks: {:.1} ms in msg/collectives calls, {:.1} ms in task.execute, {dropped} spans dropped",
            total as f64 / 1e6,
            wait as f64 / 1e6,
            task as f64 / 1e6
        );
        m.insert(
            "apps.comd_wait_share",
            Measured::plain(ratio(wait, total), basis.clone()),
        );
        m.insert(
            "apps.comd_compute_share",
            Measured::plain(1.0 - ratio(wait, total), basis),
        );
        let (owned, stolen): (u64, u64) = report.per_rank.iter().fold((0, 0), |(o, s), r| {
            (o + r.chunks_owned, s + r.chunks_stolen)
        });
        m.insert(
            "task.chunks_stolen_share",
            Measured::plain(
                ratio(stolen, owned + stolen),
                format!("{stolen} of {} chunks", owned + stolen),
            ),
        );
        m.insert(
            "task.steal_success_ratio",
            Measured::plain(
                ratio(
                    comd.counter(Counter::Steal),
                    comd.counter(Counter::StealAttempt),
                ),
                format!("{} steal probes", comd.counter(Counter::StealAttempt)),
            ),
        );
    }

    let pool_out = l.worst_pool_outstanding.max(raw_pool_outstanding);
    if raw_pool_outstanding != 0 {
        l.fails.wrong = true;
        l.fails.notes.push(format!(
            "{raw_pool_outstanding} pooled frame buffers outstanding after an endpoint probe"
        ));
    }
    m.insert(
        "pool.outstanding_at_exit",
        Measured::plain(
            pool_out as f64,
            "worst over every ladder launch and endpoint probe, after purge",
        ),
    );

    // --- the rung table -----------------------------------------------------
    let v = |x: &Measured| x.value;
    let rows: [(&str, [f64; 3]); 7] = [
        (
            "raw PBQ handoff / envelope",
            [
                v(&m["pbq.handoff_ns_8B"]),
                f64::NAN,
                v(&m["envelope.rdv_ns_96K"]),
            ],
        ),
        (
            "msg, one node (half rtt)",
            [v(&msg8), v(&msg8k), v(&msg96k)],
        ),
        (
            "endpoint, bare Sim",
            [0, 1, 2].map(|i| v(&ep_bare[i].ns_per_msg)),
        ),
        ("  + reliable", [0, 1, 2].map(|i| v(&ep_rel[i].ns_per_msg))),
        ("  + coalesce", [0, 1, 2].map(|i| v(&ep_co[i].ns_per_msg))),
        (
            "internode, WIRE_BARE Sim (half rtt)",
            [v(&inter8), v(&inter8k), v(&inter96k)],
        ),
        (
            "endpoint, bare TCP loopback",
            [0, 1, 2].map(|i| v(&ep_tcp[i].ns_per_msg)),
        ),
    ];
    let mut table =
        String::from("  ladder: ns per message at each rung (added over the rung it builds on)\n");
    table.push_str(&format!(
        "  {:<38} {:>22} {:>22} {:>22}\n",
        "rung", "8 B", "8 KiB", "96 KiB"
    ));
    // The rung each row adds to: msg on raw, reliable on bare, coalesce on
    // reliable, internode on the bare endpoint, TCP on the bare Sim endpoint.
    let builds_on: [Option<usize>; 7] = [None, Some(0), None, Some(2), Some(3), Some(2), Some(2)];
    for (i, (name, vals)) in rows.iter().enumerate() {
        let cell = |k: usize| {
            let x = vals[k];
            if x.is_nan() {
                return "-".to_string();
            }
            match builds_on[i].map(|b| rows[b].1[k]) {
                Some(base) if !base.is_nan() => format!("{x:.0} ({:+.0})", x - base),
                _ => format!("{x:.0}"),
            }
        };
        table.push_str(&format!(
            "  {name:<38} {:>22} {:>22} {:>22}\n",
            cell(0),
            cell(1),
            cell(2)
        ));
    }
    table.push_str(&format!(
        "  {:<38} {:>22}\n",
        "runtime, WIRE_BARE TCP (half rtt)",
        format!("{:.0}", tcp8.value)
    ));

    m.insert("msg.half_rtt_ns_8B", msg8);
    m.insert("msg.half_rtt_ns_8K", msg8k);
    m.insert("msg.half_rtt_ns_96K", msg96k);
    m.insert("internode.half_rtt_ns_8B", inter8);
    m.insert("tcp.half_rtt_ns_8B", tcp8);
    LadderOut { metrics: m, table }
}
