//! Coalescing is latency-aware: a rank's buffered cross-node subframes go
//! on the wire from the fruitless polls of any blocking wait that rank
//! enters, after a fixed 20 µs linger — never by waiting out the age
//! watermark.
//!
//! Every launch here arms `CoalescePlan { flush_ns: u64::MAX, .. }`, so the
//! age watermark can never fire: a lone subframe leaves its buffer only
//! because its sender blocked (or filled the buffer, or exited). Each
//! program below would hang on the timer without the flush-when-blocked
//! rule; the launch deadline turns such a hang into a failure. Nothing
//! asserts on wall-clock time. Every case runs over the simulated fabric
//! and real TCP loopback sockets.

use std::time::Duration;

use netsim::{DetectPlan, FaultPlan};
use pure_core::prelude::*;
use pure_core::wait_all;

/// A detector that never suspects a live peer on a loaded CI host.
const PATIENT: DetectPlan = DetectPlan {
    hb_interval_ns: 1_000_000,
    suspect_after_ns: 10_000_000_000,
    phi: 8,
};

/// Which wire layers ride along with coalescing.
#[derive(Clone, Copy)]
enum Wire {
    /// Coalescing alone: wire counters are exact.
    Coalesce,
    /// Coalescing + the reliable sublayer (no frame is ever dropped) + the
    /// failure detector: the fully armed stack.
    Full,
}

fn cfg(ranks: usize, rpn: usize, backend: Backend, wire: Wire) -> Config {
    // The default plan's count and size watermarks, with the age watermark
    // out of reach.
    let mut net = NetConfig::default()
        .with_backend(backend)
        .with_coalescing(CoalescePlan {
            flush_ns: u64::MAX,
            ..CoalescePlan::default()
        });
    if let Wire::Full = wire {
        net = net
            .with_faults(FaultPlan::drops(7, 0))
            .with_detection(PATIENT);
    }
    let mut c = Config::new(ranks)
        .with_ranks_per_node(rpn)
        .with_net(net)
        .with_deadline(Duration::from_secs(20));
    c.spin_budget = 16;
    c
}

/// Run `program` on every backend × wire stack.
fn on_every_stack(ranks: usize, rpn: usize, program: impl Fn(&RankCtx) + Sync) {
    for backend in [Backend::Sim, Backend::Tcp] {
        for wire in [Wire::Coalesce, Wire::Full] {
            let report = launch(cfg(ranks, rpn, backend, wire), |ctx| program(ctx));
            let s = &report.stats;
            assert_eq!(
                s.pool_hits + s.pool_misses,
                s.pool_recycled + s.pool_freed,
                "{backend:?}: pooled slabs must balance at teardown"
            );
        }
    }
}

/// An 8-byte ping-pong: each direction is one lone subframe, flushed by its
/// sender's blocking `recv`.
#[test]
fn lone_pingpong_subframes_leave_when_the_sender_blocks_in_recv() {
    on_every_stack(2, 1, |ctx| {
        let w = ctx.world();
        let mut word = [0u64];
        for i in 0..200u64 {
            if w.rank() == 0 {
                w.send(&[i], 1, 1);
                w.recv(&mut word, 1, 1);
                assert_eq!(word[0], i ^ 0x5A);
            } else {
                w.recv(&mut word, 0, 1);
                assert_eq!(word[0], i);
                w.send(&[word[0] ^ 0x5A], 0, 1);
            }
        }
    });
}

/// Both ranks `isend` first and only then wait: nobody is in a blocking
/// `recv` when the subframes are buffered. `Request::wait` and `wait_all`
/// flush them.
#[test]
fn request_waits_flush_what_isend_buffered() {
    on_every_stack(2, 1, |ctx| {
        let w = ctx.world();
        let peer = 1 - w.rank();
        for i in 0..60u64 {
            let out = [i * 2 + w.rank() as u64];
            let mut inn = [0u64];
            let recv = w.irecv(&mut inn, peer, 4);
            let send = w.isend(&out, peer, 4);
            if i % 2 == 0 {
                send.wait();
                recv.wait();
            } else {
                wait_all([send, recv]);
            }
            assert_eq!(inn[0], i * 2 + peer as u64);
        }
    });
}

/// Two nodes of two ranks: the leaders' cross-node collective phases are
/// lone subframes flushed by the leader wait.
#[test]
fn two_node_allreduce_and_barrier_complete_without_the_timer() {
    on_every_stack(4, 2, |ctx| {
        let w = ctx.world();
        let n = w.size() as u64;
        for round in 0..40u64 {
            let sum = w.allreduce_one(w.rank() as u64 + round, ReduceOp::Sum);
            assert_eq!(sum, n * (n - 1) / 2 + n * round);
            w.barrier();
        }
    });
}

/// Ranks 0 and 1 share node 0; rank 2 is alone on node 1. Rank 0 `isend`s
/// across nodes and then blocks on an *intra-node* receive whose sender
/// (rank 1) is itself waiting for rank 2 to have seen rank 0's message:
/// only rank 0's own intra-node wait can flush it.
#[test]
fn intra_node_wait_flushes_an_earlier_cross_node_isend() {
    on_every_stack(3, 2, |ctx| {
        let w = ctx.world();
        let mut word = [0u64];
        for i in 0..100u64 {
            match w.rank() {
                0 => {
                    let out = [i];
                    let req = w.isend(&out, 2, 1);
                    w.recv(&mut word, 1, 2);
                    assert_eq!(word[0], i + 2);
                    req.wait();
                }
                1 => {
                    w.recv(&mut word, 2, 3);
                    assert_eq!(word[0], i + 1);
                    w.send(&[i + 2], 0, 2);
                }
                _ => {
                    w.recv(&mut word, 0, 1);
                    assert_eq!(word[0], i);
                    w.send(&[i + 1], 1, 3);
                }
            }
        }
    });
}

/// Bursts stay packed, and a neighbour's wait does not cut them short.
/// Rank 1 streams 64 messages to rank 2 on the other node while rank 0 —
/// same node as rank 1, nothing buffered — sits blocked in an intra-node
/// receive, polling the whole time. Rank 0's fruitless polls must leave
/// rank 1's half-filled buffers alone: the 64 messages leave as exactly 8
/// jumbos of 8 by the count watermark, and the only other jumbo is rank 2's
/// lone ack.
#[test]
fn a_burst_stays_packed_while_a_neighbour_rank_blocks() {
    for backend in [Backend::Sim, Backend::Tcp] {
        let report = launch(cfg(3, 2, backend, Wire::Coalesce), |ctx| {
            let w = ctx.world();
            let mut word = [0u64];
            match w.rank() {
                0 => {
                    w.recv(&mut word, 1, 9);
                    assert_eq!(word[0], 64);
                }
                1 => {
                    for i in 0..64u64 {
                        w.send(&[i], 2, 1);
                    }
                    w.recv(&mut word, 2, 2);
                    w.send(&[word[0]], 0, 9);
                }
                _ => {
                    for i in 0..64u64 {
                        w.recv(&mut word, 1, 1);
                        assert_eq!(word[0], i);
                    }
                    w.send(&[64], 1, 2);
                }
            }
        });
        let s = &report.stats;
        assert_eq!(
            (s.net_coalesced, s.net_coalesce_flushes),
            (65, 9),
            "{backend:?}: 8 full jumbos + 1 lone ack"
        );
    }
}
