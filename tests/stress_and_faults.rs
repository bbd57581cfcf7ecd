//! Stress and fault-injection tests: oversubscribed thread storms over the
//! lock-free paths, panic propagation under load, queue backpressure, and
//! long collective round sequences (seqlock wrap-style soak).

use miniapps::stencil::{checksum, rand_stencil, StencilParams};
use pure_core::prelude::*;

fn pure_cfg(ranks: usize) -> Config {
    let mut c = Config::new(ranks);
    c.spin_budget = 8; // yield fast: these tests oversubscribe hard
    c
}

/// Many ranks, many tags, interleaved small and large messages, all pairs.
#[test]
fn all_pairs_message_storm() {
    let n = 6;
    launch(pure_cfg(n), |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        // Buffers first (requests borrow them and drop in reverse order).
        let small = vec![me as u64; 8];
        let big = vec![me as u64; 3000]; // 24 kB: rendezvous
        let mut small_bufs: Vec<Vec<u64>> = (0..n).map(|_| vec![0u64; 8]).collect();
        let mut big_bufs: Vec<Vec<u64>> = (0..n).map(|_| vec![0u64; 3000]).collect();
        // Phase 1: everyone sends to everyone (two tags, two sizes).
        let mut reqs = Vec::new();
        for peer in 0..n {
            if peer == me {
                continue;
            }
            reqs.push(w.isend(&small, peer, 1));
            reqs.push(w.isend(&big, peer, 2));
        }
        // Phase 2: receive everything (posted before waiting, and completed
        // with the sends in one batch wait to avoid rendezvous backpressure
        // deadlock).
        for (peer, (sb, bb)) in small_bufs.iter_mut().zip(big_bufs.iter_mut()).enumerate() {
            if peer == me {
                continue;
            }
            reqs.push(w.irecv(sb, peer, 1));
            reqs.push(w.irecv(bb, peer, 2));
        }
        wait_all(reqs);
        for peer in 0..n {
            if peer == me {
                continue;
            }
            assert!(small_bufs[peer].iter().all(|&x| x == peer as u64));
            assert!(big_bufs[peer].iter().all(|&x| x == peer as u64));
        }
        w.barrier();
    });
}

/// Thousands of tiny messages through a 2-slot queue: backpressure churns
/// the ring many laps.
#[test]
fn tiny_queue_backpressure_soak() {
    let mut cfg = pure_cfg(2);
    cfg.pbq_slots = 2;
    cfg.env_slots = 2;
    launch(cfg, |ctx| {
        let w = ctx.world();
        const N: u32 = 3000;
        if ctx.rank() == 0 {
            for i in 0..N {
                w.send(&[i], 1, 0);
            }
            let mut done = [0u8];
            w.recv(&mut done, 1, 1);
        } else {
            let mut buf = [0u32];
            for i in 0..N {
                w.recv(&mut buf, 0, 0);
                assert_eq!(buf[0], i);
            }
            w.send(&[1u8], 0, 1);
        }
    });
}

/// Long collective soak: thousands of rounds over the same SPTD areas
/// (sequence numbers increase monotonically; reuse must stay clean).
#[test]
fn collective_round_soak() {
    launch(pure_cfg(3), |ctx| {
        let w = ctx.world();
        let mut acc = 0u64;
        for i in 0..2000u64 {
            acc = acc.wrapping_add(w.allreduce_one(i ^ ctx.rank() as u64, ReduceOp::Max));
            if i % 500 == 0 {
                w.barrier();
            }
        }
        let all = w.allreduce_one(acc, ReduceOp::Min);
        assert_eq!(
            all, acc,
            "every rank must have the same accumulated history"
        );
    });
}

/// Panic during a task: peers blocked in collectives must unwind, and the
/// panic must surface with its original message.
#[test]
fn panic_inside_task_propagates() {
    let res = std::panic::catch_unwind(|| {
        launch(pure_cfg(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.execute_task(4, |chunk| {
                    if chunk.start == 3 {
                        // Panics on whichever thread runs chunk 3.
                    }
                });
                panic!("original failure");
            }
            ctx.world().barrier();
        });
    });
    let err = res.expect_err("must propagate");
    let msg = err.downcast_ref::<&str>().copied().unwrap_or_else(|| {
        err.downcast_ref::<String>()
            .map(|s| s.as_str())
            .unwrap_or("?")
    });
    assert!(
        msg.contains("original failure") || msg.contains("peer rank failed"),
        "unexpected panic payload: {msg}"
    );
}

/// Oversubscription torture: many more ranks than cores, tasks + messages +
/// collectives all at once, twice to catch cross-launch state leaks.
#[test]
fn oversubscribed_kitchen_sink_twice() {
    for round in 0..2 {
        let p = StencilParams {
            arr_sz: 512,
            iters: 2,
            mean_work: 10,
            seed: 42 + round,
            ..Default::default()
        };
        let mut cfg = pure_cfg(10).with_ranks_per_node(5);
        cfg.helpers_per_node = 1;
        let (_, sums) = launch_map(cfg, move |ctx| {
            checksum(&rand_stencil(ctx.world(), &p, true))
        });
        let p2 = p;
        let (_, sums2) = launch_map(pure_cfg(10).with_ranks_per_node(5), move |ctx| {
            checksum(&rand_stencil(ctx.world(), &p2, false))
        });
        assert_eq!(sums, sums2, "round {round}");
    }
}

/// Nested splits: split the world, then split the halves, and verify
/// collectives at every level.
#[test]
fn nested_comm_splits() {
    launch(pure_cfg(8), |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        let half = w.split((me / 4) as i64, me as i64).unwrap();
        assert_eq!(half.size(), 4);
        let quarter = half.split((half.rank() / 2) as i64, 0).unwrap();
        assert_eq!(quarter.size(), 2);
        let s = quarter.allreduce_one(me as u64, ReduceOp::Sum);
        // Partner differs in the lowest bit.
        assert_eq!(s, (me ^ 1) as u64 + me as u64);
        // Message within the quarter comm.
        let peer = 1 - quarter.rank();
        let mut got = [0u64];
        quarter.sendrecv(&[me as u64], peer, &mut got, peer, 0);
        assert_eq!(got[0], (me ^ 1) as u64);
        w.barrier();
    });
}

/// Zero-length payloads everywhere.
#[test]
fn zero_length_payloads() {
    launch(pure_cfg(2), |ctx| {
        let w = ctx.world();
        let empty: [f64; 0] = [];
        let mut out: [f64; 0] = [];
        if ctx.rank() == 0 {
            w.send(&empty, 1, 0);
        } else {
            let mut buf: [f64; 0] = [];
            w.recv(&mut buf, 0, 0);
        }
        w.allreduce(&empty, &mut out, ReduceOp::Sum);
        let mut b: [u32; 0] = [];
        w.bcast(&mut b, 0);
    });
}

/// Gather-family soak on an oversubscribed multi-node topology: hundreds of
/// rounds cycling every collective.
#[test]
fn collective_families_soak() {
    launch(pure_cfg(6).with_ranks_per_node(2), move |ctx| {
        let w = ctx.world();
        let me = ctx.rank() as u64;
        for i in 0..120u64 {
            let mut all = vec![0u64; 6];
            w.allgather(&[me + i], &mut all);
            assert_eq!(all, (0..6).map(|r| r as u64 + i).collect::<Vec<_>>());
            let mut pref = [0u64];
            w.scan(&[1], &mut pref, ReduceOp::Sum);
            assert_eq!(pref[0], me + 1);
            let root = (i % 6) as usize;
            let mut blocks = [0u64; 2];
            if ctx.rank() == root {
                let send: Vec<u64> = (0..12).map(|k| i * 100 + k).collect();
                w.scatter(Some(&send), &mut blocks, root);
            } else {
                w.scatter(None, &mut blocks, root);
            }
            assert_eq!(blocks[0], i * 100 + 2 * me);
            let bits = w.allreduce_one(1u64 << me, ReduceOp::BitOr);
            assert_eq!(bits, 0b111111, "iter {i}");
        }
    });
}
