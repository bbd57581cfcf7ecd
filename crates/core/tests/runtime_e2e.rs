//! End-to-end tests of the Pure runtime: launch, messaging in all three
//! channel regimes, non-blocking ops, collectives, communicator splits and
//! Pure Tasks — on single- and multi-node topologies, oversubscribed on
//! whatever cores the machine has.

use pure_core::prelude::*;
use pure_core::wait_all;

fn cfg(ranks: usize) -> Config {
    let mut c = Config::new(ranks);
    c.spin_budget = 16; // oversubscribed CI: yield early
    c
}

fn cfg_nodes(ranks: usize, rpn: usize) -> Config {
    cfg(ranks).with_ranks_per_node(rpn)
}

#[test]
fn single_rank_launch_works() {
    let report = launch(cfg(1), |ctx| {
        assert_eq!(ctx.rank(), 0);
        assert_eq!(ctx.nranks(), 1);
        ctx.world().barrier();
        let s = ctx.world().allreduce_one(5u64, ReduceOp::Sum);
        assert_eq!(s, 5);
    });
    assert_eq!(report.per_rank.len(), 1);
}

#[test]
fn ring_small_messages() {
    let n = 4;
    launch(cfg(n), |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        let next = (me + 1) % ctx.nranks();
        let prev = (me + ctx.nranks() - 1) % ctx.nranks();
        let mut token = [0u64];
        if me == 0 {
            w.send(&[42u64], next, 7);
            w.recv(&mut token, prev, 7);
            assert_eq!(token[0], 42 + (ctx.nranks() as u64 - 1));
        } else {
            w.recv(&mut token, prev, 7);
            w.send(&[token[0] + 1], next, 7);
        }
    });
}

#[test]
fn large_messages_use_rendezvous() {
    // 64 KiB payloads exceed the 8 KiB PBQ threshold.
    const N: usize = 8192;
    launch(cfg(2), |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            let data: Vec<f64> = (0..N).map(|i| i as f64 * 0.5).collect();
            w.send(&data, 1, 3);
        } else {
            let mut buf = vec![0.0f64; N];
            w.recv(&mut buf, 0, 3);
            assert!(buf.iter().enumerate().all(|(i, &x)| x == i as f64 * 0.5));
        }
    });
}

#[test]
fn message_order_is_preserved_per_channel() {
    launch(cfg(2), |ctx| {
        let w = ctx.world();
        const M: u32 = 500;
        if ctx.rank() == 0 {
            for i in 0..M {
                w.send(&[i], 1, 0);
            }
        } else {
            let mut buf = [0u32];
            for i in 0..M {
                w.recv(&mut buf, 0, 0);
                assert_eq!(buf[0], i, "messages reordered");
            }
        }
    });
}

#[test]
fn tags_route_independently() {
    launch(cfg(2), |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            w.send(&[1u8], 1, 10);
            w.send(&[2u8], 1, 20);
        } else {
            let mut a = [0u8];
            let mut b = [0u8];
            // Receive in reverse tag order: must still match by tag.
            w.recv(&mut b, 0, 20);
            w.recv(&mut a, 0, 10);
            assert_eq!((a[0], b[0]), (1, 2));
        }
    });
}

#[test]
fn nonblocking_waits_complete_out_of_order() {
    launch(cfg(2), |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            let x = [11u32; 16];
            let y = [22u32; 16];
            let r1 = w.isend(&x, 1, 5);
            let r2 = w.isend(&y, 1, 5);
            r2.wait();
            r1.wait();
        } else {
            let mut a = [0u32; 16];
            let mut b = [0u32; 16];
            let r1 = w.irecv(&mut a, 0, 5);
            let r2 = w.irecv(&mut b, 0, 5);
            // Wait the *second* first: post-order matching must hold.
            r2.wait();
            r1.wait();
            assert_eq!(a, [11; 16]);
            assert_eq!(b, [22; 16]);
        }
    });
}

#[test]
fn sendrecv_exchanges_without_deadlock() {
    launch(cfg(2), |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        let peer = 1 - me;
        let tx = [me as u64; 4];
        let mut rx = [99u64; 4];
        w.sendrecv(&tx, peer, &mut rx, peer, 0);
        assert_eq!(rx, [peer as u64; 4]);
    });
}

#[test]
fn allreduce_small_and_large() {
    let n = 6;
    launch(cfg(n), |ctx| {
        let w = ctx.world();
        let me = ctx.rank() as f64;
        // Small (fits the SPTD flat-combining path).
        let mut out = [0.0f64; 8];
        let input = [me; 8];
        w.allreduce(&input, &mut out, ReduceOp::Sum);
        let expect: f64 = (0..n).map(|x| x as f64).sum();
        assert_eq!(out, [expect; 8]);
        // Large (Partitioned Reducer: > 2 KiB).
        let big: Vec<f64> = (0..1000).map(|i| me * 1000.0 + i as f64).collect();
        let mut big_out = vec![0.0f64; 1000];
        w.allreduce(&big, &mut big_out, ReduceOp::Max);
        for (i, &x) in big_out.iter().enumerate() {
            assert_eq!(x, (n as f64 - 1.0) * 1000.0 + i as f64);
        }
    });
}

#[test]
fn reduce_to_each_root() {
    let n = 5;
    for root in 0..n {
        launch(cfg(n), move |ctx| {
            let w = ctx.world();
            let input = [1u64, ctx.rank() as u64];
            if ctx.rank() == root {
                let mut out = [0u64; 2];
                w.reduce(&input, Some(&mut out), root, ReduceOp::Sum);
                assert_eq!(out[0], n as u64);
                assert_eq!(out[1], (0..n as u64).sum::<u64>());
            } else {
                w.reduce(&input, None, root, ReduceOp::Sum);
            }
        });
    }
}

/// Rank `rank`'s element `i` for the large-path tests: different on every
/// rank and element, so a chunk written to the wrong offset or a rank's
/// input combined twice changes the result.
fn contribution(rank: usize, i: usize) -> u64 {
    ((rank * 7919 + i * 31) % 251) as u64
}

/// The serial fold of every rank's input in rank order, which is the
/// combine order both reduction paths promise on one node.
fn serial_fold<T: Reducible>(inputs: &[Vec<T>], op: ReduceOp) -> Vec<T> {
    let mut acc = inputs[0].clone();
    for inp in &inputs[1..] {
        T::reduce_assign(op, &mut acc, inp);
    }
    acc
}

/// Out-of-place and in-place allreduce on the Partitioned Reducer path
/// (above 2 KiB) must both give the serial fold of every rank's input.
fn check_large_allreduce<T: Reducible + std::fmt::Debug>(
    n: usize,
    len: usize,
    op: ReduceOp,
    elem: fn(u64) -> T,
) {
    let inputs: Vec<Vec<T>> = (0..n)
        .map(|r| (0..len).map(|i| elem(contribution(r, i))).collect())
        .collect();
    let want = serial_fold(&inputs, op);
    launch(cfg(n), |ctx| {
        let w = ctx.world();
        let input = &inputs[ctx.rank()];
        assert!(std::mem::size_of_val(&input[..]) > 2048);
        let mut out = vec![elem(0); len];
        w.allreduce(input, &mut out, op);
        assert!(out == want, "{}: out-of-place result differs", T::NAME);
        let mut inplace = input.clone();
        w.allreduce_in_place(&mut inplace, op);
        assert!(inplace == want, "{}: in-place result differs", T::NAME);
    });
}

#[test]
fn large_allreduce_odd_length_in_and_out_of_place() {
    // 131 075 elements: not a multiple of the reducer's 4 KiB tile or of a
    // cache line, for any of the three element sizes.
    let len = 131_075;
    check_large_allreduce::<f64>(5, len, ReduceOp::Sum, |x| x as f64);
    check_large_allreduce::<f32>(5, len, ReduceOp::Max, |x| x as f32);
    check_large_allreduce::<u8>(5, len, ReduceOp::Sum, |x| x as u8);
}

#[test]
fn large_reduce_to_each_root_leaves_non_roots_untouched() {
    let n = 5;
    let len = 3_001;
    let inputs: Vec<Vec<u64>> = (0..n)
        .map(|r| (0..len).map(|i| contribution(r, i)).collect())
        .collect();
    let want = serial_fold(&inputs, ReduceOp::Sum);
    for root in 0..n {
        launch(cfg(n), |ctx| {
            let w = ctx.world();
            let me = ctx.rank();
            let input = inputs[me].clone();
            // A non-root may pass a buffer; it must not be written.
            let mut out = vec![u64::MAX; len];
            let pass_out = me == root || me % 2 == 1;
            w.reduce(
                &input,
                pass_out.then_some(&mut out[..]),
                root,
                ReduceOp::Sum,
            );
            assert_eq!(input, inputs[me], "rank {me}: input written (root {root})");
            if me == root {
                assert!(out == want, "root {root}: wrong result");
            } else {
                assert!(
                    out.iter().all(|&x| x == u64::MAX),
                    "rank {me}: non-root output written (root {root})"
                );
            }
        });
    }
}

#[test]
fn large_f64_sum_is_bit_identical_to_rank_order_fold() {
    let n = 5;
    let len = 4_099;
    // Magnitudes 10^-8 … 10^8 apart: floating-point addition is not
    // associative here, so any other combine order changes some bits.
    let inputs: Vec<Vec<f64>> = (0..n)
        .map(|r| {
            (0..len)
                .map(|i| {
                    let scale = 10f64.powi((r * 7 + i) as i32 % 17 - 8);
                    (contribution(r, i) as f64 + 0.1) * scale
                })
                .collect()
        })
        .collect();
    let want = serial_fold(&inputs, ReduceOp::Sum);
    let mut reversed: Vec<Vec<f64>> = inputs.clone();
    reversed.reverse();
    assert!(
        serial_fold(&reversed, ReduceOp::Sum)
            .iter()
            .zip(&want)
            .any(|(a, b)| a.to_bits() != b.to_bits()),
        "inputs too tame: the combine order does not show"
    );
    launch(cfg(n), |ctx| {
        let w = ctx.world();
        let mut out = vec![0.0f64; len];
        w.allreduce(&inputs[ctx.rank()], &mut out, ReduceOp::Sum);
        for (i, (a, b)) in out.iter().zip(&want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "element {i}: {a} != {b}");
        }
    });
}

#[test]
fn large_allreduce_and_reduce_across_two_node_groups() {
    // Two nodes of two ranks: the large path reduces into the leader's
    // scratch, runs the cross-node phase and copies the result out.
    let n = 4;
    let len = 20_003;
    let inputs: Vec<Vec<u64>> = (0..n)
        .map(|r| (0..len).map(|i| contribution(r, i)).collect())
        .collect();
    let want = serial_fold(&inputs, ReduceOp::Sum);
    launch(cfg_nodes(n, 2), |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        let mut out = vec![0u64; len];
        w.allreduce(&inputs[me], &mut out, ReduceOp::Sum);
        assert!(out == want, "rank {me}: out-of-place result differs");
        let mut inplace = inputs[me].clone();
        w.allreduce_in_place(&mut inplace, ReduceOp::Sum);
        assert!(inplace == want, "rank {me}: in-place result differs");
        for root in 0..n {
            let mut out = vec![u64::MAX; len];
            w.reduce(
                &inputs[me],
                (me == root).then_some(&mut out[..]),
                root,
                ReduceOp::Sum,
            );
            if me == root {
                assert!(out == want, "root {root}: wrong result");
            }
        }
    });
}

#[test]
fn bcast_small_and_large() {
    let n = 5;
    launch(cfg(n), |ctx| {
        let w = ctx.world();
        let mut small = if ctx.rank() == 2 {
            [7u32; 4]
        } else {
            [0u32; 4]
        };
        w.bcast(&mut small, 2);
        assert_eq!(small, [7; 4]);
        let mut large = vec![0f32; 5000];
        if ctx.rank() == 0 {
            large
                .iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = i as f32);
        }
        w.bcast(&mut large, 0);
        assert!(large.iter().enumerate().all(|(i, &x)| x == i as f32));
    });
}

#[test]
fn barrier_sequences_rounds() {
    launch(cfg(4), |ctx| {
        for _ in 0..50 {
            ctx.world().barrier();
        }
    });
}

#[test]
fn multi_node_messaging_and_collectives() {
    // 6 ranks over 3 simulated nodes: exercises remote channels, the tag
    // encoding, and the cross-node collective phases.
    let n = 6;
    launch(cfg_nodes(n, 2), |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        assert_eq!(ctx.node(), me / 2);
        // Cross-node ring.
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        let mut token = [0u64];
        w.sendrecv(&[me as u64], next, &mut token, prev, 1);
        assert_eq!(token[0], prev as u64);
        // Collectives spanning nodes.
        let sum = w.allreduce_one(me as u64, ReduceOp::Sum);
        assert_eq!(sum, (0..n as u64).sum());
        w.barrier();
        let mut payload = vec![0u64; 700]; // large bcast across nodes
        if me == 3 {
            payload
                .iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = i as u64 * 3);
        }
        w.bcast(&mut payload, 3);
        assert!(payload.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    });
}

#[test]
fn multi_node_large_messages() {
    launch(cfg_nodes(4, 2), |ctx| {
        let w = ctx.world();
        const N: usize = 10_000;
        if ctx.rank() == 0 {
            let data: Vec<u64> = (0..N as u64).collect();
            w.send(&data, 3, 9); // node 0 → node 1
        } else if ctx.rank() == 3 {
            let mut buf = vec![0u64; N];
            w.recv(&mut buf, 0, 9);
            assert!(buf.iter().enumerate().all(|(i, &x)| x == i as u64));
        }
    });
}

#[test]
fn comm_split_partitions_and_operates() {
    let n = 6;
    launch(cfg(n), |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        let color = (me % 2) as i64;
        let sub = w.split(color, me as i64).expect("positive color");
        assert_eq!(sub.size(), n / 2);
        assert_eq!(sub.rank(), me / 2);
        // Collectives on the sub-communicator.
        let sum = sub.allreduce_one(me as u64, ReduceOp::Sum);
        let expect: u64 = (0..n as u64).filter(|r| r % 2 == me as u64 % 2).sum();
        assert_eq!(sum, expect);
        // Messaging within the sub-communicator.
        if sub.size() >= 2 {
            let peer = (sub.rank() + 1) % sub.size();
            let from = (sub.rank() + sub.size() - 1) % sub.size();
            let mut got = [0u64];
            sub.sendrecv(&[sub.rank() as u64], peer, &mut got, from, 2);
            assert_eq!(got[0], from as u64);
        }
    });
}

#[test]
fn comm_split_undefined_color_opts_out() {
    launch(cfg(4), |ctx| {
        let w = ctx.world();
        let color = if ctx.rank() == 0 { -1 } else { 1 };
        let sub = w.split(color, 0);
        if ctx.rank() == 0 {
            assert!(sub.is_none());
        } else {
            let sub = sub.unwrap();
            assert_eq!(sub.size(), 3);
            let s = sub.allreduce_one(1u32, ReduceOp::Sum);
            assert_eq!(s, 3);
        }
    });
}

#[test]
fn split_by_node_matches_topology() {
    launch(cfg_nodes(4, 2), |ctx| {
        let w = ctx.world();
        let sub = w.split(ctx.node() as i64, ctx.rank() as i64).unwrap();
        assert_eq!(sub.size(), 2);
        let s = sub.allreduce_one(ctx.rank() as u64, ReduceOp::Sum);
        let base = (ctx.node() * 2) as u64;
        assert_eq!(s, base + base + 1);
    });
}

#[test]
fn pure_task_executes_all_chunks() {
    launch(cfg(3), |ctx| {
        let mut data = vec![0u64; 4096];
        let shared = SharedSlice::new(&mut data);
        ctx.execute_task(64, |chunk| {
            for x in shared.chunk_aligned(&chunk) {
                *x += 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1));
    });
}

#[test]
fn pure_task_object_reuse_and_per_exe_args() {
    launch(cfg(2), |ctx| {
        let mut data = vec![0i64; 1024];
        let shared = SharedSlice::new(&mut data);
        let task = PureTask::<i64>::new(16, |chunk, extra| {
            let add = *extra.expect("always passed");
            for x in shared.chunk_aligned(&chunk) {
                *x += add;
            }
        });
        for it in 1..=3i64 {
            task.execute_with(ctx, &it);
        }
        drop(task);
        assert!(data.iter().all(|&x| x == 1 + 2 + 3));
    });
}

#[test]
fn tasks_steal_while_blocked_on_recv() {
    // Rank 0 runs a long task; rank 1 blocks receiving from rank 0 and (on a
    // multicore box) steals chunks meanwhile. On any machine the run must
    // complete with every chunk executed exactly once.
    let report = launch(cfg(2), |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            let mut data = vec![0u32; 1 << 14];
            let shared = SharedSlice::new(&mut data);
            ctx.execute_task(128, |chunk| {
                for x in shared.chunk_aligned(&chunk) {
                    *x = std::hint::black_box(*x + 1);
                }
            });
            assert!(data.iter().all(|&x| x == 1));
            w.send(&[1u8], 1, 0);
        } else {
            let mut done = [0u8];
            w.recv(&mut done, 0, 0); // SSW-Loop: steals from rank 0's task
        }
    });
    let owned: u64 = report.per_rank.iter().map(|r| r.chunks_owned).sum();
    let stolen: u64 = report.per_rank.iter().map(|r| r.chunks_stolen).sum();
    assert_eq!(owned + stolen, 128, "every chunk accounted for");
}

/// A rank blocked in a batch wait runs the SSW loop like any other wait:
/// it steals chunks of a co-resident rank's task. The chunks sleep, so the
/// owner leaves the core free for the thief even on one vCPU.
#[test]
fn wait_all_steals_while_blocked() {
    let report = launch(cfg(2), |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            ctx.execute_task(64, |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            w.send(&[1u8], 1, 0);
        } else {
            let mut done = [0u8];
            wait_all(vec![w.irecv(&mut done, 0, 0)]);
        }
    });
    let (owner, thief) = (&report.per_rank[0], &report.per_rank[1]);
    assert_eq!(owner.chunks_owned + thief.chunks_stolen, 64);
    assert!(
        thief.chunks_stolen > 0,
        "rank 1 stole nothing while blocked in wait_all"
    );
}

#[test]
fn helper_threads_are_harmless_and_can_steal() {
    let mut c = cfg(2);
    c.helpers_per_node = 2;
    let report = launch(c, |ctx| {
        let mut data = vec![0u8; 1 << 13];
        let shared = SharedSlice::new(&mut data);
        ctx.execute_task(64, |chunk| {
            for x in shared.chunk_aligned(&chunk) {
                *x += 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1));
    });
    let total: u64 = report
        .per_rank
        .iter()
        .map(|r| r.chunks_owned + r.chunks_stolen)
        .sum();
    assert_eq!(total, 2 * 64);
}

/// The steal seed changes which rank runs a chunk, never how many times.
#[test]
fn every_steal_seed_runs_each_chunk_once() {
    for seed in [0, 1, 0x5EED, u64::MAX] {
        let mut c = cfg(3);
        c.seed = seed;
        let report = launch(c, |ctx| {
            let mut data = vec![0u16; 2048];
            let shared = SharedSlice::new(&mut data);
            ctx.execute_task(32, |chunk| {
                for x in shared.chunk_aligned(&chunk) {
                    *x += 1;
                }
            });
            assert!(data.iter().all(|&x| x == 1));
        });
        let total: u64 = report
            .per_rank
            .iter()
            .map(|r| r.chunks_owned + r.chunks_stolen)
            .sum();
        assert_eq!(total, 3 * 32, "seed {seed:#x}");
    }
}

#[test]
fn allreduce_and_barrier_alternate_on_sptd_arrival() {
    // Allreduce and barrier share the collective area's pairwise SPTD
    // sequence numbers: alternating them must keep every round in step.
    launch(cfg(4), |ctx| {
        let w = ctx.world();
        for round in 0..10u64 {
            let s = w.allreduce_one(ctx.rank() as u64 + round, ReduceOp::Sum);
            assert_eq!(s, 6 + 4 * round);
            w.barrier();
        }
    });
}

#[test]
fn launch_map_collects_results() {
    let (_report, results) = launch_map(cfg(4), |ctx| ctx.rank() * 10);
    assert_eq!(results, vec![0, 10, 20, 30]);
}

#[test]
fn rank_panic_aborts_all_ranks() {
    let res = std::panic::catch_unwind(|| {
        launch(cfg(3), |ctx| {
            if ctx.rank() == 1 {
                panic!("deliberate failure");
            }
            // Other ranks block on a message that will never arrive; the
            // abort flag must unwind them.
            let mut b = [0u8];
            ctx.world().recv(&mut b, 1, 0);
        });
    });
    assert!(res.is_err(), "the panic must propagate out of launch");
}

#[test]
fn custom_rank_map_is_honored() {
    let mut c = cfg(4);
    c.rank_map = Some(vec![0, 1, 0, 1]); // interleaved placement
    launch(c, |ctx| {
        assert_eq!(ctx.node(), ctx.rank() % 2);
        let s = ctx.world().allreduce_one(1u32, ReduceOp::Sum);
        assert_eq!(s, 4);
    });
}

#[test]
fn aries_like_latency_still_correct() {
    let mut c = cfg_nodes(4, 2);
    c.net = NetConfig::aries_like();
    launch(c, |ctx| {
        let w = ctx.world();
        let s = w.allreduce_one(ctx.rank() as u64, ReduceOp::Sum);
        assert_eq!(s, 6);
        if ctx.rank() == 0 {
            w.send(&[123u64], 2, 0);
        } else if ctx.rank() == 2 {
            let mut b = [0u64];
            w.recv(&mut b, 0, 0);
            assert_eq!(b[0], 123);
        }
    });
}

#[test]
fn stats_count_messages() {
    let report = launch(cfg(2), |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            w.send(&[0u8; 100], 1, 0);
            w.send(&[0u8; 50], 1, 1);
        } else {
            let mut a = [0u8; 100];
            let mut b = [0u8; 50];
            w.recv(&mut a, 0, 0);
            w.recv(&mut b, 0, 1);
        }
    });
    assert_eq!(report.per_rank[0].msgs_sent, 2);
    assert_eq!(report.per_rank[0].bytes_sent, 150);
    assert_eq!(report.per_rank[1].msgs_recvd, 2);
}

#[test]
fn stats_count_each_completed_request_once() {
    // Nonblocking operations count when they complete, whichever call
    // completes them: wait, test (then wait), wait_timeout, or drop.
    let report = launch(cfg(2), |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            let (a, b, c, d) = ([1u8; 100], [2u8; 50], [3u8; 8], [4u8; 2]);
            w.isend(&a, 1, 0).wait();
            let mut req = w.isend(&b, 1, 1);
            while !req.test() {
                std::thread::yield_now();
            }
            req.wait();
            w.isend(&c, 1, 2)
                .wait_timeout(std::time::Duration::from_secs(10))
                .expect("the receiver is posted: the isend completes");
            drop(w.isend(&d, 1, 3));
        } else {
            let (mut a, mut b, mut c, mut d) = ([0u8; 100], [0u8; 50], [0u8; 8], [0u8; 2]);
            w.irecv(&mut a, 0, 0).wait();
            let mut req = w.irecv(&mut b, 0, 1);
            while !req.test() {
                std::thread::yield_now();
            }
            req.wait();
            w.irecv(&mut c, 0, 2)
                .wait_timeout(std::time::Duration::from_secs(10))
                .expect("the sender is posted: the irecv completes");
            drop(w.irecv(&mut d, 0, 3));
            assert_eq!((a[0], b[0], c[0], d[0]), (1, 2, 3, 4));
        }
    });
    assert_eq!(report.per_rank[0].msgs_sent, 4);
    assert_eq!(report.per_rank[0].bytes_sent, 160);
    assert_eq!(report.per_rank[0].msgs_recvd, 0);
    assert_eq!(report.per_rank[1].msgs_sent, 0);
    assert_eq!(report.per_rank[1].msgs_recvd, 4);
}

#[test]
fn ssw_progresses_pending_sends_while_blocked_receiving() {
    // Both ranks flood each other's 2-slot PBQs with isends, then turn
    // around and *blocking-receive* everything before waiting their sends.
    // Without the SSW progress engine the deferred sends would never drain
    // (each rank is stuck in recv) and this would deadlock.
    let mut c = cfg(2);
    c.pbq_slots = 2;
    launch(c, |ctx| {
        let w = ctx.world();
        let peer = 1 - ctx.rank();
        const N: usize = 40;
        let payloads: Vec<[u32; 4]> = (0..N).map(|i| [i as u32; 4]).collect();
        let reqs: Vec<_> = payloads.iter().map(|p| w.isend(p, peer, 0)).collect();
        let mut buf = [0u32; 4];
        for i in 0..N {
            w.recv(&mut buf, peer, 0); // blocking: progress engine must run
            assert_eq!(buf, [i as u32; 4]);
        }
        for r in reqs {
            r.wait();
        }
    });
}

#[test]
fn progress_engine_also_drains_rendezvous_sends() {
    let mut c = cfg(2);
    c.env_slots = 1;
    launch(c, |ctx| {
        let w = ctx.world();
        let peer = 1 - ctx.rank();
        const N: usize = 6;
        let payloads: Vec<Vec<u64>> = (0..N).map(|i| vec![i as u64; 4096]).collect();
        let reqs: Vec<_> = payloads.iter().map(|p| w.isend(p, peer, 0)).collect();
        let mut buf = vec![0u64; 4096];
        for i in 0..N {
            w.recv(&mut buf, peer, 0);
            assert!(buf.iter().all(|&x| x == i as u64));
        }
        for r in reqs {
            r.wait();
        }
    });
}

#[test]
fn wait_all_completes_in_request_order() {
    launch(cfg(2), |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            let bufs: Vec<[u16; 8]> = (0..10).map(|i| [i as u16; 8]).collect();
            let reqs: Vec<_> = bufs.iter().map(|b| w.isend(b, 1, 4)).collect();
            wait_all(reqs);
        } else {
            let mut out = [[0u16; 8]; 10];
            let reqs: Vec<_> = out.iter_mut().map(|b| w.irecv(b, 0, 4)).collect();
            wait_all(reqs);
            for (i, b) in out.iter().enumerate() {
                assert_eq!(b, &[i as u16; 8]);
            }
        }
    });
}

#[test]
fn request_test_polls_to_completion() {
    launch(cfg(2), |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            // Delay so the receiver's first test() calls likely fail.
            for _ in 0..50 {
                std::thread::yield_now();
            }
            w.send(&[7u8; 32], 1, 2);
        } else {
            let mut buf = [0u8; 32];
            let mut req = w.irecv(&mut buf, 0, 2);
            let mut polls = 0u32;
            while !req.test() {
                polls += 1;
                std::thread::yield_now();
                assert!(polls < 10_000_000, "test() never completed");
            }
            req.wait(); // wait after test-complete is a no-op
            assert_eq!(buf, [7u8; 32]);
        }
    });
}

#[test]
fn flat_api_delegates_match_world() {
    launch(cfg(3), |ctx| {
        // ctx.send/recv/allreduce/bcast/barrier/comm_split mirror the
        // paper's flat C API over PURE_COMM_WORLD.
        let me = ctx.rank();
        if me == 0 {
            ctx.send(&[9u32], 1, 0);
        } else if me == 1 {
            let mut b = [0u32];
            ctx.recv(&mut b, 0, 0);
            assert_eq!(b[0], 9);
        }
        ctx.barrier();
        let mut s = [0u64];
        ctx.allreduce(&[me as u64], &mut s, ReduceOp::Sum);
        assert_eq!(s[0], 3);
        let mut payload = [me as u8; 4];
        ctx.bcast(&mut payload, 2);
        assert_eq!(payload, [2u8; 4]);
        let sub = ctx.comm_split((me == 0) as i64, 0).unwrap();
        assert_eq!(sub.size(), if me == 0 { 1 } else { 2 });
        assert!(ctx.wtime() >= 0.0);
    });
}
