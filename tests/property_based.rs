//! Property-based tests (proptest) over the core invariants: channel
//! byte-exactness and FIFO order, collective/serial-reduction equivalence,
//! chunk-partition coverage, communicator-split partitioning, and the
//! deterministic workload generators.

use proptest::collection::vec as pvec;
use proptest::prelude::*;

use mpi_baseline::{mpi_launch_map, MpiConfig};
use pure_core::channel::envelope::EnvelopeQueue;
use pure_core::channel::pbq::PureBufferQueue;
use pure_core::prelude::*;
use pure_core::util::cache::{aligned_chunk_range, unaligned_chunk_range};

fn pure_cfg(ranks: usize) -> Config {
    let mut c = Config::new(ranks);
    c.spin_budget = 16;
    c
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// PBQ: any message sequence round-trips byte-exact and in order
    /// through a single-threaded drain loop.
    #[test]
    fn pbq_roundtrips_any_sequence(
        msgs in pvec(pvec(any::<u8>(), 0..96), 1..40),
        slots in 1usize..16,
    ) {
        let cap = msgs.iter().map(|m| m.len()).max().unwrap_or(1);
        let q = PureBufferQueue::new(slots, cap);
        let mut out = vec![0u8; cap];
        let mut pending: std::collections::VecDeque<&Vec<u8>> = Default::default();
        for m in &msgs {
            while !q.try_send(m) {
                // Full: drain one.
                let expect = pending.pop_front().expect("full implies pending");
                let n = q.try_recv(&mut out).expect("nonempty");
                prop_assert_eq!(&out[..n], &expect[..]);
            }
            pending.push_back(m);
        }
        while let Some(expect) = pending.pop_front() {
            let n = q.try_recv(&mut out).expect("nonempty");
            prop_assert_eq!(&out[..n], &expect[..]);
        }
        prop_assert_eq!(q.try_recv(&mut out), None);
    }

    /// PBQ: arbitrary interleavings of single and batched sends/recvs
    /// preserve FIFO byte-exactness and report exact
    /// full/empty boundaries (no spurious failures from stale caches). The
    /// plan repeatedly wraps small rings, so the monotonic indices cross the
    /// ring seam many times with caches in every staleness state.
    #[test]
    fn pbq_batched_interleavings_preserve_fifo(
        plan in pvec((0usize..4, 1usize..6), 1..80),
        slots in 1usize..16,
    ) {
        let cap = 96usize;
        let q = PureBufferQueue::new(slots, cap);
        let slots = q.slots(); // requested count rounds up to a power of two
        let mut out = vec![0u8; cap];
        let mut next_id = 0u64;
        let mut pending: std::collections::VecDeque<Vec<u8>> = Default::default();
        let mk_msg = |id: u64| -> Vec<u8> {
            let len = (id as usize).wrapping_mul(7) % cap;
            (0..len).map(|j| (id as usize + j) as u8).collect()
        };
        for &(action, k) in &plan {
            match action {
                0 => {
                    let m = mk_msg(next_id);
                    if q.try_send(&m) {
                        pending.push_back(m);
                        next_id += 1;
                    } else {
                        // No spurious full: a refused send means the ring
                        // really holds `slots` messages.
                        prop_assert_eq!(pending.len(), slots);
                    }
                }
                1 => {
                    let batch: Vec<Vec<u8>> = (0..k).map(|i| mk_msg(next_id + i as u64)).collect();
                    let sent = q.try_send_batch(batch.iter().map(|m| m.as_slice()));
                    prop_assert_eq!(sent, k.min(slots - pending.len()));
                    for m in batch.into_iter().take(sent) {
                        pending.push_back(m);
                    }
                    next_id += sent as u64;
                }
                2 => {
                    match q.try_recv(&mut out) {
                        Some(n) => {
                            let expect = pending.pop_front().expect("recv implies pending");
                            prop_assert_eq!(&out[..n], &expect[..]);
                        }
                        None => prop_assert!(pending.is_empty(), "spurious empty"),
                    }
                }
                _ => {
                    let mut got: Vec<Vec<u8>> = Vec::new();
                    let n = q.try_recv_batch(k, |i, bytes| {
                        assert_eq!(i, got.len());
                        got.push(bytes.to_vec());
                    });
                    // The consumer's cached tail is a conservative lower
                    // bound (refreshed only when it implies empty), so a
                    // batch may return fewer than are truly queued — but
                    // never zero when messages exist, and never too many.
                    prop_assert!(n <= k.min(pending.len()));
                    if pending.is_empty() {
                        prop_assert_eq!(n, 0);
                    } else {
                        prop_assert!(n > 0, "spurious empty batch");
                    }
                    prop_assert_eq!(n, got.len());
                    for g in got {
                        let expect = pending.pop_front().expect("batch recv implies pending");
                        prop_assert_eq!(g, expect);
                    }
                }
            }
        }
        while let Some(expect) = pending.pop_front() {
            let n = q.try_recv(&mut out).expect("pending implies nonempty");
            prop_assert_eq!(&out[..n], &expect[..]);
        }
        prop_assert_eq!(q.try_recv(&mut out), None);
    }

    /// EnvelopeQueue: posted buffers receive exactly the filled payloads,
    /// in ticket order.
    #[test]
    fn envelope_delivers_exact_payloads(
        payloads in pvec(pvec(any::<u8>(), 1..256), 1..12),
        slots in 1usize..8,
    ) {
        let q = EnvelopeQueue::new(slots);
        for p in &payloads {
            let mut buf = vec![0u8; p.len()];
            // SAFETY: buf outlives the fill+consume below.
            let t = unsafe { q.try_post(buf.as_mut_ptr(), buf.len()) }.expect("slot free");
            prop_assert!(q.try_fill(p));
            prop_assert_eq!(q.try_consume(t), Some(p.len()));
            prop_assert_eq!(&buf, p);
        }
    }

    /// Aligned and unaligned chunk ranges partition [0, len) exactly for
    /// any (len, chunks) combination.
    #[test]
    fn chunk_ranges_partition(len in 0usize..10_000, chunks in 1u32..200) {
        type RangeFn = fn(usize, u32, u32, u32) -> std::ops::Range<usize>;
        for f in [aligned_chunk_range::<f64> as RangeFn, unaligned_chunk_range as RangeFn] {
            let mut prev = 0usize;
            for c in 0..chunks {
                let r = f(len, c, c + 1, chunks);
                prop_assert_eq!(r.start, prev);
                prop_assert!(r.end >= r.start);
                prev = r.end;
            }
            prop_assert_eq!(prev, len);
        }
    }

    /// Pure's allreduce equals a serial reduction for random inputs, ops,
    /// rank counts and payload sizes (crossing the SPTD/partitioned
    /// threshold), and equals the MPI baseline's result for integers.
    #[test]
    fn allreduce_matches_serial_reduction(
        ranks in 2usize..5,
        len in 1usize..400,
        op_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let op = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max][op_idx];
        // Integer inputs: all reduction orders agree exactly.
        let inputs: Vec<Vec<i64>> = (0..ranks)
            .map(|r| {
                (0..len)
                    .map(|i| {
                        let h = miniapps::mix64(seed ^ ((r as u64) << 32) ^ i as u64);
                        // Small values so products stay representable-ish
                        // (wrapping anyway).
                        (h % 7) as i64 - 3
                    })
                    .collect()
            })
            .collect();
        let mut expect = vec![i64::identity(op); len];
        for input in &inputs {
            i64::reduce_assign(op, &mut expect, input);
        }
        let inputs2 = inputs.clone();
        let expect2 = expect.clone();
        let (_, _) = launch_map(pure_cfg(ranks), move |ctx| {
            let mut out = vec![0i64; len];
            ctx.world().allreduce(&inputs2[ctx.rank()], &mut out, op);
            assert_eq!(out, expect2, "pure allreduce mismatch");
        });
        let inputs3 = inputs.clone();
        let expect3 = expect.clone();
        mpi_launch_map(MpiConfig::new(ranks), move |ctx| {
            let mut out = vec![0i64; len];
            ctx.world().allreduce(&inputs3[ctx.rank()], &mut out, op);
            assert_eq!(out, expect3, "baseline allreduce mismatch");
        });
    }

    /// comm_split forms a partition: every rank lands in exactly one child
    /// comm, sizes sum to the parent size, and ranks are ordered by key.
    #[test]
    fn comm_split_partitions(
        ranks in 2usize..6,
        colors in pvec(0i64..3, 6),
        keys in pvec(-5i64..5, 6),
    ) {
        let colors = std::sync::Arc::new(colors);
        let keys = std::sync::Arc::new(keys);
        let c2 = colors.clone();
        let k2 = keys.clone();
        let (_, infos) = launch_map(pure_cfg(ranks), move |ctx| {
            let me = ctx.rank();
            let sub = ctx.world().split(c2[me], k2[me]).expect("non-negative");
            (c2[me], sub.rank(), sub.size())
        });
        // Check partition arithmetic.
        for color in 0..3i64 {
            let members: Vec<usize> =
                (0..ranks).filter(|&r| colors[r] == color).collect();
            for &m in &members {
                let (c, _sub_rank, sub_size) = infos[m];
                prop_assert_eq!(c, color);
                prop_assert_eq!(sub_size, members.len());
            }
            // Sub-ranks are a permutation of 0..len ordered by (key, rank).
            let mut expected: Vec<usize> = members.clone();
            expected.sort_by_key(|&r| (keys[r], r));
            for (pos, &r) in expected.iter().enumerate() {
                prop_assert_eq!(infos[r].1, pos, "rank {} got wrong sub-rank", r);
            }
        }
    }

    /// Messages round-trip byte-exact end-to-end through the runtime for
    /// arbitrary payload sizes (crossing the PBQ/rendezvous threshold at
    /// the configured boundary).
    #[test]
    fn runtime_messages_are_byte_exact(
        len in 1usize..20_000,
        threshold in 0usize..16_384,
        seed in any::<u64>(),
    ) {
        let mut cfg = pure_cfg(2);
        cfg.small_msg_max = threshold;
        launch(cfg, move |ctx| {
            let w = ctx.world();
            if ctx.rank() == 0 {
                let data: Vec<u8> =
                    (0..len).map(|i| (miniapps::mix64(seed ^ i as u64) & 0xff) as u8).collect();
                w.send(&data, 1, 0);
            } else {
                let mut buf = vec![0u8; len];
                w.recv(&mut buf, 0, 0);
                for (i, &b) in buf.iter().enumerate() {
                    assert_eq!(b, (miniapps::mix64(seed ^ i as u64) & 0xff) as u8);
                }
            }
        });
    }
}

// Non-proptest sanity: Reducible identity laws for every type×op (compact
// exhaustive check complementing the random tests above).
#[test]
fn reducible_identity_laws() {
    fn check<T: Reducible + std::fmt::Debug + PartialEq>(vals: &[T]) {
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max] {
            let mut acc = vec![T::identity(op); vals.len()];
            T::reduce_assign(op, &mut acc, vals);
            assert_eq!(&acc[..], vals, "{op:?} identity violated");
        }
    }
    check::<i32>(&[-5, 0, 7, i32::MAX, i32::MIN + 1]);
    check::<u64>(&[0, 1, u64::MAX / 2]);
    check::<f64>(&[-1.5, 0.0, 3.25, 1e300]);
    check::<f32>(&[-2.0, 0.5]);
    check::<i8>(&[-128, 127, 0]);
    check::<u16>(&[0, 65535]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// gather / allgather / scatter / scan agree with their serial
    /// definitions and across runtimes, for random sizes and roots.
    #[test]
    fn gather_family_matches_serial_definitions(
        ranks in 2usize..5,
        block in 1usize..50,
        root_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let root = (root_pick % ranks as u64) as usize;
        let value = |r: usize, i: usize| -> i64 {
            (miniapps::mix64(seed ^ ((r as u64) << 32) ^ i as u64) % 1000) as i64 - 500
        };
        let check = |all: &[i64], pref: &[i64], me: usize| {
            for r in 0..ranks {
                for i in 0..block {
                    assert_eq!(all[r * block + i], value(r, i), "allgather cell");
                }
            }
            let mut expect = vec![0i64; block];
            for r in 0..=me {
                for (i, e) in expect.iter_mut().enumerate() {
                    *e = i64::add(*e, value(r, i));
                }
            }
            assert_eq!(pref, &expect[..], "scan prefix at rank {me}");
        };

        launch(pure_cfg(ranks), move |ctx| {
            let w = ctx.world();
            let me = ctx.rank();
            let send: Vec<i64> = (0..block).map(|i| value(me, i)).collect();
            let mut all = vec![0i64; block * ranks];
            w.allgather(&send, &mut all);
            let mut pref = vec![0i64; block];
            w.scan(&send, &mut pref, ReduceOp::Sum);
            check(&all, &pref, me);
            // gather+scatter round trip: root gathers, then scatters back;
            // every rank must recover its own block.
            let mut gathered = vec![0i64; block * ranks];
            if me == root {
                w.gather(&send, Some(&mut gathered), root);
            } else {
                w.gather(&send, None, root);
            }
            let mut back = vec![0i64; block];
            if me == root {
                w.scatter(Some(&gathered), &mut back, root);
            } else {
                w.scatter(None, &mut back, root);
            }
            assert_eq!(back, send, "gather∘scatter must be identity");
        });

        mpi_launch_map(MpiConfig::new(ranks), move |ctx| {
            let w = ctx.world();
            let me = ctx.rank();
            let send: Vec<i64> = (0..block).map(|i| value(me, i)).collect();
            let mut all = vec![0i64; block * ranks];
            w.allgather(&send, &mut all);
            let mut pref = vec![0i64; block];
            w.scan(&send, &mut pref, ReduceOp::Sum);
            check(&all, &pref, me);
        });
    }
}
