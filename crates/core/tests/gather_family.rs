//! End-to-end tests of the extension collectives — gather, allgather,
//! scatter, scan, alltoall — on single- and multi-node topologies, small
//! and large blocks, every root. On `PureComm` these are the `Communicator`
//! default methods, composed from `bcast` and shared with the MPI baseline.

use pure_core::prelude::*;

fn cfg(ranks: usize) -> Config {
    let mut c = Config::new(ranks);
    c.spin_budget = 16;
    c
}

fn cfg_nodes(ranks: usize, rpn: usize) -> Config {
    cfg(ranks).with_ranks_per_node(rpn)
}

#[test]
fn gather_collects_blocks_in_rank_order() {
    let n = 5;
    for root in 0..n {
        launch(cfg(n), move |ctx| {
            let w = ctx.world();
            let send = [ctx.rank() as u64 * 10, ctx.rank() as u64 * 10 + 1];
            if ctx.rank() == root {
                let mut recv = vec![0u64; 2 * n];
                w.gather(&send, Some(&mut recv), root);
                for r in 0..n {
                    assert_eq!(recv[2 * r], r as u64 * 10);
                    assert_eq!(recv[2 * r + 1], r as u64 * 10 + 1);
                }
            } else {
                w.gather(&send, None, root);
            }
        });
    }
}

#[test]
fn allgather_gives_everyone_everything() {
    let n = 6;
    launch(cfg(n), |ctx| {
        let w = ctx.world();
        let send = [ctx.rank() as f64; 3];
        let mut recv = vec![0.0f64; 3 * n];
        w.allgather(&send, &mut recv);
        for r in 0..n {
            assert_eq!(&recv[3 * r..3 * r + 3], &[r as f64; 3]);
        }
    });
}

#[test]
fn scatter_distributes_blocks() {
    let n = 4;
    for root in [0usize, 2] {
        launch(cfg(n), move |ctx| {
            let w = ctx.world();
            let mut recv = [0u32; 4];
            if ctx.rank() == root {
                let send: Vec<u32> = (0..4 * n as u32).collect();
                w.scatter(Some(&send), &mut recv, root);
            } else {
                w.scatter(None, &mut recv, root);
            }
            let base = 4 * ctx.rank() as u32;
            assert_eq!(recv, [base, base + 1, base + 2, base + 3]);
        });
    }
}

#[test]
fn scan_computes_inclusive_prefixes() {
    let n = 7;
    launch(cfg(n), |ctx| {
        let w = ctx.world();
        let input = [ctx.rank() as u64 + 1, 1u64];
        let mut out = [0u64; 2];
        w.scan(&input, &mut out, ReduceOp::Sum);
        let me = ctx.rank() as u64;
        assert_eq!(out[0], (1..=me + 1).sum::<u64>(), "rank {me} prefix");
        assert_eq!(out[1], me + 1);
        // Max-scan too.
        let mut mx = [0u64; 2];
        w.scan(&[me, 100 - me], &mut mx, ReduceOp::Max);
        assert_eq!(mx[0], me);
        assert_eq!(mx[1], 100);
    });
}

#[test]
fn gather_family_multi_node() {
    let n = 6;
    launch(cfg_nodes(n, 2), |ctx| {
        let w = ctx.world();
        let me = ctx.rank() as i64;
        // allgather across 3 nodes.
        let mut all = vec![0i64; n];
        w.allgather(&[me], &mut all);
        assert_eq!(all, (0..n as i64).collect::<Vec<_>>());
        // gather to a non-leader rank on the middle node.
        let root = 3usize;
        if ctx.rank() == root {
            let mut recv = vec![0i64; n];
            w.gather(&[me * me], Some(&mut recv), root);
            assert_eq!(recv, (0..n as i64).map(|x| x * x).collect::<Vec<_>>());
        } else {
            w.gather(&[me * me], None, root);
        }
        // scatter from rank 5 (last node).
        let mut mine = [0i64];
        if ctx.rank() == 5 {
            let send: Vec<i64> = (0..n as i64).map(|x| -x).collect();
            w.scatter(Some(&send), &mut mine, 5);
        } else {
            w.scatter(None, &mut mine, 5);
        }
        assert_eq!(mine[0], -me);
        // scan across nodes.
        let mut pref = [0i64];
        w.scan(&[1i64], &mut pref, ReduceOp::Sum);
        assert_eq!(pref[0], me + 1);
    });
}

#[test]
fn large_blocks_cross_the_buffer_growth_path() {
    let n = 3;
    launch(cfg_nodes(n, 2), |ctx| {
        let w = ctx.world();
        let block = 4000usize; // 32 kB per rank
        let send: Vec<u64> = (0..block)
            .map(|i| (ctx.rank() * block + i) as u64)
            .collect();
        let mut recv = vec![0u64; block * n];
        w.allgather(&send, &mut recv);
        assert!(recv.iter().enumerate().all(|(i, &x)| x == i as u64));
    });
}

#[test]
fn gather_family_on_split_comms() {
    launch(cfg(6), |ctx| {
        let w = ctx.world();
        let sub = w.split((ctx.rank() % 2) as i64, ctx.rank() as i64).unwrap();
        let mut all = vec![0u64; sub.size()];
        sub.allgather(&[ctx.rank() as u64], &mut all);
        let expect: Vec<u64> = (0..6)
            .filter(|r| r % 2 == ctx.rank() % 2)
            .map(|r| r as u64)
            .collect();
        assert_eq!(all, expect);
        let mut pref = [0u64];
        sub.scan(&[1], &mut pref, ReduceOp::Sum);
        assert_eq!(pref[0], sub.rank() as u64 + 1);
    });
}

#[test]
fn interleaved_with_other_collectives() {
    // The gather family shares round counters and buffers with
    // bcast/allreduce; interleaving all of them must stay consistent.
    launch(cfg_nodes(4, 2), |ctx| {
        let w = ctx.world();
        for i in 0..10u64 {
            let s = w.allreduce_one(i, ReduceOp::Max);
            assert_eq!(s, i);
            let mut all = vec![0u64; 4];
            w.allgather(&[ctx.rank() as u64 + i], &mut all);
            assert_eq!(all, (0..4).map(|r| r as u64 + i).collect::<Vec<_>>());
            let mut b = [i];
            w.bcast(&mut b, (i % 4) as usize);
            assert_eq!(b[0], i);
            w.barrier();
            let mut pre = [0u64];
            w.scan(&[1], &mut pre, ReduceOp::Sum);
            assert_eq!(pre[0], ctx.rank() as u64 + 1);
        }
    });
}

#[test]
fn alltoall_transposes_blocks() {
    let n = 4;
    launch(cfg_nodes(n, 2), |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        // send[j*2..] = the pair (me, j): after alltoall, slot j holds (j, me).
        let send: Vec<u32> = (0..n).flat_map(|j| [me as u32, j as u32]).collect();
        let mut recv = vec![0u32; 2 * n];
        w.alltoall(&send, &mut recv);
        for j in 0..n {
            assert_eq!(&recv[2 * j..2 * j + 2], &[j as u32, me as u32], "slot {j}");
        }
    });
}

#[test]
fn allreduce_in_place_matches_out_of_place() {
    launch(cfg(5), |ctx| {
        let w = ctx.world();
        let me = ctx.rank() as i64;
        let input: Vec<i64> = (0..100).map(|i| me * 100 + i).collect();
        let mut out = vec![0i64; 100];
        w.allreduce(&input, &mut out, ReduceOp::Max);
        let mut inplace = input.clone();
        w.allreduce_in_place(&mut inplace, ReduceOp::Max);
        assert_eq!(out, inplace);
    });
}

#[test]
fn wtime_is_monotone_and_shared_epoch() {
    launch(cfg(2), |ctx| {
        let t0 = ctx.wtime();
        ctx.barrier();
        let t1 = ctx.wtime();
        assert!(t1 >= t0);
        assert!(t1 < 60.0, "epoch must be launch-relative");
    });
}

#[test]
fn gather_family_on_two_node_groups() {
    launch(cfg(4).with_ranks_per_node(2), |ctx| {
        let w = ctx.world();
        let me = ctx.rank() as u64;
        let mut all = vec![0u64; 4];
        w.allgather(&[me * 3], &mut all);
        assert_eq!(all, vec![0, 3, 6, 9]);
        let mut pref = [0u64];
        w.scan(&[1], &mut pref, ReduceOp::Sum);
        assert_eq!(pref[0], me + 1);
        // Bitwise reduce across ranks.
        let bits = w.allreduce_one(1u64 << me, ReduceOp::BitOr);
        assert_eq!(bits, 0b1111);
    });
}

#[test]
fn gather_family_on_uneven_node_groups() {
    // 7 ranks over nodes of 2: groups {2,2,2,1} — the last node is a
    // singleton (its leader has no followers), exercising every empty-loop
    // edge in the leader protocols.
    launch(cfg_nodes(7, 2), |ctx| {
        let w = ctx.world();
        let me = ctx.rank() as u64;
        let mut all = vec![0u64; 7];
        w.allgather(&[me + 1], &mut all);
        assert_eq!(all, (1..=7).collect::<Vec<_>>());
        let mut pref = [0u64];
        w.scan(&[me + 1], &mut pref, ReduceOp::Sum);
        assert_eq!(pref[0], (me + 1) * (me + 2) / 2);
        // gather to the singleton node's rank.
        if ctx.rank() == 6 {
            let mut g = vec![0u64; 7];
            w.gather(&[me], Some(&mut g), 6);
            assert_eq!(g, (0..7).collect::<Vec<_>>());
        } else {
            w.gather(&[me], None, 6);
        }
        // alltoall over the uneven topology (7 blocks of 1).
        let send: Vec<u64> = (0..7).map(|j| me * 10 + j).collect();
        let mut recv = vec![0u64; 7];
        w.alltoall(&send, &mut recv);
        for (j, &v) in recv.iter().enumerate() {
            assert_eq!(v, (j as u64) * 10 + me);
        }
    });
}

#[test]
fn gather_family_on_singleton_comm() {
    launch(cfg(3), |ctx| {
        let w = ctx.world();
        // Everyone its own color: three singleton communicators.
        let solo = w.split(ctx.rank() as i64, 0).unwrap();
        assert_eq!(solo.size(), 1);
        let me = ctx.rank() as u64;
        let mut all = vec![0u64; 1];
        solo.allgather(&[me], &mut all);
        assert_eq!(all, vec![me]);
        let mut g = vec![0u64; 1];
        solo.gather(&[me * 2], Some(&mut g), 0);
        assert_eq!(g, vec![me * 2]);
        let mut r = [0u64];
        solo.scatter(Some(&[me * 3]), &mut r, 0);
        assert_eq!(r[0], me * 3);
        let mut pref = [0u64];
        solo.scan(&[me + 1], &mut pref, ReduceOp::Sum);
        assert_eq!(pref[0], me + 1);
        let mut a2a = vec![0u64; 1];
        solo.alltoall(&[me], &mut a2a);
        assert_eq!(a2a, vec![me]);
        w.barrier();
    });
}
