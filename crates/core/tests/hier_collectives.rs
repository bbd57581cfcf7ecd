//! Hierarchical collectives on the real runtime: the intra-node phase
//! (flat combining, Partitioned Reducer) composed with the leaders'
//! cross-node phase over multi-node layouts, verifying collective results.
//! Honors `PURE_BACKEND=tcp` so the CI collective-sweep matrix replays the
//! suite over real loopback sockets.

use pure_core::prelude::*;

const RANKS: usize = 6;

fn cfg(rpn: usize) -> Config {
    let mut c = Config::new(RANKS)
        .with_ranks_per_node(rpn)
        .with_transport(Backend::from_env());
    c.spin_budget = 16;
    c
}

/// A few rounds over the whole collective surface: small all-reduce
/// (leader flat-combining), large all-reduce (Partitioned Reducer), rooted
/// bcast/reduce with a rotating root, and barrier — each value checkable
/// in closed form.
fn hier_workload(ctx: &RankCtx) {
    let w = ctx.world();
    let me = w.rank();
    let n = w.size();
    for round in 0..4usize {
        let root = round % n;

        let sum = w.allreduce_one((me + 1) as u64, ReduceOp::Sum);
        assert_eq!(sum, (n * (n + 1) / 2) as u64, "small all-reduce");

        let big: Vec<u64> = (0..2048).map(|j| (me * 2048 + j) as u64).collect();
        let mut out = vec![0u64; 2048];
        w.allreduce(&big, &mut out, ReduceOp::Max);
        for (j, &v) in out.iter().enumerate() {
            assert_eq!(v, ((n - 1) * 2048 + j) as u64, "large all-reduce");
        }

        let mut data = vec![0u64; 64];
        if me == root {
            for (j, v) in data.iter_mut().enumerate() {
                *v = (round * 64 + j) as u64;
            }
        }
        w.bcast(&mut data, root);
        for (j, &v) in data.iter().enumerate() {
            assert_eq!(v, (round * 64 + j) as u64, "bcast payload");
        }

        let input: Vec<i64> = (0..32).map(|j| (me + j) as i64).collect();
        let mut red = vec![0i64; 32];
        let red_opt = (me == root).then_some(&mut red[..]);
        w.reduce(&input, red_opt, root, ReduceOp::Sum);
        if me == root {
            for (j, &v) in red.iter().enumerate() {
                assert_eq!(v, (n * j + n * (n - 1) / 2) as i64, "rooted reduce");
            }
        }

        w.barrier();
    }
}

/// Two layouts: 6 nodes of 1 (the leaders' recursive doubling runs the
/// non-power-of-two fold-in, with 16 KiB payloads over the wire
/// rendezvous) and 3 nodes of 2 (flat combining ahead of the leader phase).
#[test]
fn leader_phase_computes_correct_results_on_all_layouts() {
    for rpn in [1usize, 2] {
        launch(cfg(rpn), |ctx| hier_workload(ctx));
    }
}

/// Uneven nodes: five ranks at two per node leave the last node with a
/// single rank, so its leader enters the cross-node phase with no local
/// combining while the others flat-combine a pair.
#[test]
fn leader_phase_handles_uneven_nodes() {
    let mut c = Config::new(5)
        .with_ranks_per_node(2)
        .with_transport(Backend::from_env());
    c.spin_budget = 16;
    launch(c, |ctx| hier_workload(ctx));
}

/// A split whose halves each span several nodes runs its own leader phase,
/// in its own tag namespace, concurrently with the other half's.
#[test]
fn node_spanning_split_runs_its_own_leader_phase() {
    launch(cfg(1), |ctx| {
        let w = ctx.world();
        let me = w.rank();
        let sub = w
            .split((me % 2) as i64, me as i64)
            .expect("every rank has a color");
        let n = sub.size();
        assert_eq!(n, RANKS / 2);
        let sum = sub.allreduce_one(me as u64, ReduceOp::Sum);
        let exp: u64 = (0..RANKS)
            .filter(|r| r % 2 == me % 2)
            .map(|r| r as u64)
            .sum();
        assert_eq!(sum, exp, "split all-reduce");
        for root in 0..n {
            let mut data = vec![0u32; 8];
            if sub.rank() == root {
                data.iter_mut()
                    .enumerate()
                    .for_each(|(j, v)| *v = (me * 8 + j) as u32);
            }
            sub.bcast(&mut data, root);
            let root_world = 2 * root + me % 2;
            for (j, &v) in data.iter().enumerate() {
                assert_eq!(v, (root_world * 8 + j) as u32, "split bcast from {root}");
            }
        }
        sub.barrier();
        w.barrier();
    });
}

/// Float sums through the public API leave the same bits on every rank,
/// whether the leader phase folds in six single-rank nodes or combines
/// three pairs first.
#[test]
fn float_allreduce_is_bit_identical_on_every_rank() {
    for rpn in [1usize, 2] {
        let (_, bits) = launch_map(cfg(rpn), |ctx| {
            let w = ctx.world();
            let input: Vec<f64> = (0..17)
                .map(|i| 0.1 * i as f64 + w.rank() as f64 * 1e-7)
                .collect();
            let mut out = vec![0.0f64; input.len()];
            w.allreduce(&input, &mut out, ReduceOp::Sum);
            out.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
        });
        for b in &bits[1..] {
            assert_eq!(b, &bits[0], "divergent float bits at {rpn} ranks per node");
        }
    }
}
