//! Hierarchical collectives on the real runtime: every inter-node tree
//! shape (k-ary fan-ins, the ring, the auto-tuner) over multi-node
//! layouts, verifying collective results and the
//! hierarchy telemetry. Honors `PURE_BACKEND=tcp` so the CI
//! collective-sweep matrix replays the suite over real loopback sockets.

use pure_core::prelude::*;

const RANKS: usize = 6;

type Configure = fn(Config) -> Config;

fn cfg(rpn: usize, configure: Configure) -> Config {
    let mut c = configure(
        Config::new(RANKS)
            .with_ranks_per_node(rpn)
            .with_transport(Backend::from_env()),
    );
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

/// Every static tree shape × two layouts (6 leaders
/// deep trees, and 3 nodes of 2). The hierarchy telemetry must show the
/// tree actually ran: nonzero inter-node rounds and a nonzero fan-in sum.
#[test]
fn static_tree_shapes_compute_correct_results_on_all_layouts() {
    let shapes: [(&str, Configure); 3] = [
        ("kary2", |c| c.with_collective_fanin(2)),
        ("kary3", |c| c.with_collective_fanin(3)),
        ("ring", |c| c.with_collective_ring()),
    ];
    for rpn in [1usize, 2] {
        for (label, configure) in shapes {
            let report = launch(cfg(rpn, configure), |ctx| hier_workload(ctx));
            let rounds = report.stats.total(Counter::CollTreeRounds);
            let fanin = report.stats.total(Counter::CollFaninChosen);
            assert!(
                rounds > 0,
                "{label} rpn={rpn}: no hierarchical rounds recorded"
            );
            assert!(
                fanin > 0,
                "{label} rpn={rpn}: no fan-in recorded over {rounds} rounds"
            );
        }
    }
}

/// Auto-tune mode: payloads alternating across the k-ary/ring model
/// crossover must flip the per-collective choice (counted by
/// `tuner_adjustments`) while every result stays correct — the choice is a
/// pure function of (node count, payload bytes), so all leaders agree.
#[test]
fn autotuner_flips_algorithms_across_the_size_crossover() {
    let report = launch(cfg(2, |c| c.with_collective_autotune()), |ctx| {
        let w = ctx.world();
        let me = w.rank();
        let n = w.size();
        for _ in 0..2 {
            // 8 B: the model picks a k-ary tree at 3 nodes.
            let sum = w.allreduce_one((me + 1) as u64, ReduceOp::Sum);
            assert_eq!(sum, (n * (n + 1) / 2) as u64);
            // 512 KiB: bandwidth-dominated, the model picks the ring.
            let big = vec![me as u64 + 1; 1 << 16];
            let mut out = vec![0u64; 1 << 16];
            w.allreduce(&big, &mut out, ReduceOp::Max);
            assert!(out.iter().all(|&v| v == n as u64), "large all-reduce");
        }
    });
    let flips = report.stats.total(Counter::TunerAdjustments);
    assert!(
        flips >= 2,
        "alternating 8 B / 512 KiB payloads across the crossover should flip \
         the tuner's choice (tuner_adjustments = {flips})"
    );
}
