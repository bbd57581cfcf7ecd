//! Cross-crate integration tests: the real runtimes, the mini-apps, and the
//! discrete-event simulator must all agree where their domains overlap.

use cluster_sim::workloads::miniamr::{programs as amr_programs, AmrWl};
use cluster_sim::{Sim, SimConfig, SimRuntime};
use miniapps::comd::{run_comd, ComdParams, Imbalance};
use miniapps::miniamr::{run_miniamr, AmrParams};
use miniapps::stencil::{checksum, rand_stencil, StencilParams};
use mpi_baseline::{mpi_launch_map, MpiConfig};
use pure_core::prelude::*;

fn pure_cfg(ranks: usize) -> Config {
    let mut c = Config::new(ranks);
    c.spin_budget = 16;
    c
}

/// The DES miniAMR workload reuses the app's actual mesh code, so the
/// simulated per-step halo message count must equal what the real app sends
/// over the real runtime for the same mesh parameters.
#[test]
fn des_miniamr_message_pattern_matches_real_app() {
    let mesh = AmrParams {
        base: 4,
        block_cells: 4,
        steps: 4,
        refine_every: 8, // no remesh inside the window: halo traffic only
        mass_every: 100, // no collectives (they aren't p2p messages)
        hist_every: 100,
        octant_every: 100,
        ..AmrParams::default()
    };
    let ranks = 4;

    // Real app on the real Pure runtime.
    let (report, _) = launch_map(pure_cfg(ranks), move |ctx| run_miniamr(ctx.world(), &mesh));
    let real_msgs: u64 = report.per_rank.iter().map(|r| r.msgs_sent).sum();
    // Subtract comm_split bootstrap traffic: ranks 1..n each send one
    // (color,key) pair to rank 0 during the octant split.
    let real_halo_msgs = real_msgs - (ranks as u64 - 1);

    // DES workload built from the same mesh machinery.
    let w = AmrWl {
        ranks,
        steps: mesh.steps,
        mesh,
        cell_ns: 4.0,
    };
    let sim = Sim::new(
        SimConfig::new(ranks, ranks, SimRuntime::Pure { tasks: false }),
        amr_programs(&w),
    )
    .run();

    assert_eq!(
        real_halo_msgs, sim.messages,
        "simulated and real message patterns diverged"
    );
}

/// Aries-like latency on the simulated interconnect slows multi-node runs
/// but cannot change results.
#[test]
fn latency_changes_time_not_results() {
    let p = StencilParams {
        arr_sz: 256,
        iters: 3,
        mean_work: 10,
        ..Default::default()
    };
    let run = |net: NetConfig| {
        let mut cfg = pure_cfg(4).with_ranks_per_node(2);
        cfg.net = net;
        let (_, sums) = launch_map(cfg, move |ctx| {
            checksum(&rand_stencil(ctx.world(), &p, false))
        });
        sums
    };
    assert_eq!(run(NetConfig::default()), run(NetConfig::aries_like()));
}

/// Every steal seed and helper-thread count produces identical app results
/// (scheduling is invisible to semantics).
#[test]
fn scheduler_knobs_do_not_change_comd_results() {
    let p = ComdParams {
        cells_per_rank: [2, 2, 2],
        steps: 3,
        imbalance: Imbalance::StaticSpheres {
            count: 1,
            radius: 0.3,
        },
        ..Default::default()
    };
    let mut reference = None;
    for seed in [0x5EED, 1, 0xDEAD_BEEF] {
        for helpers in [0, 2] {
            let mut cfg = pure_cfg(4);
            cfg.seed = seed;
            cfg.helpers_per_node = helpers;
            let (_, res) = launch_map(cfg, move |ctx| run_comd(ctx.world(), &p, true).checksum);
            match &reference {
                None => reference = Some(res),
                Some(r) => assert_eq!(r, &res, "seed {seed:#x} / {helpers} helpers diverged"),
            }
        }
    }
}

/// Helper threads change performance, never results.
#[test]
fn helpers_do_not_change_results() {
    let p = StencilParams {
        arr_sz: 1024,
        iters: 3,
        mean_work: 15,
        ..Default::default()
    };
    let base = {
        let (_, s) = launch_map(pure_cfg(3), move |ctx| {
            checksum(&rand_stencil(ctx.world(), &p, true))
        });
        s
    };
    let mut cfg = pure_cfg(3);
    cfg.helpers_per_node = 2;
    let (report, with_helpers) = launch_map(cfg, move |ctx| {
        checksum(&rand_stencil(ctx.world(), &p, true))
    });
    assert_eq!(base, with_helpers);
    // Helpers ran (their chunks are accounted to the report).
    let total: u64 = report
        .per_rank
        .iter()
        .map(|r| r.chunks_owned + r.chunks_stolen)
        .sum();
    assert_eq!(
        total as usize,
        3 * 3 * 32,
        "all chunks accounted: 3 ranks × 3 iters × 32"
    );
}

/// Thresholds are behavior-preserving: forcing every message through the
/// rendezvous path (or every collective through the partitioned reducer)
/// yields identical app results.
#[test]
fn protocol_thresholds_are_semantically_invisible() {
    let p = ComdParams {
        cells_per_rank: [2, 2, 2],
        steps: 2,
        ..Default::default()
    };
    let run = |small_msg: usize, small_coll: usize| {
        let mut cfg = pure_cfg(4);
        cfg.small_msg_max = small_msg;
        cfg.small_coll_max = small_coll;
        let (_, res) = launch_map(cfg, move |ctx| run_comd(ctx.world(), &p, false).checksum);
        res
    };
    let a = run(8 * 1024, 2 * 1024); // defaults
    let b = run(0, 0); // everything rendezvous / partitioned
                       // Everything buffered / flat-combined. (The collective threshold also
                       // sizes the SPTD payload buffers, so it must stay allocatable.)
    let c = run(usize::MAX / 2, 1 << 20);
    assert_eq!(a, b);
    assert_eq!(a, c);
}

/// The baseline and Pure agree on a multi-app composite: run CoMD then
/// miniAMR in one launch, with a split communicator in between.
#[test]
fn composite_workflow_matches_across_runtimes() {
    let comd_p = ComdParams {
        cells_per_rank: [2, 2, 2],
        steps: 2,
        ..Default::default()
    };
    let amr_p = AmrParams {
        base: 4,
        block_cells: 4,
        steps: 4,
        refine_every: 2,
        ..AmrParams::default()
    };
    let (_, pure_res) = launch_map(pure_cfg(4), move |ctx| {
        let c1 = run_comd(ctx.world(), &comd_p, true).checksum;
        let sub = ctx.world().split((ctx.rank() % 2) as i64, 0).unwrap();
        let s = sub.allreduce_one(c1, ReduceOp::Sum);
        let c2 = run_miniamr(ctx.world(), &amr_p).checksum;
        (c1, s, c2)
    });
    let (_, mpi_res) = mpi_launch_map(MpiConfig::new(4), move |ctx| {
        let c1 = run_comd(ctx.world(), &comd_p, false).checksum;
        let sub = ctx.world().split((ctx.rank() % 2) as i64, 0).unwrap();
        let s = sub.allreduce_one(c1, ReduceOp::Sum);
        let c2 = run_miniamr(ctx.world(), &amr_p).checksum;
        (c1, s, c2)
    });
    assert_eq!(pure_res, mpi_res);
}

/// DES determinism across repeated builds of the same workload.
#[test]
fn des_workloads_are_deterministic() {
    let w = AmrWl::weak(8, 5);
    let run = || {
        Sim::new(
            SimConfig::new(8, 4, SimRuntime::Pure { tasks: false }),
            amr_programs(&w),
        )
        .run()
        .makespan_ns
    };
    assert_eq!(run(), run());
}

/// The DES's Pure runtime must never be slower than its MPI runtime on an
/// identical communication-bound workload (Pure strictly dominates the cost
/// model's message path).
#[test]
fn des_pure_dominates_mpi_on_comm_bound_workloads() {
    use cluster_sim::workloads::micro::collective_ns_per_op;
    use cluster_sim::CollKind;
    for ranks in [4usize, 64, 256] {
        for kind in [CollKind::Barrier, CollKind::Allreduce, CollKind::Bcast] {
            let m = collective_ns_per_op(SimRuntime::Mpi, ranks, 64, 10, 64, kind);
            let p =
                collective_ns_per_op(SimRuntime::Pure { tasks: false }, ranks, 64, 10, 64, kind);
            assert!(p <= m, "{kind:?} at {ranks}: pure {p} > mpi {m}");
        }
    }
}
