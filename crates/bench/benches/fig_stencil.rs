//! **§2 example** — the 1-D random-work stencil, 32 ranks on one node.
//! Paper: "the Pure version ... achieved a 10% speedup over the MPI version
//! from Pure's faster messaging, and achieved over 200% speedup from using
//! Pure Tasks."
//!
//! Two parts: (a) the DES reproduction at the paper's per-node scale;
//! (b) a real-runtime run of the actual `miniapps::stencil` code on this
//! machine (correctness + live steal counters, whatever the core count).

use cluster_sim::workloads::stencil::{programs, StencilWl};
use cluster_sim::{Sim, SimConfig, SimRuntime};
use miniapps::stencil::{rand_stencil, StencilParams};
use pure_bench::trajectory::{self, Figure};
use pure_bench::{cell, header, row, speedup};
use pure_core::prelude::*;

fn main() {
    let mut fig = Figure::new("fig_stencil");
    header(
        "§2 example — rand-stencil, 32 ranks, one node",
        "End-to-end virtual time and speedup over MPI (DES)",
    );
    let w = StencilWl::default();
    let mk = |rt| Sim::new(SimConfig::new(w.ranks, w.ranks, rt), programs(&w)).run();
    let mpi = mk(SimRuntime::Mpi);
    let msgs = mk(SimRuntime::Pure { tasks: false });
    let tasks = mk(SimRuntime::Pure { tasks: true });
    println!(
        "{}",
        row(
            "variant",
            &["runtime".into(), "speedup".into(), "chunks stolen".into()]
        )
    );
    println!(
        "{}",
        row(
            "MPI",
            &[cell(mpi.makespan_ns as f64), speedup(1.0), "0".into()]
        )
    );
    println!(
        "{}",
        row(
            "Pure, no tasks",
            &[
                cell(msgs.makespan_ns as f64),
                speedup(mpi.makespan_ns as f64 / msgs.makespan_ns as f64),
                "0".into(),
            ]
        )
    );
    println!(
        "{}",
        row(
            "Pure, with tasks",
            &[
                cell(tasks.makespan_ns as f64),
                speedup(mpi.makespan_ns as f64 / tasks.makespan_ns as f64),
                tasks.chunks_stolen.to_string(),
            ]
        )
    );
    fig.ratio(
        "speedup_msgs",
        mpi.makespan_ns as f64 / msgs.makespan_ns as f64,
    );
    fig.ratio(
        "speedup_tasks",
        mpi.makespan_ns as f64 / tasks.makespan_ns as f64,
    );
    fig.raw("des_chunks_stolen", tasks.chunks_stolen as f64);

    header(
        "rand-stencil on the real Pure runtime (this machine)",
        "Same source, real threads; checks live stealing and identical results",
    );
    let p = StencilParams {
        arr_sz: trajectory::pick(2048, 512),
        iters: trajectory::pick(5, 2),
        mean_work: trajectory::pick(60, 20),
        ..Default::default()
    };
    let mut cfg = Config::new(4);
    cfg.spin_budget = 16;
    let (report_nt, sums_nt) = launch_map(cfg, |ctx| {
        miniapps::stencil::checksum(&rand_stencil(ctx.world(), &p, false))
    });
    let mut cfg = Config::new(4);
    cfg.spin_budget = 16;
    let (report_t, sums_t) = launch_map(cfg, |ctx| {
        miniapps::stencil::checksum(&rand_stencil(ctx.world(), &p, true))
    });
    assert_eq!(
        sums_nt, sums_t,
        "task and no-task runs must agree bit-for-bit"
    );
    println!(
        "{}",
        row(
            "real run (4 ranks)",
            &[
                format!("no-tasks {:?}", report_nt.elapsed),
                format!("tasks {:?}", report_t.elapsed),
                format!("chunks stolen {}", report_t.total_chunks_stolen()),
            ]
        )
    );
    fig.raw("real_steals", report_t.total_chunks_stolen() as f64);
    fig.telemetry(
        "real_steal_attempts",
        report_t.stats.total(Counter::StealAttempt) as f64,
    );
    if trajectory::emit_requested() {
        fig.write();
    }
}
