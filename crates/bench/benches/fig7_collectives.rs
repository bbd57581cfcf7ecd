//! **Figure 7** — collective end-to-end performance:
//! * 7a: 8-byte all-reduce, 2 → 65,536 ranks, MPI vs MPI-DMAPP vs OpenMP
//!   (single node only) vs Pure flat vs Pure hierarchical (the fastest
//!   static tree or ring leader shape);
//! * 7b: barrier, 2 → 64 ranks (single node), incl. OpenMP;
//! * 7c: barrier, 2 → 65,536 ranks.
//!
//! Paper: Pure 8 B all-reduce beats MPI and DMAPP up to 16k cores (11% to
//! >3.5×); Pure barrier 2.4×–5× over MPI and up to 8× over OpenMP.
//!
//! The hierarchical leg is gate-asserted: at ≥ 4,096 ranks the fastest
//! static leader shape in [`HIER_CANDIDATES`] must be strictly faster than
//! the flat leader exchange (the paper-scale crossover). The check runs
//! even under `PURE_BENCH_SMOKE=1` — it is the collective-sweep CI gate.

use cluster_sim::workloads::micro::{collective_ns_per_op, collective_ns_per_op_with};
use cluster_sim::{CollKind, CollStack, CostModel, NetCollAlgo, SimRuntime, HIER_CANDIDATES};
use pure_bench::trajectory::{self, Figure};
use pure_bench::{cell, header, row, speedup};

const CORES_PER_NODE: usize = 64;
const ITERS: usize = 40;

fn iters() -> usize {
    trajectory::pick(ITERS, 5)
}

fn omp_single_node(kind: CollKind, t: usize, bytes: usize) -> f64 {
    // OpenMP exists only within one node; modeled directly from the cost
    // model (its threads have no cross-node story).
    CostModel::default().coll_ns(kind, CollStack::Omp, t, 1, bytes)
}

fn hier_cost(algo: NetCollAlgo) -> CostModel {
    CostModel {
        net_coll: algo,
        ..CostModel::default()
    }
}

/// Pure's per-op time under an explicit inter-node algorithm.
fn pure_with(algo: NetCollAlgo, ranks: usize, iters: usize, bytes: u32, kind: CollKind) -> f64 {
    collective_ns_per_op_with(
        hier_cost(algo),
        SimRuntime::Pure { tasks: false },
        ranks,
        CORES_PER_NODE,
        iters,
        bytes,
        kind,
    )
}

/// The fastest static non-flat leader shape for an 8 B all-reduce, with
/// its per-op time.
fn best_hier(ranks: usize, iters: usize) -> (NetCollAlgo, f64) {
    HIER_CANDIDATES
        .into_iter()
        .map(|a| (a, pure_with(a, ranks, iters, 8, CollKind::Allreduce)))
        .min_by(|x, y| x.1.total_cmp(&y.1))
        .expect("HIER_CANDIDATES is non-empty")
}

/// The collective-sweep gate: at paper scale the fastest hierarchical
/// leader shape must strictly beat the flat exchange. Runs at fixed rank
/// counts regardless of smoke mode.
fn assert_crossover(fig: &mut Figure) {
    header(
        "Hierarchical-vs-flat crossover gate (8 B all-reduce)",
        "fastest static leader tree/ring vs flat exchange; asserted, not just reported",
    );
    println!(
        "{}",
        row(
            "ranks",
            &[
                "flat".into(),
                "hier (best)".into(),
                "shape".into(),
                "hier vs flat".into(),
            ]
        )
    );
    let gate_iters = 3;
    for ranks in [4_096usize, 16_384, 65_536] {
        let flat = pure_with(NetCollAlgo::Flat, ranks, gate_iters, 8, CollKind::Allreduce);
        let (shape, hier) = best_hier(ranks, gate_iters);
        println!(
            "{}",
            row(
                &ranks.to_string(),
                &[
                    cell(flat),
                    cell(hier),
                    format!("{shape:?}"),
                    speedup(flat / hier)
                ]
            )
        );
        assert!(
            hier < flat,
            "crossover gate: hierarchical ({hier:.1} ns) must be strictly faster than \
             flat ({flat:.1} ns) at {ranks} ranks ({shape:?})"
        );
        fig.ratio(&format!("hier_vs_flat_allreduce8B_{ranks}"), flat / hier);
    }
}

fn main() {
    let mut fig = Figure::new("fig7_collectives");
    header(
        "Figure 7a — 8 B all-reduce, 2 → 65,536 ranks (64/node)",
        "virtual ns per op; OpenMP column only exists within one node",
    );
    println!(
        "{}",
        row(
            "ranks",
            &[
                "MPI".into(),
                "MPI DMAPP".into(),
                "OpenMP".into(),
                "Pure".into(),
                "Pure hier".into(),
                "Pure vs MPI".into()
            ]
        )
    );
    let mut n = 2usize;
    let cap_a = trajectory::pick(65_536usize, 64);
    while n <= cap_a {
        let it = if n > 8192 { 10 } else { iters() };
        let mpi = collective_ns_per_op(
            SimRuntime::Mpi,
            n,
            CORES_PER_NODE,
            it,
            8,
            CollKind::Allreduce,
        );
        let dmapp = collective_ns_per_op(
            SimRuntime::MpiDmapp,
            n,
            CORES_PER_NODE,
            it,
            8,
            CollKind::Allreduce,
        );
        let pure = collective_ns_per_op(
            SimRuntime::Pure { tasks: false },
            n,
            CORES_PER_NODE,
            it,
            8,
            CollKind::Allreduce,
        );
        let (_, hier) = best_hier(n, it);
        let omp = if n <= CORES_PER_NODE {
            cell(omp_single_node(CollKind::Allreduce, n, 8))
        } else {
            "-".into()
        };
        println!(
            "{}",
            row(
                &n.to_string(),
                &[
                    cell(mpi),
                    cell(dmapp),
                    omp,
                    cell(pure),
                    cell(hier),
                    speedup(mpi / pure)
                ]
            )
        );
        if matches!(n, 8 | 64) {
            fig.ratio(&format!("allreduce8B_vs_mpi_{n}"), mpi / pure);
        }
        n *= 2;
    }

    assert_crossover(&mut fig);

    header(
        "Figure 7b — barrier, 2 → 64 ranks (single node)",
        "virtual ns per op",
    );
    println!(
        "{}",
        row(
            "ranks",
            &[
                "MPI".into(),
                "OpenMP".into(),
                "Pure".into(),
                "Pure vs MPI".into()
            ]
        )
    );
    let mut n = 2usize;
    while n <= 64 {
        let mpi = collective_ns_per_op(
            SimRuntime::Mpi,
            n,
            CORES_PER_NODE,
            iters(),
            0,
            CollKind::Barrier,
        );
        let pure = collective_ns_per_op(
            SimRuntime::Pure { tasks: false },
            n,
            CORES_PER_NODE,
            iters(),
            0,
            CollKind::Barrier,
        );
        let omp = omp_single_node(CollKind::Barrier, n, 0);
        println!(
            "{}",
            row(
                &n.to_string(),
                &[cell(mpi), cell(omp), cell(pure), speedup(mpi / pure)]
            )
        );
        if n == 64 {
            fig.ratio("barrier_vs_mpi_64", mpi / pure);
            fig.ratio("barrier_vs_omp_64", omp / pure);
        }
        n *= 2;
    }

    header(
        "Figure 7c — barrier, 2 → 65,536 ranks (64/node)",
        "virtual ns per op",
    );
    println!(
        "{}",
        row(
            "ranks",
            &["MPI".into(), "Pure".into(), "Pure vs MPI".into()]
        )
    );
    let mut n = 2usize;
    let cap_c = trajectory::pick(65_536usize, 64);
    while n <= cap_c {
        let iters = if n > 8192 { 10 } else { iters() };
        let mpi = collective_ns_per_op(
            SimRuntime::Mpi,
            n,
            CORES_PER_NODE,
            iters,
            0,
            CollKind::Barrier,
        );
        let pure = collective_ns_per_op(
            SimRuntime::Pure { tasks: false },
            n,
            CORES_PER_NODE,
            iters,
            0,
            CollKind::Barrier,
        );
        println!(
            "{}",
            row(
                &n.to_string(),
                &[cell(mpi), cell(pure), speedup(mpi / pure)]
            )
        );
        n *= 4;
    }
    if trajectory::emit_requested() {
        fig.write();
    }
}
