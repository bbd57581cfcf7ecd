//! **Appendix A** — additional collectives: broadcast and rooted reduce
//! across payload sizes and scales, Pure vs MPI (the paper's appendix shows
//! Pure's collectives win "for all collectives and sizes", unlike DMAPP
//! which only accelerates 8 B payloads).

use cluster_sim::workloads::micro::{collective_ns_per_op, collective_ns_per_op_with};
use cluster_sim::{CollKind, CostModel, NetCollAlgo, SimRuntime, HIER_CANDIDATES};
use pure_bench::trajectory::{self, Figure};
use pure_bench::{cell, header, row, speedup};

const CORES_PER_NODE: usize = 64;
const ITERS: usize = 30;

fn table(kind: CollKind, title: &str, fig: &mut Figure) {
    header(title, "virtual ns per op; Pure speedup over MPI");
    println!(
        "{}",
        row(
            "ranks / payload",
            &[
                "8 B".into(),
                "512 B".into(),
                "4 kB".into(),
                "64 kB".into(),
                "1 MB".into()
            ]
        )
    );
    let sweep = trajectory::pick(&[8usize, 64, 512, 4096, 65_536][..], &[8usize, 64][..]);
    let iters = trajectory::pick(ITERS, 5);
    for &ranks in sweep {
        let iters = if ranks > 8192 { 5 } else { iters };
        let cols: Vec<String> = [8u32, 512, 4096, 65_536, 1 << 20]
            .into_iter()
            .map(|bytes| {
                let mpi = collective_ns_per_op(
                    SimRuntime::Mpi,
                    ranks,
                    CORES_PER_NODE,
                    iters,
                    bytes,
                    kind,
                );
                let pure = collective_ns_per_op(
                    SimRuntime::Pure { tasks: false },
                    ranks,
                    CORES_PER_NODE,
                    iters,
                    bytes,
                    kind,
                );
                if ranks == 64 && bytes == 4096 {
                    fig.ratio(&format!("{kind:?}_vs_mpi_64r_4096B"), mpi / pure);
                }
                format!("{} ({})", cell(pure), speedup(mpi / pure))
            })
            .collect();
        println!("{}", row(&ranks.to_string(), &cols));
    }
}

/// Hierarchical leaders (the fastest static shape in [`HIER_CANDIDATES`])
/// vs the flat exchange across payloads and scale; gate-asserts the
/// crossover (hierarchical strictly faster at ≥ 4,096 ranks for 8 B
/// payloads) even under smoke mode.
fn hier_table(fig: &mut Figure) {
    header(
        "Appendix A — hierarchical leaders (all-reduce, best static shape vs flat)",
        "virtual ns per op; speedup over the flat leader exchange",
    );
    println!("{}", row("ranks / payload", &["8 B".into(), "1 MB".into()]));
    for ranks in [512usize, 4_096, 65_536] {
        let iters = if ranks > 8192 { 5 } else { 10 };
        let cols: Vec<String> = [8u32, 1 << 20]
            .into_iter()
            .map(|bytes| {
                let run = |algo: NetCollAlgo| {
                    collective_ns_per_op_with(
                        CostModel {
                            net_coll: algo,
                            ..CostModel::default()
                        },
                        SimRuntime::Pure { tasks: false },
                        ranks,
                        CORES_PER_NODE,
                        iters,
                        bytes,
                        CollKind::Allreduce,
                    )
                };
                let flat = run(NetCollAlgo::Flat);
                let (shape, hier) = HIER_CANDIDATES
                    .into_iter()
                    .map(|a| (a, run(a)))
                    .min_by(|x, y| x.1.total_cmp(&y.1))
                    .expect("HIER_CANDIDATES is non-empty");
                if ranks >= 4_096 && bytes == 8 {
                    assert!(
                        hier < flat,
                        "crossover gate: hierarchical ({hier:.1} ns) must beat flat \
                         ({flat:.1} ns) at {ranks} ranks / {bytes} B ({shape:?})"
                    );
                    fig.ratio(&format!("hier_vs_flat_allreduce8B_{ranks}"), flat / hier);
                }
                format!("{} ({})", cell(hier), speedup(flat / hier))
            })
            .collect();
        println!("{}", row(&ranks.to_string(), &cols));
    }
}

fn main() {
    let mut fig = Figure::new("figA_collectives");
    table(CollKind::Bcast, "Appendix A — broadcast", &mut fig);
    table(
        CollKind::Reduce,
        "Appendix A — reduce (to rank 0)",
        &mut fig,
    );
    table(
        CollKind::Allreduce,
        "Appendix A — all-reduce (payload sweep)",
        &mut fig,
    );
    hier_table(&mut fig);
    if trajectory::emit_requested() {
        fig.write();
    }
}
