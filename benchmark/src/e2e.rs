//! The untraced run of one workload: every end-to-end metric.
//!
//! The run is a fixed sequence of launches in one process. Pure and
//! `mpi-baseline` blocks alternate, each block its own launch with its own
//! warm-up, `--seconds` split evenly between them; the first pair warms the
//! process (a block that follows idle time runs at up to half speed on this
//! kind of host) and is left out of every statistic. Many short Pure
//! launches close the run: set-up and tear-down samples. Every timing metric
//! is the median over blocks of the block's statistic, except the p99, which
//! is taken over finer chunks (see below).

use std::time::Duration;

use crate::report::{Failures, Measured, RunResult};
use crate::segment::{median_over, run_segment, Runtime, Segment};
use crate::spec::Workload;
use crate::stats::{first_quartile, iqr_share, median, over_blocks, p99_by_chunk, BlockStat};
use crate::workloads::{Inputs, Plan};

/// Timed Pure blocks per run.
pub const PURE_BLOCKS: usize = 9;
/// Timed baseline blocks per run, interleaved between the Pure ones.
pub const MPI_BLOCKS: usize = 8;
/// Short Pure launches (one op, no timed part) that close the run. One
/// launch's set-up time spreads by a quarter around its median; it takes
/// this many for the median to hold still from run to run. (Their tear-down
/// barely varies: under a progress deadline `launch` joins the runtime's
/// watchdog thread, which sleeps in 5 ms steps, so a launch shorter than a
/// step returns when the step ends.)
pub const SETUP_PROBES: usize = 100;

/// Untimed warm-up of a block, as a share of its timed slice.
pub const WARM_SHARE: f64 = 0.15;

/// The plan of one launch of `w`: warm up, then time batches for `slice`
/// (`None`: stop after the first op).
pub fn plan_for(w: &Workload, slice: Option<Duration>) -> Plan {
    Plan {
        shape: w.shape,
        batch: w.batch,
        warm: slice.map_or(Duration::ZERO, |s| s.mul_f64(WARM_SHARE)),
        slice,
        comd_tasks: true,
    }
}

/// Count what went wrong in `segs` into `fails`.
pub fn account(segs: &[Segment], fails: &mut Failures) {
    for rt in [Runtime::Pure, Runtime::Mpi] {
        let of_rt: Vec<&Segment> = segs.iter().filter(|s| s.runtime == rt).collect();
        let done: Vec<f64> = of_rt
            .iter()
            .filter(|s| s.ranks.is_some())
            .map(|s| s.ops() as f64)
            .collect();
        // An aborted launch is charged the ops a completed one ran.
        let typical = if done.is_empty() {
            1
        } else {
            median(&done) as u64
        };
        for s in of_rt {
            if s.ranks.is_some() {
                fails.attempted += s.ops();
                fails.failed += s.bad();
            } else {
                fails.attempted += typical;
                fails.failed += typical;
                fails.notes.push(format!("a {rt:?} launch aborted"));
            }
            if s.pool_outstanding() != 0 {
                fails.wrong = true;
                fails.notes.push(format!(
                    "{} pooled frame buffers outstanding after a launch",
                    s.pool_outstanding()
                ));
            }
        }
    }
    // CoMD: every launch, on either runtime, must reach the same end state.
    let mut states = segs
        .iter()
        .filter_map(|s| s.ranks.as_ref())
        .flat_map(|r| r.iter().filter_map(|o| o.comd));
    if let Some(first) = states.next() {
        if states.any(|s| s != first) {
            fails.wrong = true;
            fails
                .notes
                .push("CoMD end states differ between launches or runtimes".into());
        }
    }
}

/// Run `w` untraced and reduce it to the end-to-end metrics.
pub fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> RunResult {
    let inputs = Inputs::generate(seed, w.shape);
    let slice = Duration::from_secs_f64(seconds / (PURE_BLOCKS + MPI_BLOCKS) as f64);
    let timed = plan_for(w, Some(slice));
    // The warm-up pair. Peak RSS is read after its Pure half, before the
    // baseline has run at all, so that it is the peak of a Pure launch and
    // not of the baseline's per-message allocations.
    let mut discarded = vec![run_segment(Runtime::Pure, w.wire, &inputs, &timed, false)];
    let peak_rss = crate::host::peak_rss_mib();
    discarded.push(run_segment(Runtime::Mpi, w.wire, &inputs, &timed, false));

    let mut segs: Vec<Segment> = Vec::new();
    for i in 0..PURE_BLOCKS + MPI_BLOCKS {
        let rt = if i % 2 == 0 {
            Runtime::Pure
        } else {
            Runtime::Mpi
        };
        segs.push(run_segment(rt, w.wire, &inputs, &timed, false));
    }
    for _ in 0..SETUP_PROBES {
        segs.push(run_segment(
            Runtime::Pure,
            w.wire,
            &inputs,
            &plan_for(w, None),
            false,
        ));
    }

    let mut fails = Failures::default();
    account(&discarded, &mut fails);
    account(&segs, &mut fails);

    let blocks = |rt: Runtime| -> Vec<BlockStat> {
        segs.iter()
            .filter(|s| s.runtime == rt)
            .filter_map(|s| s.block)
            .collect()
    };
    let (pure, mpi) = (blocks(Runtime::Pure), blocks(Runtime::Mpi));
    let pure_segs: Vec<&Segment> = segs.iter().filter(|s| s.runtime == Runtime::Pure).collect();

    let mut out = RunResult::new(fails);
    if pure.is_empty() || mpi.is_empty() {
        out.fails.notes.push("no completed block to measure".into());
        return out;
    }
    let samples: usize = pure.iter().map(|b| b.samples).sum();
    let timed_ops: u64 = pure.iter().map(|b| b.ops).sum();
    let blocks_note = format!("median of {} blocks, {timed_ops} timed ops", pure.len());

    out.push(
        "setup_s",
        median_over(pure_segs.iter().copied(), 1e-9, Segment::setup_ns),
    );
    out.push(
        "teardown_s",
        median_over(pure_segs.iter().copied(), 1e-9, Segment::teardown_ns),
    );
    let p50 = over_blocks(&pure, |b| b.p50_ns);
    out.push(
        "op_p50_us",
        Measured::new(p50.median / 1e3, p50.iqr_share, blocks_note.clone()),
    );
    // The p99 is taken chunk by chunk over all timed Pure samples in order,
    // and reported as the first quartile over chunks: the tail of the
    // quieter part of the run. Interference from the host only ever
    // lengthens a tail, in bursts; with the median over chunks this metric
    // spread by 20 % between runs of the same code, with the first quartile
    // by 4-12 %, while a tail the program itself grows moves every chunk.
    let per = w.shape.ops_per_sample() as f64;
    let all: Vec<f64> = pure_segs
        .iter()
        .flat_map(|s| s.samples_ns().iter().map(|&ns| f64::from(ns) / per))
        .collect();
    let p99s = p99_by_chunk(&all);
    out.push(
        "op_p99_us",
        Measured::new(
            first_quartile(&p99s) / 1e3,
            iqr_share(&p99s),
            format!(
                "first quartile of {} chunks, {samples} samples, {} beyond each p99",
                p99s.len(),
                samples / p99s.len() / 100
            ),
        ),
    );
    let rate = over_blocks(&pure, BlockStat::ops_per_s);
    out.push(
        "ops_per_s",
        Measured::new(rate.median, rate.iqr_share, blocks_note),
    );
    let pure_t = over_blocks(&pure, BlockStat::ns_per_op);
    let mpi_t = over_blocks(&mpi, BlockStat::ns_per_op);
    out.push(
        "speedup_vs_mpi",
        Measured::new(
            mpi_t.median / pure_t.median,
            // The spreads of numerator and denominator, added.
            mpi_t.iqr_share + pure_t.iqr_share,
            format!(
                "{:.1} ns/op baseline over {:.1} ns/op Pure, {} + {} alternating blocks",
                mpi_t.median,
                pure_t.median,
                mpi.len(),
                pure.len()
            ),
        ),
    );
    if let Some(rss) = peak_rss {
        out.push(
            "peak_rss_mb",
            Measured::plain(
                rss,
                "VmHWM after the first Pure block, before the baseline first runs",
            ),
        );
    }
    out
}
