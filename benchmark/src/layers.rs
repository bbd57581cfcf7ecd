//! The traced run of one workload: every per-layer metric.
//!
//! Two parts. First the workload itself, as alternating untraced and traced
//! Pure blocks of one process (after one discarded block that warms the
//! process): the traced blocks record a span around every
//! call into a layer and arm the runtime's own ring tracer, the difference
//! between the two kinds of block is the tracing overhead, and the last
//! traced block becomes the Chrome trace. Then the ladder
//! ([`crate::ladder`]), which is the same in every traced run. End-to-end
//! numbers are never taken from here.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use pure_core::Counter;

use crate::e2e::{account, plan_for};
use crate::report::{Failures, Measured, RunResult};
use crate::segment::{median_over, run_segment, Runtime, Segment};
use crate::spans::{chrome_trace, totals_by_name, NameTotal, Span, NO_PARENT};
use crate::spec::Workload;
use crate::stats::median;
use crate::workloads::Inputs;

/// Untraced/traced block pairs of the workload part.
const PAIRS: usize = 3;
/// Share of `--seconds` the workload part gets; the ladder gets the rest.
const WORKLOAD_SHARE: f64 = 0.4;
/// Spans of each thread written to the Chrome trace file.
const TRACE_FILE_SPANS: usize = 20_000;

/// The Chrome trace of one traced segment: the benchmark's spans per rank,
/// and the runtime's ring events per rank on threads of their own (placed
/// on the benchmark's clock by the launch call time, so the two agree to
/// within the launch's own start-up).
fn trace_file(seg: &Segment) -> Option<String> {
    let t = seg.trace.as_ref()?;
    let mut threads: Vec<(String, Vec<Span>)> = t
        .spans
        .iter()
        .enumerate()
        .map(|(r, (s, dropped))| {
            (
                format!("benchmark spans, rank {r} ({dropped} dropped)"),
                s.clone(),
            )
        })
        .collect();
    for (r, events) in t.ring.iter().enumerate() {
        let spans = events
            .iter()
            .map(|e| Span {
                name: e.name,
                start_ns: seg.t_call_ns + e.ts_ns,
                end_ns: seg.t_call_ns + e.ts_ns + e.dur_ns,
                parent: NO_PARENT,
                op: 0,
            })
            .collect();
        threads.push((
            format!("runtime ring tracer, rank {r} (newest events)"),
            spans,
        ));
    }
    Some(chrome_trace(&threads, TRACE_FILE_SPANS))
}

/// A table of self time per span name over the traced blocks.
fn self_time_table(traced: &[&Segment]) -> String {
    let mut all: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for seg in traced {
        for (spans, _) in seg.trace.iter().flat_map(|t| &t.spans) {
            for (name, t) in totals_by_name(spans) {
                let e = all.entry(name).or_default();
                e.count += t.count;
                e.total_ns += t.total_ns;
                e.self_ns += t.self_ns;
            }
        }
    }
    let mut out = String::from(
        "  spans of the traced blocks, both ranks (self = span minus its child spans)\n",
    );
    out.push_str(&format!(
        "  {:<24} {:>10} {:>14} {:>14}\n",
        "span", "count", "mean ns", "mean self ns"
    ));
    for (name, t) in all {
        out.push_str(&format!(
            "  {name:<24} {:>10} {:>14.1} {:>14.1}\n",
            t.count,
            t.total_ns as f64 / t.count as f64,
            t.self_ns as f64 / t.count as f64
        ));
    }
    out
}

/// Run `w` traced and reduce it, with the ladder, to the per-layer metrics.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64, out_dir: &Path) -> RunResult {
    crate::alloc::enable(true);
    let inputs = Inputs::generate(seed, w.shape);
    let slice = Duration::from_secs_f64(seconds * WORKLOAD_SHARE / (2 * PAIRS + 1) as f64);
    let plan = plan_for(w, Some(slice));
    let discarded = run_segment(Runtime::Pure, w.wire, &inputs, &plan, false);
    let segs: Vec<Segment> = (0..2 * PAIRS)
        .map(|i| run_segment(Runtime::Pure, w.wire, &inputs, &plan, i % 2 == 1))
        .collect();
    let mut fails = Failures::default();
    account(std::slice::from_ref(&discarded), &mut fails);
    account(&segs, &mut fails);

    let mut out = RunResult::new(Failures::default());
    out.push(
        "runtime.launch_us",
        median_over(&segs, 1e-3, Segment::launch_ns),
    );
    out.push(
        "runtime.first_barrier_us",
        median_over(&segs, 1e-3, Segment::first_barrier_ns),
    );
    out.push(
        "runtime.finalize_us",
        median_over(&segs, 1e-3, Segment::teardown_ns),
    );
    let ops: u64 = segs.iter().map(Segment::ops).sum();
    let per_op = |c: Counter| {
        let n: u64 = segs.iter().map(|s| s.counter(c)).sum();
        Measured::plain(
            n as f64 / ops.max(1) as f64,
            format!("{n} over {ops} ops, both ranks"),
        )
    };
    out.push("runtime.ssw_spins_per_op", per_op(Counter::SswSpin));
    out.push("runtime.ssw_yields_per_op", per_op(Counter::SswYield));
    let (allocs, timed): (u64, u64) = segs
        .iter()
        .filter_map(|s| s.ranks.as_ref())
        .fold((0, 0), |(a, t), r| (a + r[0].allocs, t + r[0].timed_ops));
    out.push(
        "runtime.allocs_per_op",
        Measured::plain(
            allocs as f64 / timed.max(1) as f64,
            format!("{allocs} allocations in the process over {timed} timed ops"),
        ),
    );
    let rate = |traced: bool| -> Vec<f64> {
        segs.iter()
            .enumerate()
            .filter(|(i, _)| (i % 2 == 1) == traced)
            .filter_map(|(_, s)| s.block.map(|b| b.ops_per_s()))
            .collect()
    };
    let (plain, traced) = (rate(false), rate(true));
    let overhead = if plain.is_empty() || traced.is_empty() {
        f64::NAN
    } else {
        100.0 * (1.0 - median(&traced) / median(&plain))
    };
    out.push(
        "runtime.trace_overhead_pct",
        Measured::plain(
            overhead,
            format!(
                "ops_per_s of {} traced against {} untraced blocks, alternating",
                traced.len(),
                plain.len()
            ),
        ),
    );

    let traced_segs: Vec<&Segment> = segs.iter().filter(|s| s.trace.is_some()).collect();
    print!("{}", self_time_table(&traced_segs));
    if let Some(text) = traced_segs.last().and_then(|s| trace_file(s)) {
        let path = out_dir.join(format!("{}.trace.json", w.name));
        match std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => println!("  chrome trace written to {}", path.display()),
            Err(e) => fails
                .notes
                .push(format!("could not write {}: {e}", path.display())),
        }
    }

    let ladder = crate::ladder::run(
        seed,
        Duration::from_secs_f64(seconds * (1.0 - WORKLOAD_SHARE)),
        &mut fails,
    );
    print!("{}", ladder.table);
    out.metrics.extend(ladder.metrics);
    // The workload's own launches count toward the pool check as well.
    let worst = segs
        .iter()
        .map(|s| s.pool_outstanding().abs())
        .max()
        .unwrap_or(0);
    if let Some(p) = out.metrics.get_mut("pool.outstanding_at_exit") {
        p.value = p.value.max(worst as f64);
    }
    out.fails = fails;
    crate::alloc::enable(false);
    out
}
