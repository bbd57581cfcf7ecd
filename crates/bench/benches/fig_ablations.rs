//! **Ablations** — the design choices DESIGN.md §5 calls out, measured on
//! the real runtime of this machine:
//!
//! 1. PBQ slot count (paper §4.1.1: "not a material performance driver");
//! 4. PBQ cached vs uncached indices, in the DES cost model: the
//!    producer/consumer-side cached opposite-index fast path (one shared
//!    cacheline touched per op in the common case) against the always-load
//!    variant. The runtime ships only the cached queue.
//! 5. Telemetry overhead: the relaxed-atomic counter registry on vs off
//!    (`Config::telemetry`) around the same ping-pong. Reported, not
//!    enforced: on a shared host the delta is mostly scheduling noise.
//!
//! There is no number 2 (SPTD vs shared-counter arrival): the runtime ships
//! SPTD arrival only. There is no number 3 (chunk mode × steal policy): the
//! runtime ships the paper's single-chunk random steal only.
//! EXPERIMENTS.md "Ablations" keeps the last readings of both.

use pure_bench::trajectory::{self, Figure};
use pure_bench::{header, row};
use pure_core::prelude::*;
use std::time::Instant;

/// Rank 0's ns per 64 B message of a two-rank ping-pong under `cfg`.
fn pingpong(mut cfg: Config, iters: usize) -> f64 {
    cfg.spin_budget = 200;
    let (_, times) = launch_map(cfg, move |ctx| {
        let w = ctx.world();
        let tx = [1u8; 64];
        let mut rx = [0u8; 64];
        w.barrier();
        let t0 = Instant::now();
        for _ in 0..iters {
            if ctx.rank() == 0 {
                w.send(&tx, 1, 0);
                w.recv(&mut rx, 1, 1);
            } else {
                w.recv(&mut rx, 0, 0);
                w.send(&tx, 0, 1);
            }
        }
        t0.elapsed().as_nanos() as f64 / (2 * iters) as f64
    });
    times[0]
}

fn main() {
    let mut fig = Figure::new("fig_ablations");
    let pp_iters = trajectory::pick(3000, 300);
    header(
        "Ablation 1 — PBQ slot count (64 B ping-pong, real runtime)",
        "paper: slot count was not a material driver",
    );
    println!("{}", row("slots", &["ns/msg".into()]));
    for slots in [2usize, 8, 64] {
        let mut cfg = Config::new(2);
        cfg.pbq_slots = slots;
        println!(
            "{}",
            row(
                &slots.to_string(),
                &[format!("{:.0}", pingpong(cfg, pp_iters))]
            )
        );
    }

    header(
        "Ablation 4 — PBQ cached vs uncached indices (DES model, 64 B)",
        "cached opposite-index fast path vs loading the shared line every op",
    );
    println!("{}", row("variant", &["uncached delta".into()]));
    // The runtime ships only the cached queue; the DES cost model keeps
    // both, so report its prediction for a same-core pair.
    {
        use cluster_sim::cost::{CostModel, MsgStack, Placement};
        let cached = CostModel::default();
        let uncached = CostModel {
            pbq_cached_indices: false,
            ..CostModel::default()
        };
        let c = cached.msg_ns(MsgStack::Pure, Placement::HyperthreadSiblings, 64);
        let u = uncached.msg_ns(MsgStack::Pure, Placement::HyperthreadSiblings, 64);
        println!(
            "{}",
            row(
                "model (sibling)",
                &[format!("{:+.1}%", (u - c) / c * 100.0)]
            )
        );
        // Deterministic model ratio: uncached cost over cached (≥ 1).
        fig.ratio("model_uncached_over_cached_64B", u / c);
    }

    header(
        "Ablation 5 — telemetry overhead (64 B ping-pong)",
        "relaxed-atomic counters on vs off; min of 5 runs each to cut noise",
    );
    println!("{}", row("variant", &["ns/msg".into()]));
    // Interleave the on/off samples so both variants see the same system
    // conditions, and keep the minimum: on an oversubscribed host the
    // distribution is scheduling-noise-dominated and only the floor
    // reflects the code path cost.
    let runs = trajectory::pick(7, 5);
    let mut on_ns = f64::INFINITY;
    let mut off_ns = f64::INFINITY;
    for _ in 0..runs {
        on_ns = on_ns.min(pingpong(Config::new(2).with_telemetry(true), pp_iters));
        off_ns = off_ns.min(pingpong(Config::new(2).with_telemetry(false), pp_iters));
    }
    let overhead_pct = (on_ns - off_ns) / off_ns * 100.0;
    println!("{}", row("counters on", &[format!("{on_ns:.0}")]));
    println!("{}", row("counters off", &[format!("{off_ns:.0}")]));
    println!("{}", row("overhead", &[format!("{overhead_pct:+.1}%")]));
    fig.raw("telemetry_on_ns", on_ns);
    fig.raw("telemetry_off_ns", off_ns);
    fig.telemetry("overhead_pct", overhead_pct);

    if trajectory::emit_requested() {
        fig.write();
    }
}
