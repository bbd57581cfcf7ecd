//! **Figure 6** — intra-node point-to-point message latency: Pure speedup
//! over MPI for payloads 4 B – 16 MB at three rank placements (hyperthread
//! siblings, shared L3, different NUMA nodes).
//!
//! Paper: speedups from a few percent to >17× — largest for small messages
//! between hyperthread siblings; shrinking toward the copy bound (≈1–2×)
//! for large messages.
//!
//! Part (a) evaluates the calibrated cost model (the machine-independent
//! shape); part (b) measures the *real* runtimes' ping-pong latency on this
//! machine (placements collapse to whatever cores exist here).

use cluster_sim::{CostModel, MsgStack, Placement};
use mpi_baseline::{mpi_launch, MpiConfig};
use pure_bench::trajectory::{self, Figure};
use pure_bench::{header, row, speedup};
use pure_core::prelude::*;
use std::time::Instant;

fn model_table(fig: &mut Figure) {
    let c = CostModel::default();
    header(
        "Figure 6 (model) — Pure speedup over MPI, intra-node p2p",
        "payload | hyperthread siblings | shared L3 | different NUMA",
    );
    println!(
        "{}",
        row(
            "payload",
            &["siblings".into(), "shared L3".into(), "cross NUMA".into()]
        )
    );
    let sizes: Vec<usize> = (2..=24).map(|i| 1usize << i).collect();
    for bytes in [4usize, 8, 16, 32, 64, 128, 256, 512]
        .into_iter()
        .chain(sizes.into_iter().filter(|&b| b >= 1024))
    {
        let cols: Vec<String> = [
            (Placement::HyperthreadSiblings, "siblings"),
            (Placement::SharedL3, "l3"),
            (Placement::CrossNuma, "numa"),
        ]
        .into_iter()
        .map(|(p, tag)| {
            let s = c.msg_ns(MsgStack::Mpi, p, bytes) / c.msg_ns(MsgStack::Pure, p, bytes);
            // The cost model is deterministic, so these speedups are
            // machine-independent — exactly what bench_compare diffs.
            if matches!(bytes, 8 | 8192 | 1048576) {
                fig.ratio(&format!("model_speedup_{tag}_{bytes}B"), s);
            }
            speedup(s)
        })
        .collect();
        println!("{}", row(&fmt_bytes(bytes), &cols));
    }
}

fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{} MB", b >> 20)
    } else if b >= 1024 {
        format!("{} kB", b >> 10)
    } else {
        format!("{b} B")
    }
}

/// Real ping-pong between ranks 0↔1 on this machine; returns ns/message
/// plus the run's telemetry snapshot.
fn real_pure(bytes: usize, iters: usize) -> (f64, RuntimeStats) {
    let mut cfg = Config::new(2);
    cfg.spin_budget = 2; // 1-core host: yield immediately
    let (report, times) = launch_map(cfg, move |ctx| {
        let w = ctx.world();
        let tx = vec![1u8; bytes];
        let mut rx = vec![0u8; bytes];
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
    (times[0], report.stats)
}

/// Cross-node ping-pong over the simulated fabric (pooled wire path: one
/// gather copy per message). Returns ns/message and the run's total wire
/// memcpy bytes.
fn real_pure_crossnode(bytes: usize, iters: usize) -> (f64, u64) {
    let mut cfg = Config::new(2).with_ranks_per_node(1);
    cfg.spin_budget = 2;
    let (report, times) = launch_map(cfg, move |ctx| {
        let w = ctx.world();
        let tx = vec![1u8; bytes];
        let mut rx = vec![0u8; bytes];
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
    (times[0], report.stats.net_memcpy_bytes)
}

/// A traced 4-rank run: a messaging ring (send/recv spans) followed by a
/// deliberately imbalanced chunked task so idle ranks record steal spans.
/// Writes a Chrome-trace JSON loadable in Perfetto / `chrome://tracing`.
fn traced_run(path: &str) {
    let mut cfg = Config::new(4).with_trace(1 << 16);
    cfg.spin_budget = 2;
    let (report, _) = launch_map(cfg, |ctx| {
        let w = ctx.world();
        let next = (ctx.rank() + 1) % 4;
        let prev = (ctx.rank() + 3) % 4;
        let tx = [ctx.rank() as u64; 8];
        let mut rx = [0u64; 8];
        for tag in 0..8 {
            w.send(&tx, next, tag);
            w.recv(&mut rx, prev, tag);
        }
        // Rank 0 owns all the chunk work; the other three ranks wait in
        // the barrier's SSW loop and steal chunks from it.
        if ctx.rank() == 0 {
            ctx.execute_task(256, |chunk| {
                // ~10 µs per chunk so the other ranks' SSW loops get a
                // window to claim chunks before the owner drains them.
                let mut acc = 0u64;
                for i in (chunk.start as u64 * 20_000)..(chunk.end as u64 * 20_000) {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(acc);
            });
        }
        w.barrier();
    });
    let spans: Vec<&str> = ["send", "recv", "steal"]
        .into_iter()
        .filter(|name| report.stats.trace.iter().flatten().any(|e| e.name == *name))
        .collect();
    std::fs::write(path, report.stats.chrome_trace())
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!(
        "\n[trace] wrote {path} ({} chunks stolen live); span kinds present: {spans:?}",
        report.total_chunks_stolen()
    );
}

fn main() {
    let mut fig = Figure::new("fig6_p2p");
    model_table(&mut fig);

    header(
        "Figure 6 (real) — ping-pong on this machine",
        "one-way ns per message, Pure vs mpi-baseline (oversubscribed cores)",
    );
    println!(
        "{}",
        row(
            "payload",
            &["Pure".into(), "MPI baseline".into(), "speedup".into()]
        )
    );
    let payloads = trajectory::pick(
        &[8usize, 512, 8 * 1024, 256 * 1024][..],
        &[8usize, 8 * 1024][..],
    );
    for &bytes in payloads {
        let iters = trajectory::pick(if bytes <= 8 * 1024 { 2000 } else { 200 }, 50);
        let (p, stats) = real_pure(bytes, iters);
        let m = real_mpi_latency(bytes, iters);
        println!(
            "{}",
            row(
                &fmt_bytes(bytes),
                &[format!("{p:.0} ns"), format!("{m:.0} ns"), speedup(m / p)]
            )
        );
        fig.raw(&format!("pure_pingpong_{bytes}B_ns"), p);
        fig.raw(&format!("mpi_pingpong_{bytes}B_ns"), m);
        let msgs = stats.total(Counter::PbqEnq)
            + stats.total(Counter::PbqSendBatchMsgs)
            + stats.total(Counter::EnvPost);
        let per_msg = |n: u64| {
            if msgs == 0 {
                0.0
            } else {
                n as f64 / msgs as f64
            }
        };
        fig.telemetry(
            &format!("index_refresh_per_msg_{bytes}B"),
            per_msg(stats.total(Counter::PbqIndexRefresh)),
        );
        fig.telemetry(
            &format!("full_stalls_per_msg_{bytes}B"),
            per_msg(stats.total(Counter::PbqFullStall)),
        );
    }

    header(
        "Figure 6 (wire) — cross-node ping-pong over the pooled wire",
        "one-way ns per message and wire memcpy bytes per message",
    );
    println!(
        "{}",
        row("payload", &["ns/msg".into(), "memcpy B/msg".into()])
    );
    for &bytes in trajectory::pick(&[8usize, 8 * 1024][..], &[8usize][..]) {
        let iters = trajectory::pick(500, 50);
        let msgs = (2 * iters) as f64;
        let (ns, copied) = real_pure_crossnode(bytes, iters);
        println!(
            "{}",
            row(
                &fmt_bytes(bytes),
                &[
                    format!("{ns:.0} ns"),
                    format!("{:.1}", copied as f64 / msgs)
                ]
            )
        );
        fig.raw(&format!("pure_crossnode_pingpong_{bytes}B_ns"), ns);
    }

    if std::env::args().any(|a| a == "--trace") {
        let path = trajectory::arg_value("--trace")
            .filter(|v| !v.starts_with('-'))
            .unwrap_or_else(|| "fig6_p2p_trace.json".into());
        traced_run(&path);
    }
    if trajectory::emit_requested() {
        fig.write();
    }
}

/// Real baseline ping-pong (ns one-way).
fn real_mpi_latency(bytes: usize, iters: usize) -> f64 {
    use std::sync::Mutex;
    let out = Mutex::new(0.0f64);
    mpi_launch(MpiConfig::new(2), |ctx| {
        let w = ctx.world();
        let tx = vec![1u8; bytes];
        let mut rx = vec![0u8; bytes];
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
        if ctx.rank() == 0 {
            *out.lock().unwrap() = t0.elapsed().as_nanos() as f64 / (2 * iters) as f64;
        }
    });
    out.into_inner().unwrap()
}
