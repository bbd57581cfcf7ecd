//! **Figure 6b** — cross-node small-message throughput: what the per-node
//! progress engine's frame coalescing buys on the internode wire.
//!
//! Part (a) evaluates the calibrated cost model: amortizing the network
//! per-frame cost `net_alpha_ns` over a batch of coalesced small frames
//! (the `net_coalesce_batch` term), machine-independently.
//!
//! Part (b) runs the *real* runtime — 4 ranks on 2 simulated nodes — and
//! streams small cross-node messages over every leg in [`wire_legs`]:
//! coalescing off and on, with the blocked ranks driving the progress
//! engine from their SSW waits. The headline ratio `wire_frame_reduction_small` is frames(off) /
//! frames(on); the PR's acceptance floor is 2×, and the count watermark
//! (8 subframes per jumbo) puts the steady-state figure well above that.
//!
//! The ≥2× frame assertion is derived from the leg list itself — every
//! coalescing leg is enrolled automatically, so adding a new configuration
//! can never silently skip the gate.

use cluster_sim::{CostModel, MsgStack, Placement};
use pure_bench::trajectory::{self, Figure};
use pure_bench::{header, row, speedup};
use pure_core::prelude::*;
use std::time::Instant;

fn model_table(fig: &mut Figure) {
    header(
        "Figure 6b (model) — coalescing speedup for cross-node messages",
        "payload | speedup at batch=4 | batch=8 | batch=16 (alpha amortized, Pure small msgs only)",
    );
    println!(
        "{}",
        row(
            "payload",
            &["batch 4".into(), "batch 8".into(), "batch 16".into()]
        )
    );
    let base = CostModel::default();
    for bytes in [8usize, 64, 512, 4096, 65536] {
        let cols: Vec<String> = [4.0, 8.0, 16.0]
            .into_iter()
            .map(|batch| {
                let c = CostModel {
                    net_coalesce_batch: batch,
                    ..CostModel::default()
                };
                let s = base.msg_ns(MsgStack::Pure, Placement::CrossNode, bytes)
                    / c.msg_ns(MsgStack::Pure, Placement::CrossNode, bytes);
                if bytes == 8 {
                    fig.ratio(&format!("model_coalesce_speedup_batch{batch:.0}_8B"), s);
                }
                speedup(s)
            })
            .collect();
        println!("{}", row(&format!("{bytes} B"), &cols));
    }
}

/// Stream `msgs` small cross-node messages from each node-0 rank to its
/// node-1 partner, then one collective to mix planes. Returns the stats
/// snapshot and wall-clock ns per message.
fn crossnode_stream(cfg: Config, msgs: u64) -> (RuntimeStats, f64) {
    let t0 = Instant::now();
    let report = pure_core::launch(cfg, move |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        let partner = (me + 2) % 4;
        let mut got = [0u64];
        if me < 2 {
            for i in 0..msgs {
                w.send(&[i * 7 + me as u64], partner, 1);
            }
        } else {
            for i in 0..msgs {
                w.recv(&mut got, partner, 1);
                assert_eq!(got[0], i * 7 + partner as u64, "stream corrupted");
            }
        }
        let s = w.allreduce_one(1u64, ReduceOp::Sum);
        assert_eq!(s, 4);
    });
    let ns_per_msg = t0.elapsed().as_nanos() as f64 / (2 * msgs) as f64;
    (report.stats, ns_per_msg)
}

fn cfg_on(backend: Backend, coalesce: bool) -> Config {
    let mut c = Config::new(4)
        .with_ranks_per_node(2)
        .with_transport(backend);
    c.spin_budget = 2;
    if coalesce {
        c = c.with_coalescing(CoalescePlan::default());
    }
    c
}

fn cfg(coalesce: bool) -> Config {
    cfg_on(Backend::Sim, coalesce)
}

/// One leg of the real-runtime sweep. The table rows and the per-leg ≥2×
/// frame-reduction assertions are derived from this list, so a leg added
/// here is automatically measured *and* gated — there is no separate
/// hardcoded leg list to forget to update.
struct WireLeg {
    name: &'static str,
    coalesce: bool,
}

fn wire_legs() -> Vec<WireLeg> {
    vec![
        WireLeg {
            name: "off",
            coalesce: false,
        },
        WireLeg {
            name: "coalesced",
            coalesce: true,
        },
    ]
}

fn main() {
    let mut fig = Figure::new("fig6b_crossnode");
    model_table(&mut fig);

    let msgs: u64 = trajectory::pick(512, 64);
    header(
        "Figure 6b (real) — wire frames for small cross-node streams",
        "4 ranks / 2 nodes; frames on the internode wire, coalescing off vs on",
    );
    println!(
        "{}",
        row(
            "config",
            &[
                "wire frames".into(),
                "coalesced".into(),
                "flushes".into(),
                "memcpy B/msg".into(),
                "ns/msg".into()
            ]
        )
    );

    let legs = wire_legs();
    let sent = (2 * msgs) as f64;
    let runs: Vec<(RuntimeStats, f64)> = legs
        .iter()
        .map(|leg| crossnode_stream(cfg(leg.coalesce), msgs))
        .collect();
    for (leg, (stats, ns)) in legs.iter().zip(&runs) {
        println!(
            "{}",
            row(
                leg.name,
                &[
                    format!("{}", stats.net_frames),
                    format!("{}", stats.net_coalesced),
                    format!("{}", stats.net_coalesce_flushes),
                    format!("{:.1}", stats.net_memcpy_bytes as f64 / sent),
                    format!("{ns:.0} ns"),
                ]
            )
        );
    }

    // The frame-reduction gate enrolls every coalescing leg in the list:
    // frames(baseline) / frames(leg) must clear 2× for each of them.
    let baseline: Vec<usize> = legs
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.coalesce)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        baseline.len(),
        1,
        "exactly one plain non-coalesced baseline"
    );
    let (off, off_ns) = (&runs[baseline[0]].0, runs[baseline[0]].1);
    assert_eq!(off.net_coalesced, 0, "baseline must not coalesce");
    println!();
    for (leg, (stats, _)) in legs.iter().zip(&runs).filter(|(l, _)| l.coalesce) {
        let reduction = off.net_frames as f64 / stats.net_frames.max(1) as f64;
        println!(
            "wire frame reduction (off/{}): {}",
            leg.name,
            speedup(reduction)
        );
        assert!(
            reduction >= 2.0,
            "coalescing ({}) must at least halve wire frames: {} vs {}",
            leg.name,
            stats.net_frames,
            off.net_frames
        );
        assert!(
            stats.net_coalesced > 0,
            "{}: coalescing armed but no frames coalesced",
            leg.name
        );
    }

    let by_name = |name: &str| {
        let i = legs
            .iter()
            .position(|l| l.name == name)
            .unwrap_or_else(|| panic!("no wire leg named {name:?}"));
        (&runs[i].0, runs[i].1)
    };
    let (coal, coal_ns) = by_name("coalesced");

    // Zero-copy: the pooled path pays exactly one gather copy per message
    // (user buffer → pooled jumbo) and scatters borrowed slices.
    assert!(
        coal.net_frames_borrowed > 0,
        "zero-copy path must hand borrowed slices to the match store"
    );

    // Failure detection armed on the same trajectory: the liveness
    // piggyback (every data frame and ACK counts as evidence) must keep
    // explicit heartbeat frames below 1% of wire traffic on a busy stream —
    // the detector is supposed to be observability, not load.
    let mut det_cfg = cfg(false);
    det_cfg.net = det_cfg.net.with_detection(DetectPlan::default());
    let (det, _) = crossnode_stream(det_cfg, msgs);
    let hb_share = det.net_heartbeats as f64 / det.net_frames.max(1) as f64;
    println!(
        "\nheartbeat share with detection armed: {:.3}% ({} of {} frames)",
        hb_share * 100.0,
        det.net_heartbeats,
        det.net_frames
    );
    assert!(
        hb_share < 0.01,
        "failure-detector heartbeats must stay under 1% of wire frames on a \
         busy stream: {} heartbeats / {} frames",
        det.net_heartbeats,
        det.net_frames
    );
    assert_eq!(
        det.net_suspicions, 0,
        "a healthy run must not condemn peers"
    );

    // Same stream over real TCP loopback sockets: coalescing is a transport
    // optimization, so its frame reduction must survive the backend swap —
    // the jumbos now cross actual socket writes, and the telemetry counts
    // the same wire frames. Acceptance floor is the same 2×.
    let (tcp_off, tcp_off_ns) = crossnode_stream(cfg_on(Backend::Tcp, false), msgs);
    let (tcp_coal, tcp_coal_ns) = crossnode_stream(cfg_on(Backend::Tcp, true), msgs);
    let tcp_reduction = tcp_off.net_frames as f64 / tcp_coal.net_frames.max(1) as f64;
    println!(
        "\nwire frame reduction over TCP (off/coalesced): {} \
         ({} -> {} frames, {:.0} -> {:.0} ns/msg)",
        speedup(tcp_reduction),
        tcp_off.net_frames,
        tcp_coal.net_frames,
        tcp_off_ns,
        tcp_coal_ns
    );
    assert!(
        tcp_reduction >= 2.0,
        "coalescing must at least halve wire frames over the TCP backend: {} vs {}",
        tcp_coal.net_frames,
        tcp_off.net_frames
    );

    // The frame counts are watermark-driven (count watermark = 8 subframes
    // per jumbo for back-to-back streams), so the reductions are stable,
    // machine-independent ratios bench_compare can police.
    fig.ratio(
        "wire_frame_reduction_small",
        off.net_frames as f64 / coal.net_frames.max(1) as f64,
    );
    fig.ratio("wire_frame_reduction_small_tcp", tcp_reduction);
    fig.raw("pure_crossnode_off_ns_per_msg", off_ns);
    fig.raw("pure_crossnode_coalesced_ns_per_msg", coal_ns);
    fig.raw(
        "pure_crossnode_memcpy_bytes_per_msg",
        coal.net_memcpy_bytes as f64 / sent,
    );
    fig.telemetry(
        "frames_per_flush",
        coal.net_coalesced as f64 / coal.net_coalesce_flushes.max(1) as f64,
    );
    fig.telemetry("progress_polls", coal.net_progress_polls as f64);
    fig.telemetry("detect_heartbeat_share", hb_share);

    if trajectory::emit_requested() {
        fig.write();
    }
}
