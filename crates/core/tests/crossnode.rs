//! Cross-node scale-out tests: the progress engine the blocked ranks drive
//! from their SSW waits, outbound frame coalescing, the chunked wire
//! rendezvous for large payloads, and the failure shapes of cross-node
//! errors (structured truncation, abort-protocol timeouts).

use std::time::Duration;

use pure_core::prelude::*;

const PAIRS_MSGS: u64 = 24;

fn cfg(ranks: usize, rpn: usize) -> Config {
    // `PURE_BACKEND=tcp` reruns the whole suite over real loopback sockets
    // (the CI backend matrix); the default is the simulated fabric.
    let mut c = Config::new(ranks)
        .with_ranks_per_node(rpn)
        .with_transport(Backend::from_env());
    c.spin_budget = 16;
    c
}

/// The panic payload re-raised by `launch` as a formatted string.
fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("<non-string payload>")
    }
}

/// 4 ranks on 2 nodes: ping streams of small cross-node messages between
/// node-crossing pairs, then a collective to mix the planes.
fn crossnode_workload(ctx: &RankCtx) {
    let w = ctx.world();
    let me = ctx.rank();
    let partner = (me + 2) % 4;
    let mut got = [0u64];
    if me < 2 {
        for i in 0..PAIRS_MSGS {
            w.send(&[i * 10 + me as u64], partner, 1);
        }
        for i in 0..PAIRS_MSGS {
            w.recv(&mut got, partner, 2);
            assert_eq!(got[0], i * 100 + partner as u64, "echo stream broke");
        }
    } else {
        for i in 0..PAIRS_MSGS {
            w.recv(&mut got, partner, 1);
            assert_eq!(got[0], i * 10 + partner as u64, "ping stream broke");
        }
        for i in 0..PAIRS_MSGS {
            w.send(&[i * 100 + me as u64], partner, 2);
        }
    }
    let sum = w.allreduce_one(me as u64 + 1, ReduceOp::Sum);
    assert_eq!(sum, 10);
}

#[test]
fn coalescing_halves_wire_frames_and_stays_correct() {
    let base = pure_core::launch(cfg(4, 2), |ctx| crossnode_workload(ctx));
    let coal = pure_core::launch(cfg(4, 2).with_coalescing(CoalescePlan::default()), |ctx| {
        crossnode_workload(ctx)
    });
    assert_eq!(base.stats.net_coalesced, 0, "baseline must not coalesce");
    assert!(
        coal.stats.net_coalesced >= 4 * PAIRS_MSGS,
        "every small data frame should ride a jumbo: {}",
        coal.stats.net_coalesced
    );
    assert!(coal.stats.net_coalesce_flushes > 0);
    assert!(
        coal.stats.net_frames * 2 <= base.stats.net_frames,
        "coalescing must at least halve wire frames: {} vs {}",
        coal.stats.net_frames,
        base.stats.net_frames
    );
    assert!(
        coal.stats.net_progress_polls > 0,
        "the ranks' progress engine never ticked"
    );
}

#[test]
fn large_cross_node_payloads_stream_chunked() {
    // 64 KiB >> small_msg_max (8 KiB): p2p takes the chunked wire
    // rendezvous, and the coalescing layer never sees an oversize frame it
    // cannot buffer. Run with coalescing ON to exercise their composition.
    let n = 64 * 1024 / 8;
    let report = pure_core::launch(
        cfg(2, 1).with_coalescing(CoalescePlan::default()),
        move |ctx| {
            let w = ctx.world();
            if ctx.rank() == 0 {
                let data: Vec<u64> = (0..n as u64).collect();
                w.send(&data, 1, 3);
            } else {
                let mut buf = vec![0u64; n];
                w.recv(&mut buf, 0, 3);
                assert!(buf.iter().enumerate().all(|(i, &v)| v == i as u64));
            }
            // Large collective payload: the leader path streams too.
            let mut big = vec![ctx.rank() as u64; 4096];
            let mut out = vec![0u64; 4096];
            w.allreduce(&big, &mut out, ReduceOp::Sum);
            assert!(out.iter().all(|&v| v == 1));
            big[0] = 7;
            w.bcast(&mut big, 0);
        },
    );
    assert!(
        report.stats.net_frames > 8,
        "chunking must split the payload into many frames: {}",
        report.stats.net_frames
    );
}

#[test]
fn concurrent_split_comms_run_crossnode_collectives_under_coalescing() {
    // Two sub-communicators from split, both spanning both nodes, running
    // interleaved cross-node collectives over the coalesced wire: distinct
    // tag windows keep the streams apart even though all their frames share
    // each node pair's single jumbo link.
    pure_core::launch(cfg(4, 2).with_coalescing(CoalescePlan::default()), |ctx| {
        let w = ctx.world();
        let sub = w.split((ctx.rank() % 2) as i64, ctx.rank() as i64).unwrap();
        for round in 1..=6u64 {
            let s = sub.allreduce_one(round, ReduceOp::Sum);
            assert_eq!(s, 2 * round);
            let t = w.allreduce_one(round, ReduceOp::Sum);
            assert_eq!(t, 4 * round);
        }
    });
}

#[test]
fn crossnode_truncation_reports_structured_shape() {
    // Leaders exchange mismatched payload sizes: the old code died on a bare
    // assert_eq; now it must flow through the abort protocol and come out as
    // the launch's standard failure shape with op and peer context.
    let res = std::panic::catch_unwind(|| {
        pure_core::launch(cfg(2, 1), |ctx| {
            let mut out = vec![0u64; 1 + ctx.rank()];
            let inp = vec![1u64; 1 + ctx.rank()];
            ctx.world().allreduce(&inp, &mut out, ReduceOp::Sum);
        });
    });
    let msg = panic_message(res.expect_err("size mismatch must abort"));
    assert!(msg.contains("pure: rank"), "not the launch shape: {msg}");
    assert!(msg.contains("truncated"), "not a truncation: {msg}");
    assert!(
        msg.contains("leader collective"),
        "missing the failing op: {msg}"
    );
    assert!(msg.contains("peer rank"), "missing peer context: {msg}");
}

#[test]
fn crossnode_timeout_flows_through_abort_protocol() {
    // Rank 1 never joins the collective; rank 0's cross-node wait must time
    // out via the launch deadline and die with the `pure: rank R failed`
    // shape (previously a bare panic that bypassed the abort machinery).
    let res = std::panic::catch_unwind(|| {
        let c = cfg(2, 1).with_deadline(Duration::from_millis(100));
        pure_core::launch(c, |ctx| {
            if ctx.rank() == 0 {
                ctx.world().allreduce_one(1u64, ReduceOp::Sum);
            }
        });
    });
    let msg = panic_message(res.expect_err("deadline must abort the launch"));
    assert!(msg.contains("pure: rank 0"), "wrong failing rank: {msg}");
    assert!(msg.contains("timed out"), "not a timeout: {msg}");
    assert!(
        msg.contains("leader collective"),
        "missing the failing op: {msg}"
    );
    assert!(msg.contains("peer rank 1"), "missing peer context: {msg}");
}
