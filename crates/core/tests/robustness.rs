//! Failure-path tests: rank panics mid-collective, timeouts that fire and
//! recover, the launch-wide progress deadline, and intra-node fault
//! injection (die-at-step, stragglers). The happy paths are covered by
//! `runtime_e2e.rs`; this file is about what happens when things go wrong —
//! above all, that *nothing hangs*.

use std::time::Duration;

use pure_core::prelude::*;

fn cfg(ranks: usize) -> Config {
    let mut c = Config::new(ranks);
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

/// Run `f` on a guard thread and return its panic message. A run still
/// going after 10 s fails this test instead of hanging the suite.
fn panic_within_10s(f: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let _ = tx.send(res.err().map(panic_message));
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("still hung after 10 s")
        .expect("the run must fail")
}

#[test]
fn rank_panic_mid_collective_reports_rank_and_message() {
    let res = std::panic::catch_unwind(|| {
        launch(cfg(3), |ctx| {
            if ctx.rank() == 1 {
                panic!("original failure in rank one");
            }
            // The other ranks sit in a collective that can never complete;
            // the abort flag must unwind them, and the *original* panic —
            // not the echoes — must be what launch re-raises.
            let mut out = [0u64];
            ctx.world().allreduce(&[1u64], &mut out, ReduceOp::Sum);
        });
    });
    let msg = panic_message(res.expect_err("panic must propagate"));
    assert!(msg.contains("rank 1"), "missing failing rank id: {msg}");
    assert!(
        msg.contains("original failure in rank one"),
        "missing original message: {msg}"
    );
    assert!(
        !msg.contains("peer rank failed"),
        "an echo panic displaced the original failure: {msg}"
    );
}

#[test]
fn recv_timeout_fires_and_channel_stays_usable() {
    launch(cfg(2), |ctx| {
        let w = ctx.world();
        // Small (PBQ) message and large (rendezvous) message: the timeout
        // must withdraw the posted receive in both regimes, leaving the
        // channel clean for the real transfer afterwards.
        if ctx.rank() == 0 {
            let mut small = [0u64; 1];
            let err = w
                .recv_timeout(&mut small, 1, 7, Duration::from_millis(30))
                .expect_err("nobody sent: the receive must time out");
            assert!(err.is_timeout(), "wrong error: {err}");
            let msg = err.to_string();
            assert!(msg.contains("recv") && msg.contains("rank 0"), "{msg}");

            let mut large = vec![0u8; 64 * 1024];
            let err = w
                .recv_timeout(&mut large, 1, 8, Duration::from_millis(30))
                .expect_err("rendezvous receive must time out too");
            assert!(err.is_timeout());

            w.barrier();
            w.recv(&mut small, 1, 7);
            assert_eq!(small, [42]);
            w.recv(&mut large, 1, 8);
            assert!(large.iter().all(|&b| b == 0xA5));
        } else {
            // Send only after rank 0's timeouts have fired.
            w.barrier();
            w.send(&[42u64], 0, 7);
            w.send(&vec![0xA5u8; 64 * 1024], 0, 8);
        }
    });
}

#[test]
fn send_timeout_on_a_full_pbq_withdraws_the_message() {
    launch(cfg(2), |ctx| {
        let w = ctx.world();
        let slots = 8; // pbq_slots default, already a power of two
        if ctx.rank() == 0 {
            for i in 0..slots {
                w.send(&[i as u64], 1, 3); // fills the queue, never blocks
            }
            let err = w
                .send_timeout(&[999u64], 1, 3, Duration::from_millis(30))
                .expect_err("queue full, receiver absent: must time out");
            assert!(err.is_timeout(), "wrong error: {err}");
            w.barrier();
        } else {
            w.barrier(); // wait until the timeout has fired
            let mut got = [0u64];
            for i in 0..slots {
                w.recv(&mut got, 0, 3);
                assert_eq!(got, [i as u64]);
            }
            // The timed-out send was withdrawn: nothing else arrives.
            let err = w
                .recv_timeout(&mut got, 0, 3, Duration::from_millis(50))
                .expect_err("the withdrawn message must never be delivered");
            assert!(err.is_timeout());
        }
    });
}

#[test]
fn wait_timeout_withdraws_an_irecv() {
    launch(cfg(2), |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            let mut buf = [0u32; 2];
            let req = w.irecv(&mut buf, 1, 5);
            let err = req
                .wait_timeout(Duration::from_millis(30))
                .expect_err("nobody sent: the request must time out");
            assert!(err.is_timeout());
            w.barrier();
            w.recv(&mut buf, 1, 5);
            assert_eq!(buf, [10, 20]);
        } else {
            w.barrier();
            w.send(&[10u32, 20], 0, 5);
        }
    });
}

/// A request withdrawn by `wait_timeout` moved no message, so the launch
/// report counts none: a 64 KiB `isend` nobody receives and an `irecv`
/// nobody sends to leave every per-rank message counter, and the
/// message-size histogram, at zero.
#[test]
fn withdrawn_requests_count_no_message() {
    let report = launch(cfg(2), |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            let big = vec![7u8; 64 * 1024];
            let err = w
                .isend(&big, 1, 11)
                .wait_timeout(Duration::from_millis(30))
                .expect_err("nobody receives: the isend must be withdrawn");
            assert!(err.is_timeout(), "wrong error: {err}");
            let mut small = [0u64];
            let err = w
                .irecv(&mut small, 1, 12)
                .wait_timeout(Duration::from_millis(30))
                .expect_err("nobody sends: the irecv must be withdrawn");
            assert!(err.is_timeout(), "wrong error: {err}");
        }
        w.barrier();
    });
    for (rank, s) in report.per_rank.iter().enumerate() {
        assert_eq!(
            (s.msgs_sent, s.bytes_sent, s.msgs_recvd),
            (0, 0, 0),
            "rank {rank} counted a withdrawn message"
        );
    }
}

#[test]
fn global_deadline_aborts_a_stuck_launch() {
    let res = std::panic::catch_unwind(|| {
        let c = cfg(2).with_deadline(Duration::from_millis(100));
        launch(c, |ctx| {
            if ctx.rank() == 0 {
                // Blocks forever: rank 1 never sends.
                let mut b = [0u8];
                ctx.world().recv(&mut b, 1, 0);
            } else {
                // Blocks in a collective rank 0 will never join.
                ctx.world().barrier();
            }
        });
    });
    let msg = panic_message(res.expect_err("deadline must abort the launch"));
    assert!(msg.contains("timed out"), "not a timeout report: {msg}");
}

/// A batch wait is a wait like any other: the progress deadline bounds it
/// and its own timeout, not the watchdog, reports it.
#[test]
fn wait_all_honours_the_progress_deadline() {
    let msg = panic_within_10s(|| {
        let c = cfg(2).with_deadline(Duration::from_millis(200));
        launch(c, |ctx| {
            if ctx.rank() == 0 {
                // Rank 1 never sends.
                let mut b = [0u8];
                wait_all(vec![ctx.world().irecv(&mut b, 1, 0)]);
            }
        });
    });
    assert!(msg.contains("timed out"), "not a timeout report: {msg}");
    assert!(
        msg.contains("in wait_all"),
        "the batch wait is not named: {msg}"
    );
    assert!(
        msg.contains("rank 0"),
        "the waiting rank is not named: {msg}"
    );
    assert!(!msg.contains("watchdog"), "the watchdog fired: {msg}");
}

#[test]
fn die_at_step_fault_kills_the_launch_with_context() {
    let res = std::panic::catch_unwind(|| {
        let c = cfg(3).with_rank_faults(RankFaults {
            die_at: Some((2, 3)),
            ..RankFaults::default()
        });
        launch(c, |ctx| {
            for _ in 0..10 {
                ctx.world().barrier();
            }
        });
    });
    let msg = panic_message(res.expect_err("the injected fault must propagate"));
    assert!(msg.contains("injected fault"), "{msg}");
    assert!(msg.contains("rank 2"), "{msg}");
}

#[test]
fn slow_rank_straggler_still_computes_correctly() {
    let c = cfg(3).with_rank_faults(RankFaults {
        slow: Some((1, Duration::from_millis(2))),
        ..RankFaults::default()
    });
    launch(c, |ctx| {
        let w = ctx.world();
        for i in 0..5u64 {
            let s = w.allreduce_one(ctx.rank() as u64 + i, ReduceOp::Sum);
            assert_eq!(s, 3 + 3 * i);
        }
    });
}

#[test]
fn timeout_error_is_structured() {
    launch(cfg(2), |ctx| {
        if ctx.rank() == 0 {
            let mut b = [0u8; 4];
            let err = ctx
                .world()
                .recv_timeout(&mut b, 1, 9, Duration::from_millis(20))
                .expect_err("must time out");
            match &err {
                PureError::Timeout {
                    rank,
                    op,
                    peer,
                    tag,
                    elapsed,
                } => {
                    assert_eq!(*rank, 0);
                    assert_eq!(*op, "recv");
                    assert_eq!(*peer, Some(1));
                    assert_eq!(*tag, Some(9));
                    assert!(*elapsed >= Duration::from_millis(20));
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
        }
        ctx.world().barrier();
    });
}

/// A recv whose own timeout is far off still cannot hang unseen: its wait
/// is stamped at its first probe, and the watchdog names it by op.
#[test]
fn the_watchdog_names_a_hung_recv() {
    let msg = panic_within_10s(|| {
        let c = cfg(2).with_deadline(Duration::from_millis(100));
        launch(c, |ctx| {
            if ctx.rank() == 0 {
                // Rank 1 never sends, and 60 s is far past the watchdog.
                let mut b = [0u8];
                let _ = ctx
                    .world()
                    .recv_timeout(&mut b, 1, 0, Duration::from_secs(60));
            }
        });
    });
    assert!(msg.contains("watchdog"), "the watchdog did not fire: {msg}");
    assert!(
        msg.contains("rank 0"),
        "the waiting rank is not named: {msg}"
    );
    assert!(msg.contains("in recv"), "the hung op is not named: {msg}");
}

/// The deadline clock starts at a wait's first probe, never before the
/// call: `recv_timeout(d)` returns `Timeout` only after `d` of wall time,
/// armed launch or not.
#[test]
fn recv_timeout_never_fires_early() {
    for armed in [false, true] {
        let mut c = cfg(2);
        if armed {
            c = c.with_deadline(Duration::from_secs(20));
        }
        launch(c, |ctx| {
            if ctx.rank() != 0 {
                return;
            }
            for ms in [0, 1, 2, 5, 10, 25] {
                let d = Duration::from_millis(ms);
                let mut b = [0u8];
                let t0 = std::time::Instant::now();
                let err = ctx
                    .world()
                    .recv_timeout(&mut b, 1, 5, d)
                    .expect_err("rank 1 never sends");
                let waited = t0.elapsed();
                assert!(waited >= d, "Timeout after {waited:?} < {d:?}: {err}");
                match err {
                    PureError::Timeout { elapsed, .. } => {
                        assert!(elapsed >= d, "reported {elapsed:?} < {d:?}")
                    }
                    other => panic!("expected a timeout, got {other}"),
                }
            }
        });
    }
}

/// Revoking a communicator kicks a member blocked on it out with
/// `Revoked`, fails every member's next operation on it at entry, and
/// leaves the other communicators working.
#[test]
fn revoke_poisons_its_comm_and_spares_the_others() {
    launch(cfg(2).with_deadline(Duration::from_secs(20)), |ctx| {
        let w = ctx.world();
        let sub = w.split(0, ctx.rank() as i64).expect("both ranks join");
        let peer = 1 - ctx.rank();
        let mut b = [0u8];
        if ctx.rank() == 0 {
            // Rank 1 never sends on `sub`; only the revocation ends this.
            let err = sub
                .recv_timeout(&mut b, peer, 4, Duration::from_secs(10))
                .expect_err("the revocation must end the wait");
            assert!(matches!(err, PureError::Revoked { .. }), "{err}");
        } else {
            std::thread::sleep(Duration::from_millis(20));
            sub.revoke();
        }
        let err = sub
            .recv_timeout(&mut b, peer, 5, Duration::from_secs(10))
            .expect_err("a revoked comm fails at entry");
        assert!(matches!(err, PureError::Revoked { .. }), "{err}");
        w.barrier();
        assert_eq!(w.allreduce_one(1u64, ReduceOp::Sum), 2);
    });
}
