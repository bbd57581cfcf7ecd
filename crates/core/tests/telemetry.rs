//! Integration tests for the telemetry layer (counters, tracer, Chrome
//! export) across the public API: snapshot consistency under concurrent
//! increments, ring overwrite-oldest semantics, a golden-shape check of the
//! Chrome-trace JSON, and end-to-end nonzero counters from real launches.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pure_core::prelude::*;
use pure_core::telemetry::{EventKind, RankCounters, Tracer};
use pure_core::util::json::Json;

// ---------------------------------------------------------------------------
// Counter registry
// ---------------------------------------------------------------------------

/// Concurrent bumps vs. snapshots: every snapshot must be monotone in time
/// and never exceed the number of increments issued so far (no phantom
/// counts), and the final snapshot must be exact.
#[test]
fn snapshot_is_consistent_under_concurrent_increments() {
    const PER_THREAD: u64 = 50_000;
    const THREADS: usize = 4;
    let block = Arc::new(RankCounters::default());
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..THREADS)
        .map(|_| {
            let block = Arc::clone(&block);
            std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    block.bump(Counter::PbqEnq);
                }
            })
        })
        .collect();

    let reader = {
        let block = Arc::clone(&block);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = 0u64;
            let mut samples = 0u64;
            // Sample before the first `stop` check: the writers may all
            // finish before this thread is first scheduled.
            loop {
                let v = block.snapshot().get(Counter::PbqEnq);
                assert!(v >= last, "snapshot went backwards: {v} < {last}");
                assert!(v <= PER_THREAD * THREADS as u64, "phantom counts: {v}");
                last = v;
                samples += 1;
                if stop.load(Ordering::Acquire) {
                    break samples;
                }
            }
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    let samples = reader.join().unwrap();
    assert!(samples > 0, "reader never sampled");
    assert_eq!(
        block.snapshot().get(Counter::PbqEnq),
        PER_THREAD * THREADS as u64,
        "final snapshot must be exact"
    );
}

/// Counter names are stable and exposed for report consumers.
#[test]
fn counter_catalogue_is_exposed() {
    let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
    for expect in [
        "pbq_enq",
        "pbq_deq",
        "pbq_full_stall",
        "pbq_index_refresh",
        "env_post",
        "env_claim",
        "env_cancel",
        "env_consume",
        "sptd_round",
        "sptd_leader_combine",
        "ssw_spin",
        "ssw_yield",
        "steal_attempt",
        "steal",
    ] {
        assert!(names.contains(&expect), "missing counter {expect}");
    }
}

// ---------------------------------------------------------------------------
// Ring tracer
// ---------------------------------------------------------------------------

/// Overwrite-oldest: a full ring keeps the newest `capacity` events, reports
/// the eviction count, and returns survivors in recording order.
#[test]
fn ring_tracer_overwrites_oldest() {
    let mut t = Tracer::new(8, Instant::now());
    for i in 0..20u64 {
        // Span starts strictly increase with i, so survivor order is
        // checkable after the wrap.
        t.span_end("e", i * 1_000);
    }
    assert_eq!(t.len(), 8);
    assert_eq!(t.total_recorded(), 20);
    assert_eq!(t.dropped(), 12);
    let evs = t.events_in_order();
    let starts: Vec<u64> = evs.iter().map(|e| e.ts_ns).collect();
    let expect: Vec<u64> = (12..20u64).map(|i| i * 1_000).collect();
    assert_eq!(starts, expect, "survivors must be the newest, oldest-first");
}

/// A tracer below its capacity keeps everything and drops nothing.
#[test]
fn ring_tracer_keeps_all_until_full() {
    let mut t = Tracer::new(64, Instant::now());
    for _ in 0..10 {
        t.instant("tick");
    }
    assert_eq!(t.len(), 10);
    assert_eq!(t.dropped(), 0);
}

// ---------------------------------------------------------------------------
// Chrome trace export (golden shape)
// ---------------------------------------------------------------------------

fn launch_traced(ranks: usize) -> RuntimeStats {
    let cfg = Config::new(ranks).with_trace(4096);
    let report = pure_core::launch(cfg, |ctx| {
        let rank = ctx.rank();
        let world = ctx.world();
        // Point-to-point ring so every rank records send + recv spans. The
        // payload fits a PBQ slot, so the blocking send returns immediately
        // and the ring cannot deadlock.
        let next = (rank + 1) % ctx.nranks();
        let prev = (rank + ctx.nranks() - 1) % ctx.nranks();
        world.send(&[rank as u64; 4], next, 7);
        let mut buf = [0u64; 4];
        world.recv(&mut buf, prev, 7);
        assert_eq!(buf, [prev as u64; 4]);
        // A collective and a stealable task for the other span families.
        let mut out = [0u64];
        world.allreduce(&[rank as u64], &mut out, ReduceOp::Sum);
        ctx.execute_task(16, |_chunk| {
            std::hint::black_box((0..100u64).sum::<u64>());
        });
    });
    report.stats
}

/// The exported JSON is well-formed, declares a `traceEvents` array of only
/// `"X"`/`"i"`/`"M"` phases, and each tid's span start times are monotone
/// (events are exported in recording order per rank).
#[test]
fn chrome_trace_json_is_valid_and_monotone_per_tid() {
    let stats = launch_traced(4);
    assert!(
        stats.trace.iter().any(|t| !t.is_empty()),
        "tracing produced no events"
    );
    let json = stats.chrome_trace();
    let doc = Json::parse(&json).expect("exporter must emit valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut last_ts: std::collections::HashMap<i64, f64> = std::collections::HashMap::new();
    let mut phases_seen = std::collections::HashSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        phases_seen.insert(ph.to_string());
        assert!(
            matches!(ph, "X" | "i" | "M"),
            "unexpected phase {ph:?} in export"
        );
        if ph == "M" {
            continue; // metadata events carry no ts
        }
        let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as i64;
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        assert!(ts >= 0.0);
        if let Some(&prev) = last_ts.get(&tid) {
            assert!(
                ts >= prev,
                "tid {tid}: ts went backwards ({ts} after {prev})"
            );
        }
        last_ts.insert(tid, ts);
        if ph == "X" {
            let dur = ev.get("dur").and_then(Json::as_f64).expect("dur");
            assert!(dur >= 0.0);
        }
        assert!(ev.get("name").and_then(Json::as_str).is_some());
    }
    assert!(phases_seen.contains("X"), "no span events exported");
}

/// The per-rank streams include the send/recv/task span families the
/// acceptance criteria name.
#[test]
fn traced_run_contains_expected_span_names() {
    let stats = launch_traced(4);
    let all_names: std::collections::HashSet<&str> =
        stats.trace.iter().flatten().map(|e| e.name).collect();
    for expect in ["send", "recv", "allreduce", "task"] {
        assert!(all_names.contains(expect), "no {expect:?} span recorded");
    }
    // Spans carry the Span kind.
    assert!(stats
        .trace
        .iter()
        .flatten()
        .any(|e| e.kind == EventKind::Span));
}

// ---------------------------------------------------------------------------
// LaunchReport::stats end-to-end
// ---------------------------------------------------------------------------

/// A 4-rank run exposes nonzero PBQ, rendezvous, collective, and SSW
/// counters through `LaunchReport::stats` (the acceptance criterion).
#[test]
fn four_rank_launch_reports_nonzero_counters() {
    let mut cfg = Config::new(4);
    cfg.spin_budget = 2; // force yields so SswYield is exercised too
    let report = pure_core::launch(cfg, |ctx| {
        let rank = ctx.rank();
        let world = ctx.world();
        // Small messages → PBQ path.
        if rank == 0 {
            for _ in 0..32 {
                world.send(&[1u64; 8], 1, 0);
            }
        } else if rank == 1 {
            let mut buf = [0u64; 8];
            for _ in 0..32 {
                world.recv(&mut buf, 0, 0);
            }
        }
        // Large message → rendezvous path (above the 8 KiB default).
        let big = vec![rank as u8; 16 * 1024];
        if rank == 2 {
            world.send(&big, 3, 1);
        } else if rank == 3 {
            let mut buf = vec![0u8; 16 * 1024];
            world.recv(&mut buf, 2, 1);
            assert!(buf.iter().all(|&b| b == 2));
        }
        // Collectives for the SPTD counters.
        let mut out = [0u64];
        world.allreduce(&[rank as u64], &mut out, ReduceOp::Sum);
        world.barrier();
    });
    let s = &report.stats;
    assert_eq!(s.per_rank.len(), 4);
    // Messages enter the PBQ either one-by-one (fast path) or through the
    // pending-queue batch drain; both paths together must account for all.
    let enq = s.total(Counter::PbqEnq) + s.total(Counter::PbqSendBatchMsgs);
    let deq = s.total(Counter::PbqDeq) + s.total(Counter::PbqRecvBatchMsgs);
    assert!(enq >= 32, "pbq enq undercounted: {enq}");
    assert!(deq >= 32, "pbq deq undercounted: {deq}");
    assert!(s.total(Counter::EnvPost) >= 1, "no rendezvous post counted");
    assert!(
        s.total(Counter::EnvClaim) >= 1,
        "no rendezvous fill counted"
    );
    assert!(
        s.total(Counter::EnvConsume) >= 1,
        "no rendezvous consume counted"
    );
    assert!(
        s.total(Counter::SptdRound) >= 8,
        "collective rounds missing"
    );
    assert!(
        s.total(Counter::SswSpin) + s.total(Counter::SswYield) > 0,
        "SSW wait counters all zero"
    );
    // Single node: the interconnect stays silent.
    assert_eq!(s.net_frames, 0);
    // Tracing was off: no event streams.
    assert!(s.trace.iter().all(|t| t.is_empty()));
    // The human-readable summary renders and mentions a PBQ counter.
    assert!(s.summary().contains("pbq_enq"));
}

/// `Config::telemetry = false` leaves every counter zero: the runtime's one
/// telemetry off switch.
#[test]
fn telemetry_opt_out_reports_all_zero() {
    let cfg = Config::new(2).with_telemetry(false);
    let report = pure_core::launch(cfg, |ctx| {
        let world = ctx.world();
        if ctx.rank() == 0 {
            world.send(&[9u64], 1, 0);
        } else {
            let mut b = [0u64];
            world.recv(&mut b, 0, 0);
        }
        world.barrier();
    });
    let s = &report.stats;
    for c in Counter::ALL {
        assert_eq!(s.total(c), 0, "counter {} leaked through opt-out", c.name());
    }
}

/// The leader-combine counter attributes flat-combining folds to leaders
/// only, and the ratio helper computes totals across ranks.
#[test]
fn leader_combines_are_attributed_and_ratios_work() {
    let report = pure_core::launch(Config::new(4), |ctx| {
        let mut out = [0u64];
        ctx.world()
            .allreduce(&[ctx.rank() as u64], &mut out, ReduceOp::Sum);
        assert_eq!(out[0], 6);
    });
    let s = &report.stats;
    // One allreduce over 4 ranks on one node: the leader folds 3 payloads.
    assert_eq!(s.total(Counter::SptdLeaderCombine), 3);
    assert_eq!(s.per_rank[0].get(Counter::SptdLeaderCombine), 3);
    for r in 1..4 {
        assert_eq!(s.per_rank[r].get(Counter::SptdLeaderCombine), 0);
    }
    let ratio = s.ratio(Counter::SptdLeaderCombine, Counter::SptdRound);
    assert!(ratio > 0.0 && ratio < 1.0, "ratio {ratio} out of range");
    // Zero denominator is defined as 0, not NaN.
    assert_eq!(s.ratio(Counter::Steal, Counter::EnvCancel), 0.0);
}
