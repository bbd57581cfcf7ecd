//! Model-checking the *real* lock-free structures: PBQ, SPTD, envelope
//! queue, and the scheduler's steal counters, explored under every schedule
//! the bounded-preemption DFS generates (plus a randomized tail for breadth).
//!
//! Run with `cargo test -q -p pure-core --features model --test model_check`.
//! A failure prints a `PURE_MODEL_REPLAY=` command that re-runs the exact
//! interleaving.
#![cfg(feature = "model")]

use std::sync::Arc;

use interleave::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use interleave::{check, thread, Options, Report};

use pure_core::channel::envelope::EnvelopeQueue;
use pure_core::channel::pbq::PureBufferQueue;
use pure_core::collectives::sptd::{reduce_published, Sptd};
use pure_core::collectives::CollArea;
use pure_core::task::scheduler::{NodeScheduler, StealCtx};
use pure_core::util::cache::aligned_chunk_range;
use pure_core::ReduceOp;

fn opts(max_schedules: u64, random_schedules: u64) -> Options {
    Options {
        preemption_bound: 3,
        max_schedules,
        random_schedules,
        ..Options::default()
    }
}

fn assert_clean(report: &Report, floor: u64) {
    if let Some(cex) = &report.failure {
        panic!("{cex}");
    }
    eprintln!(
        "explored {} schedules (exhausted={})",
        report.schedules, report.exhausted
    );
    assert!(
        report.schedules >= floor,
        "only {} schedules explored (floor {floor}) — exploration degraded",
        report.schedules
    );
}

// ---------------------------------------------------------------------------
// PBQ: no lost, duplicated, torn, or reordered messages
// ---------------------------------------------------------------------------

fn pbq_transfer(n_slots: usize, msgs: u8) -> Report {
    check(opts(6_000, 1_500), move || {
        let q = Arc::new(PureBufferQueue::new(n_slots, 8));
        let producer = Arc::clone(&q);
        let t = thread::spawn(move || {
            let mut sent = 0u8;
            while sent < msgs {
                // Distinct payload bytes so duplication/reordering shows up
                // in the received sequence, torn reads in the contents.
                let payload = [sent + 1; 4];
                if producer.try_send(&payload) {
                    sent += 1;
                } else {
                    thread::yield_now();
                }
            }
        });
        let mut got = Vec::new();
        while got.len() < msgs as usize {
            let r = q.try_recv_with(|bytes| {
                assert_eq!(bytes.len(), 4, "torn header");
                assert!(
                    bytes.iter().all(|&b| b == bytes[0]),
                    "torn payload: {bytes:?}"
                );
                bytes[0]
            });
            match r {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        t.join().unwrap();
        let want: Vec<u8> = (1..=msgs).collect();
        assert_eq!(got, want, "lost/duplicated/reordered messages");
        assert!(
            q.try_recv_with(|_| ()).is_none(),
            "phantom message after drain"
        );
    })
}

#[test]
fn pbq_cached_index_transfer_is_sound() {
    // 2 slots, 3 messages: exercises full-queue backpressure and slot reuse
    // (the cached-index fast path from PR 1).
    assert_clean(&pbq_transfer(2, 3), 1_500);
}

#[test]
fn pbq_batched_paths_are_sound() {
    let report = check(opts(6_000, 1_500), || {
        let q = Arc::new(PureBufferQueue::new(2, 8));
        let producer = Arc::clone(&q);
        let t = thread::spawn(move || {
            let batch: [&[u8]; 3] = [&[1, 1], &[2, 2], &[3, 3]];
            let mut sent = 0;
            while sent < batch.len() {
                let n = producer.try_send_batch(batch[sent..].iter().copied());
                if n == 0 {
                    thread::yield_now();
                }
                sent += n;
            }
        });
        let mut got = Vec::new();
        while got.len() < 3 {
            let n = q.try_recv_batch(4, |_, bytes| {
                assert_eq!(bytes.len(), 2, "torn header");
                assert_eq!(bytes[0], bytes[1], "torn payload");
                got.push(bytes[0]);
            });
            if n == 0 {
                thread::yield_now();
            }
        }
        t.join().unwrap();
        assert_eq!(got, vec![1, 2, 3], "batch lost/duplicated/reordered");
    });
    assert_clean(&report, 1_500);
}

// ---------------------------------------------------------------------------
// SPTD: sequence monotonicity and payload visibility across rounds
// ---------------------------------------------------------------------------

#[test]
fn sptd_rounds_publish_uncorrupted_payloads() {
    let report = check(opts(6_000, 1_500), || {
        let d = Arc::new(Sptd::new(16));
        let owner = Arc::clone(&d);
        let t = thread::spawn(move || {
            for r in 1u64..=2 {
                // Round flow control: wait for the reader to finish r-1.
                while owner.done() < r - 1 {
                    thread::yield_now();
                }
                // SAFETY: previous round consumed (done >= r-1).
                unsafe { owner.publish_bytes(&[r as u8; 16], r) };
            }
        });
        let mut last_seq = 0;
        for r in 1u64..=2 {
            loop {
                let s = d.seq();
                assert!(s >= last_seq, "SPTD sequence went backwards");
                last_seq = s;
                if s >= r {
                    break;
                }
                thread::yield_now();
            }
            // SAFETY: observed seq() >= r.
            let bytes = unsafe { d.payload(16) };
            assert!(
                bytes.iter().all(|&b| b == r as u8),
                "round {r} payload torn: {bytes:?}"
            );
            d.set_done(r);
        }
        t.join().unwrap();
    });
    assert_clean(&report, 1_500);
}

// ---------------------------------------------------------------------------
// Partitioned Reducer: members write reduced chunks into each other's output
// ---------------------------------------------------------------------------

/// Elements per member buffer: two cache lines of `u64`, one chunk each.
const PR_LEN: usize = 16;

/// Two members' input and output buffers. The checker cannot see writes
/// through published pointers, so one `RaceZone` per output buffer stands
/// in for it, one location per chunk.
struct ReducerBuffers {
    inputs: [[u64; PR_LEN]; 2],
    outputs: [std::cell::UnsafeCell<[u64; PR_LEN]>; 2],
    zones: [interleave::cell::RaceZone; 2],
}

// SAFETY: outputs are written only through the reducer's round protocol,
// which the zones let the checker verify.
unsafe impl Sync for ReducerBuffers {}

/// One large-reduction round on the real dropboxes and `leader_seq`, as
/// `reduce_large` runs it on one node: member `me` publishes its (input,
/// output), waits for both arrivals, reduces its chunk into both outputs
/// with `reduce_published`, and sets `done`; member 0, the leader, then
/// waits for both backedges and publishes `leader_seq`. A member reads its
/// output after `leader_seq` — or, with `early`, as soon as it is done.
fn reducer_member(me: usize, early: bool, area: &CollArea, bufs: &ReducerBuffers) {
    let input = bufs.inputs[me].as_ptr().cast::<u8>();
    let output = bufs.outputs[me].get().cast::<u8>();
    // SAFETY: first round of a fresh area; both buffers outlive the round.
    unsafe { area.sptd[me].write_buffers(input, output, PR_LEN * 8) };
    area.sptd[me].publish_seq(1);
    while area.sptd[1 - me].seq() < 1 {
        thread::yield_now();
    }
    let range = aligned_chunk_range::<u64>(PR_LEN, me as u32, me as u32 + 1, 2);
    for zone in &bufs.zones {
        zone.write(me);
    }
    // SAFETY: both arrivals observed; chunks are disjoint.
    unsafe { reduce_published::<u64>(&area.sptd, range, ReduceOp::Sum, None) };
    area.sptd[me].set_done(1);
    if me == 0 {
        while area.sptd[0].done() < 1 || area.sptd[1].done() < 1 {
            thread::yield_now();
        }
        area.publish_leader(1);
    }
    if !early {
        while area.leader_seq() < 1 {
            thread::yield_now();
        }
    }
    bufs.zones[me].read(0);
    bufs.zones[me].read(1);
    if !early {
        // SAFETY: leader_seq >= 1 observed: every chunk writer is done.
        let out = unsafe { *bufs.outputs[me].get() };
        let want: Vec<u64> = (0..PR_LEN as u64).map(|i| 101 * i).collect();
        assert_eq!(out[..], want[..], "member {me} read a partial result");
    }
}

fn partitioned_reducer_round(early_reader: bool) -> Report {
    check(opts(6_000, 1_500), move || {
        let area = Arc::new(CollArea::new(2, 64));
        let bufs = Arc::new(ReducerBuffers {
            inputs: [
                std::array::from_fn(|i| i as u64),
                std::array::from_fn(|i| 100 * i as u64),
            ],
            outputs: Default::default(),
            zones: [
                interleave::cell::RaceZone::new(2),
                interleave::cell::RaceZone::new(2),
            ],
        });
        let (a, b) = (Arc::clone(&area), Arc::clone(&bufs));
        let t = thread::spawn(move || reducer_member(1, early_reader, &a, &b));
        reducer_member(0, false, &area, &bufs);
        t.join().unwrap();
    })
}

#[test]
fn partitioned_reducer_writes_outputs_before_leader_seq() {
    assert_clean(&partitioned_reducer_round(false), 1_500);
}

#[test]
fn reading_output_before_leader_seq_is_caught() {
    let report = partitioned_reducer_round(true);
    let cex = report
        .failure
        .expect("a member reading its output before leader_seq must be caught");
    assert!(
        cex.message.contains("race"),
        "expected a data-race report, got: {}",
        cex.message
    );
}

// ---------------------------------------------------------------------------
// Shrink-then-bcast handoff: stale parent rounds must not leak into the child
// ---------------------------------------------------------------------------

/// The ULFM shrink-to-bcast handoff on the real [`CollArea`]: the parent
/// communicator died mid-round-7 — the leader re-broadcast publish
/// (`bcast_seq.store(7)`) may land arbitrarily late, even after the
/// survivors have shrunk and started round 1 on the child comm. Because
/// `wait_bcast_seq` is a monotone `>=` wait, a stale seq-7 store *would*
/// satisfy the child's round-1 wait before the new leader wrote the payload
/// — if the two rounds shared an area. The runtime's fence is structural:
/// `shrink()` derives a fresh comm id, which keys a fresh `CollArea` (with
/// `bcast_seq = 0`) in the per-node registry. This case interleaves the
/// laggard publish with the child's whole round and asserts that on every
/// schedule the round-1 observer reads the child leader's payload, never
/// the parent's stale bytes.
#[test]
fn shrink_bcast_handoff_never_observes_stale_parent_round() {
    let report = check(opts(6_000, 1_500), || {
        let parent = Arc::new(CollArea::new(2, 64));
        let child = Arc::new(CollArea::new(2, 64));

        // Laggard: the parent's round-7 re-broadcast, delayed past the
        // shrink (the dying round's leader got preempted mid-publish).
        let p = Arc::clone(&parent);
        let laggard = thread::spawn(move || {
            // SAFETY: sole writer of the parent buffer in this model.
            unsafe {
                p.bcast_buf.ensure(8);
                p.bcast_buf.as_mut_slice::<u8>(8).fill(0xAA);
            }
            p.bcast_seq.store(7, Ordering::Release);
        });

        // Child leader: round 1 on the shrunk comm's fresh area.
        let c = Arc::clone(&child);
        let leader = thread::spawn(move || {
            // SAFETY: sole writer of the child buffer; the member reads
            // only after acquiring bcast_seq >= 1.
            unsafe {
                c.bcast_buf.ensure(8);
                c.bcast_buf.as_mut_slice::<u8>(8).fill(0x55);
            }
            c.bcast_seq.store(1, Ordering::Release);
        });

        // Member: its round-7 wait unwound with `PeerDead`, it shrank, and
        // now waits for the child's round 1 exactly as `wait_bcast_seq(1)`
        // does (monotone acquire on the *child's* sequence).
        while child.bcast_seq.load(Ordering::Acquire) < 1 {
            thread::yield_now();
        }
        // SAFETY: observed child bcast_seq >= 1.
        let bytes = unsafe { child.bcast_buf.as_slice::<u8>(8) };
        assert!(
            bytes.iter().all(|&b| b == 0x55),
            "round-1 observer on the shrunk comm read the parent's stale \
             round-7 payload: {bytes:?}"
        );
        laggard.join().unwrap();
        leader.join().unwrap();
        // The stale publish landed on the parent area only — the child's
        // sequence never jumps past its own round, so a *later* child round
        // r+1 cannot be satisfied early by parent traffic either.
        assert_eq!(parent.bcast_seq.load(Ordering::Acquire), 7);
        assert_eq!(child.bcast_seq.load(Ordering::Acquire), 1);
    });
    assert_clean(&report, 1_500);
}

// ---------------------------------------------------------------------------
// Envelope queue: single-copy rendezvous, and the cancel/fill CAS race
// ---------------------------------------------------------------------------

#[test]
fn envelope_rendezvous_delivers_exact_bytes() {
    let report = check(opts(6_000, 1_500), || {
        let q = Arc::new(EnvelopeQueue::new(2));
        let sender = Arc::clone(&q);
        let t = thread::spawn(move || {
            while !sender.try_fill(&[7, 8, 9]) {
                thread::yield_now();
            }
        });
        let mut buf = [0u8; 8];
        // SAFETY: buf outlives the rendezvous; we consume before returning.
        let ticket = unsafe { q.try_post(buf.as_mut_ptr(), buf.len()) }.expect("empty queue");
        let len = loop {
            match q.try_consume(ticket) {
                Some(len) => break len,
                None => thread::yield_now(),
            }
        };
        t.join().unwrap();
        assert_eq!(len, 3);
        assert_eq!(&buf[..3], &[7, 8, 9], "single-copy payload corrupted");
    });
    assert_clean(&report, 1_500);
}

#[test]
fn envelope_cancel_and_fill_race_exactly_one_winner() {
    let report = check(opts(8_000, 1_500), || {
        let q = Arc::new(EnvelopeQueue::new(2));
        let cancelled = Arc::new(AtomicBool::new(false));
        let mut buf = [0u8; 8];
        // SAFETY: buf outlives the slot: either we cancel it back or we
        // consume the fill before returning.
        let ticket = unsafe { q.try_post(buf.as_mut_ptr(), buf.len()) }.expect("empty queue");

        let sender_q = Arc::clone(&q);
        let sender_saw_cancel = Arc::clone(&cancelled);
        let t = thread::spawn(move || loop {
            if sender_q.try_fill(&[5, 5]) {
                break true; // sender won the CAS race
            }
            if sender_saw_cancel.load(Ordering::Acquire) {
                break false; // receiver reclaimed the slot first
            }
            thread::yield_now();
        });

        let cancel_won = q.try_cancel(ticket);
        cancelled.store(true, Ordering::Release);
        if !cancel_won {
            // Sender claimed (or already filled) the slot: the receive MUST
            // complete normally with the sender's payload.
            let len = loop {
                match q.try_consume(ticket) {
                    Some(len) => break len,
                    None => thread::yield_now(),
                }
            };
            assert_eq!(len, 2);
            assert_eq!(&buf[..2], &[5, 5], "payload lost after failed cancel");
        }
        let fill_won = t.join().unwrap();
        assert!(
            cancel_won ^ fill_won,
            "cancel/fill race must have exactly one winner \
             (cancel_won={cancel_won}, fill_won={fill_won})"
        );
        if cancel_won {
            assert_eq!(buf, [0u8; 8], "sender wrote into a cancelled buffer");
        }
    });
    assert_clean(&report, 1_500);
}

// ---------------------------------------------------------------------------
// Scheduler: every chunk runs exactly once, counters account for all chunks
// ---------------------------------------------------------------------------

struct ChunkCounts([AtomicU32; 4]);

unsafe fn count_chunk(data: *const (), s: u32, e: u32, _total: u32, _extra: *const ()) {
    let counts = unsafe { &*(data as *const ChunkCounts) };
    for c in s..e {
        counts.0[c as usize].fetch_add(1, Ordering::AcqRel);
    }
}

#[test]
fn scheduler_chunks_run_exactly_once_under_stealing() {
    let report = check(opts(8_000, 1_500), || {
        let sched = Arc::new(NodeScheduler::new(2, 1));
        let counts = Arc::new(ChunkCounts([
            AtomicU32::new(0),
            AtomicU32::new(0),
            AtomicU32::new(0),
            AtomicU32::new(0),
        ]));

        let thief_sched = Arc::clone(&sched);
        let t = thread::spawn(move || {
            let mut ctx = StealCtx::new(1, 7);
            // A few bounded attempts: the owner finishes unclaimed chunks
            // itself, so the thief never needs to succeed.
            for _ in 0..3 {
                thief_sched.try_steal_once(&mut ctx);
            }
            ctx.chunks_stolen
        });

        let mut ctx = StealCtx::new(0, 3);
        // SAFETY: count_chunk tolerates concurrent disjoint ranges; counts
        // lives until join below, and execute_raw does not return with
        // chunks outstanding.
        unsafe {
            sched.execute_raw(
                &mut ctx,
                3,
                count_chunk,
                Arc::as_ptr(&counts) as *const (),
                std::ptr::null(),
            );
        }
        let stolen = t.join().unwrap();
        for (i, c) in counts.0.iter().take(3).enumerate() {
            assert_eq!(
                c.load(Ordering::Acquire),
                1,
                "chunk {i} ran a wrong number of times"
            );
        }
        assert_eq!(counts.0[3].load(Ordering::Acquire), 0, "phantom chunk ran");
        assert_eq!(
            ctx.chunks_owned + stolen,
            3,
            "owned+stolen chunk accounting does not cover the task"
        );
    });
    assert_clean(&report, 1_500);
}

// ---------------------------------------------------------------------------
// Revocation: a waiter on a revoked communicator always unwinds
// ---------------------------------------------------------------------------

/// `PureComm::revoke` against a rank blocked on that communicator, on the
/// real `ssw_loop`. The revoker sets the comm's flag with a `Release` store,
/// as `revoke` does. The waiter first makes the fail-fast check of
/// `op_enter`, then blocks on a message the dead peer never sends, loading
/// the flag with `Acquire` at every probe, as `wait_probe` does. On every
/// schedule the waiter returns `Revoked`: it neither hangs nor misses the
/// flag, whichever side of its entry check the store lands on.
#[test]
fn revoke_vs_wait_always_unwinds_the_waiter() {
    use pure_core::task::ssw::{ssw_loop, WaitInterrupt};
    use std::cell::RefCell;

    const COMM: u64 = 0xC0;
    let report = check(opts(4_000, 1_000), || {
        let sched = NodeScheduler::new(2, 4);
        let revoked = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&revoked);
        let revoker = thread::spawn(move || flag.store(true, Ordering::Release));

        let probe = || {
            revoked
                .load(Ordering::Acquire)
                .then_some(WaitInterrupt::Revoked { comm: COMM })
        };
        let got = match probe() {
            Some(at_entry) => Err(at_entry),
            None => {
                let steal = RefCell::new(StealCtx::new(0, 1));
                ssw_loop(&sched, &steal, None, probe, || None::<()>)
            }
        };
        revoker.join().unwrap();
        assert_eq!(got, Err(WaitInterrupt::Revoked { comm: COMM }));
    });
    assert_clean(&report, 50);
}

// ---------------------------------------------------------------------------
// Coalescing: the progress-engine flush / dispatch handoff loses nothing
// ---------------------------------------------------------------------------

/// The cross-node coalescing handoff, modeled end to end: a sender packs
/// small tagged subframes into a `CoalesceBuf` and flushes jumbo frames at
/// the count watermark (plus the final age-style flush for the remainder),
/// each jumbo crossing to the dispatch side over a real PBQ (the wire
/// stand-in); the dispatcher unpacks every jumbo and scatters subframes in
/// arrival order. Under every explored schedule, the receiver must observe
/// exactly the sent `(tag, payload)` sequence — no subframe lost, duplicated,
/// torn, or reordered across flush boundaries.
#[test]
fn coalesce_flush_dispatch_handoff_is_exact_once_in_order() {
    use netsim::coalesce::{unpack_subframes, CoalesceBuf, JUMBO_HEADROOM};
    use netsim::{CoalescePlan, FramePool};

    const SUBFRAMES: u8 = 5;
    let report = check(opts(6_000, 1_500), || {
        let wire = Arc::new(PureBufferQueue::new(2, 48));
        let tx = Arc::clone(&wire);
        let t = thread::spawn(move || {
            let plan = CoalescePlan {
                max_frames: 2,
                ..CoalescePlan::default()
            };
            // The pool's refcounts are std atomics (outside the interleave
            // facade), like the telemetry counters below: slab recycling is
            // netsim-tested, what's explored here is the handoff schedule.
            let pool = FramePool::new();
            let mut buf = CoalesceBuf::default();
            let flush = |buf: &mut CoalesceBuf| {
                // Fault-free emission: freeze and strip the seq headroom,
                // exactly as the progress engine does before send_frame.
                let jumbo = buf
                    .take()
                    .expect("flush of empty buffer")
                    .freeze()
                    .slice_from(JUMBO_HEADROOM);
                while !tx.try_send(&jumbo) {
                    thread::yield_now();
                }
            };
            for i in 0..SUBFRAMES {
                buf.push(&pool, 100 + i as u64, &[], &[i + 1; 3], 0);
                if buf.due(&plan, 0) {
                    flush(&mut buf);
                }
            }
            // The progress engine's age-watermark flush of a partial buffer.
            if buf.frames > 0 {
                flush(&mut buf);
            }
        });
        let mut got: Vec<(u64, u8)> = Vec::new();
        while got.len() < SUBFRAMES as usize {
            let subs = wire.try_recv_with(|jumbo| {
                unpack_subframes(jumbo)
                    .map(|(tag, p)| {
                        assert_eq!(p.len(), 3, "torn subframe header");
                        assert!(p.iter().all(|&b| b == p[0]), "torn subframe: {p:?}");
                        (tag, p[0])
                    })
                    .collect::<Vec<_>>()
            });
            match subs {
                Some(subs) => got.extend(subs),
                None => thread::yield_now(),
            }
        }
        t.join().unwrap();
        let want: Vec<(u64, u8)> = (0..SUBFRAMES).map(|i| (100 + i as u64, i + 1)).collect();
        assert_eq!(got, want, "handoff lost/duplicated/reordered subframes");
        assert!(
            wire.try_recv_with(|_| ()).is_none(),
            "phantom jumbo after drain"
        );
    });
    assert_clean(&report, 1_500);
}

// ---------------------------------------------------------------------------
// Telemetry: counters must not perturb the protocols or add races
// ---------------------------------------------------------------------------

/// The PBQ transfer with telemetry counter blocks installed on both model
/// threads. The counters use plain `std` relaxed atomics (deliberately
/// outside the interleave facade), so this asserts two things at once: the
/// RaceZone stays clean (no new races on the instrumented hot paths), and
/// the explored schedule count matches the uninstrumented floor (the bumps
/// add no preemption points, so the state space does not grow).
#[test]
fn telemetry_counters_add_no_races_to_pbq_transfer() {
    use pure_core::telemetry::{Counter, RankCounters};

    let report = check(opts(6_000, 1_500), || {
        let q = Arc::new(PureBufferQueue::new(2, 8));
        let counters = Arc::new((RankCounters::default(), RankCounters::default()));
        let producer = Arc::clone(&q);
        let prod_counters = Arc::clone(&counters);
        let t = thread::spawn(move || {
            let _g = prod_counters.0.install();
            let mut sent = 0u8;
            while sent < 3 {
                if producer.try_send(&[sent + 1; 4]) {
                    sent += 1;
                } else {
                    thread::yield_now();
                }
            }
        });
        let _g = counters.1.install();
        let mut got = Vec::new();
        while got.len() < 3 {
            match q.try_recv_with(|bytes| bytes[0]) {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        t.join().unwrap();
        assert_eq!(got, vec![1, 2, 3], "lost/duplicated/reordered messages");
        // The side-band accounting must agree with the protocol outcome on
        // every explored schedule.
        assert_eq!(counters.0.get(Counter::PbqEnq), 3, "producer enq count");
        assert_eq!(counters.1.get(Counter::PbqDeq), 3, "consumer deq count");
        assert_eq!(counters.0.get(Counter::PbqDeq), 0, "cross-thread leak");
        assert_eq!(counters.1.get(Counter::PbqEnq), 0, "cross-thread leak");
    });
    assert_clean(&report, 1_500);
}

// ---------------------------------------------------------------------------
// Failure detector: suspicion vs late frame (the epoch fence)
// ---------------------------------------------------------------------------

/// The suspicion-vs-late-frame race, driven through the real
/// [`netsim::PeerHealth`] state machine under the transport's locking
/// discipline (health is a leaf lock; the cluster dead-count atomic is the
/// lock-free fast path). One thread is the detector condemning a silent
/// peer; the other drains a frame the peer sent before dying, stamped with
/// its pre-death epoch. The invariant: on every schedule, the frame is
/// either linearized *before* the condemnation or fenced by the epoch —
/// a frame arriving after the peer was declared dead is never dispatched.
#[test]
fn detector_epoch_fence_never_dispatches_post_condemnation() {
    use netsim::{DetectPlan, PeerHealth};

    /// Health state shared under the model spinlock (mirrors the
    /// transport's `health` mutex).
    struct Guarded(std::cell::UnsafeCell<PeerHealth>);
    // SAFETY: accessed only inside `with_lock` critical sections below.
    unsafe impl Sync for Guarded {}
    unsafe impl Send for Guarded {}

    fn with_lock<T>(l: &AtomicBool, f: impl FnOnce() -> T) -> T {
        while l
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            thread::yield_now();
        }
        let r = f();
        l.store(false, Ordering::Release);
        r
    }

    let report = check(opts(4_000, 1_000), || {
        let plan = DetectPlan::default();
        let lock = Arc::new(AtomicBool::new(false));
        let dead_count = Arc::new(AtomicU32::new(0));
        let seq = Arc::new(AtomicU32::new(0));
        let health = Arc::new(Guarded(std::cell::UnsafeCell::new(PeerHealth::new(0))));

        // Detector: the peer has been silent far past the threshold.
        let (l, d, s, h) = (
            Arc::clone(&lock),
            Arc::clone(&dead_count),
            Arc::clone(&seq),
            Arc::clone(&health),
        );
        let detector = thread::spawn(move || {
            with_lock(&l, || {
                // SAFETY: under the spinlock.
                let hs = unsafe { &mut *h.0.get() };
                assert!(
                    hs.condemn(1_000_000_000, &plan),
                    "a peer silent for 1 s must be condemned"
                );
                let at = s.fetch_add(1, Ordering::AcqRel) + 1;
                d.store(1, Ordering::Release);
                at
            })
        });

        // Drain: a frame the peer sent in epoch 0 arrives late. The fence
        // decision and its linearization stamp happen inside the same
        // critical section, exactly as `drain_inbox` consults the dead
        // table before dispatching into the match store.
        let dispatched = with_lock(&lock, || {
            // SAFETY: under the spinlock.
            let hs = unsafe { &*health.0.get() };
            let fenced = dead_count.load(Ordering::Acquire) > 0 || !hs.admit(0);
            if fenced {
                None
            } else {
                Some(seq.fetch_add(1, Ordering::AcqRel) + 1)
            }
        });

        let condemn_at = detector.join().unwrap();
        if let Some(dispatch_at) = dispatched {
            assert!(
                dispatch_at < condemn_at,
                "stale frame dispatched after the peer was declared dead \
                 (dispatch seq {dispatch_at}, condemnation seq {condemn_at})"
            );
        }
        // Post-condemnation state machine: the epoch is fenced for good,
        // and posthumous liveness evidence signals a false suspect once.
        // SAFETY: both threads joined; exclusive access.
        let hs = unsafe { &mut *health.0.get() };
        assert!(hs.dead && hs.epoch == 1, "condemnation must fence epoch 0");
        assert!(!hs.admit(0), "old-epoch frames stay fenced forever");
        assert!(
            hs.saw_alive(2_000_000_000),
            "first posthumous frame signals"
        );
        assert!(
            !hs.saw_alive(2_000_000_001),
            "the signal fires exactly once"
        );
    });
    assert_clean(&report, 50);
}
