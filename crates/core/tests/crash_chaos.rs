//! Crash-stop chaos: a random rank is killed at a seeded operation index
//! (its node's endpoint goes silent first — no farewell frames, no ACKs)
//! and every survivor must unwind with a structured verdict from the
//! failure detector — `PeerDead` (or `Revoked` under the ULFM-style
//! policy), **never** the watchdog, never a hang.
//!
//! The default run sweeps a couple of seeds; set
//! `PURE_CHAOS_CRASH=1` (the CI chaos profile) to widen the sweep to 8
//! seeds, and `PURE_CHAOS_SEEDS=<n>` to widen it further. A failing seed
//! reports its replay parameters in the panic message.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use netsim::{DetectPlan, FaultPlan, NetConfig};
use pure_core::prelude::*;
use pure_core::PureError;

/// SplitMix64 finalizer: the same deterministic seed→parameter map the
/// fault plans use, so one seed fully describes a run.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn crash_profile_armed() -> bool {
    std::env::var("PURE_CHAOS_CRASH").is_ok_and(|v| v == "1")
}

/// Raw backend under the crashing cluster: `PURE_CHAOS_TCP=1` (the CI chaos
/// matrix) pins real TCP loopback sockets — a condemned peer's socket really
/// goes quiet — otherwise `PURE_BACKEND` decides (default: simulated fabric).
fn chaos_backend() -> Backend {
    if std::env::var("PURE_CHAOS_TCP").is_ok_and(|v| v == "1") {
        Backend::Tcp
    } else {
        Backend::from_env()
    }
}

fn seed_count() -> u64 {
    if let Ok(n) = std::env::var("PURE_CHAOS_SEEDS") {
        if let Ok(n) = n.parse() {
            return n;
        }
    }
    if crash_profile_armed() {
        8
    } else {
        2
    }
}

/// Pooled-buffer oracle under crash-stop: even when a rank vanishes with
/// frames parked in its peers' retransmit queues (and its own inboxes die
/// unread), teardown must return every slab to the pools exactly once —
/// `gc_dead_peer` plus the runtime's finalize purge account for all of it.
fn assert_pool_balanced(stats: &RuntimeStats) {
    assert_eq!(
        stats.pool_hits + stats.pool_misses,
        stats.pool_recycled + stats.pool_freed,
        "slab pool unbalanced at finalize (leaked or double-freed slab): \
         {} hits + {} misses vs {} recycled + {} freed",
        stats.pool_hits,
        stats.pool_misses,
        stats.pool_recycled,
        stats.pool_freed,
    );
}

/// The panic payload re-raised by `launch`, as a formatted string.
fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

/// Tentpole acceptance sweep: any single rank crash at any seeded point →
/// every survivor unwinds with a structured `PeerDead` verdict, across the
/// seed sweep. The watchdog (a `Timeout` labelled "watchdog") firing
/// instead means bounded-unwind is broken.
#[test]
fn single_crash_unwinds_survivors_with_peer_dead() {
    const RANKS: usize = 4;
    for seed in 0..seed_count() {
        let victim = (mix64(seed ^ 0xDEAD_C0DE) % RANKS as u64) as usize;
        let at = 1 + mix64(seed ^ 0x0DD_B10C) % 16;
        let mut cfg = Config::new(RANKS)
            .with_ranks_per_node(1)
            .with_rank_faults(RankFaults {
                crash_at: Some((victim, at)),
                ..RankFaults::default()
            })
            // Safety net only: the assertion below proves it never fires.
            .with_deadline(Duration::from_secs(20));
        cfg.spin_budget = 16;
        cfg.net = NetConfig::default()
            .with_backend(chaos_backend())
            .with_detection(DetectPlan::aggressive());
        let res = catch_unwind(AssertUnwindSafe(|| {
            launch(cfg, |ctx| {
                let w = ctx.world();
                let me = ctx.rank();
                for round in 0..4000u64 {
                    let mut got = [0u64; 2];
                    w.sendrecv(
                        &[round, me as u64],
                        (me + 1) % RANKS,
                        &mut got,
                        (me + RANKS - 1) % RANKS,
                        3,
                    );
                    assert_eq!(got[0], round);
                    let s = w.allreduce_one(1u64, ReduceOp::Sum);
                    assert_eq!(s, RANKS as u64);
                }
            })
        }));
        let msg = panic_message(res.expect_err(&format!(
            "seed {seed}: launch completed despite rank {victim} crashing at op {at}"
        )));
        assert!(
            msg.contains("declared dead"),
            "seed {seed} victim {victim} at op {at}: survivors must unwind \
             with the detector's verdict, got: {msg}"
        );
        assert!(
            !msg.contains("watchdog"),
            "seed {seed}: the watchdog fired — bounded unwind is broken: {msg}"
        );
    }
}

/// Collective-path crash sweep: a rank dies *mid-collective* (the victim's
/// crash op lands inside a loop of allreduce/bcast/barrier, covering the
/// flat-combining small path, the partitioned-reducer large path, and the
/// broadcast tree) on a **non-power-of-two** node count — so the
/// recursive-doubling fold-in pre/post phases run, and a crash can land
/// mid-fold with the surviving fold partner blocked on the victim's frame.
/// Every leader wait routes through the probed SSW path, so survivors must
/// unwind with the detector's structured verdict — never ride to the
/// watchdog.
#[test]
fn crash_mid_collective_unwinds_on_non_pow2_nodes() {
    const RANKS: usize = 5; // 5 nodes: non-pow2 fold-in phases engaged
    for seed in 0..seed_count().min(4) {
        let key = mix64(seed ^ mix64(4) ^ 0x0C01_1EC7);
        let victim = (key % RANKS as u64) as usize;
        // Odd op index: lands inside the collective loop below (each
        // iteration is 4 blocking collectives).
        let at = 2 + mix64(key) % 14;
        let mut cfg = Config::new(RANKS)
            .with_ranks_per_node(1)
            .with_rank_faults(RankFaults {
                crash_at: Some((victim, at)),
                ..RankFaults::default()
            })
            // Safety net only: the assertion below proves it never fires.
            .with_deadline(Duration::from_secs(20));
        cfg.spin_budget = 16;
        cfg.net = NetConfig::default()
            .with_backend(chaos_backend())
            .with_detection(DetectPlan::aggressive());
        let res = catch_unwind(AssertUnwindSafe(|| {
            launch(cfg, |ctx| {
                let w = ctx.world();
                let me = ctx.rank();
                let mut big = vec![me as u64; 1024]; // > small_coll_max
                for round in 0..2000u64 {
                    let s = w.allreduce_one(1u64, ReduceOp::Sum);
                    assert_eq!(s, RANKS as u64);
                    let mut out = vec![0u64; big.len()];
                    w.allreduce(&big, &mut out, ReduceOp::Max);
                    assert_eq!(out[1], RANKS as u64 - 1);
                    let mut payload = [round, 7];
                    w.bcast(&mut payload, (round % RANKS as u64) as usize);
                    assert_eq!(payload[1], 7);
                    w.barrier();
                    big[0] = round;
                }
            })
        }));
        let msg = panic_message(res.expect_err(&format!(
            "seed {seed}: launch completed despite rank {victim} crashing at op {at}"
        )));
        assert!(
            msg.contains("declared dead"),
            "seed {seed} victim {victim} at op {at}: survivors must unwind with \
             the detector's verdict, got: {msg}"
        );
        assert!(
            !msg.contains("watchdog"),
            "seed {seed}: the watchdog fired — a collective wait bypassed the \
             probed path: {msg}"
        );
    }
}

/// Run `f` on a guard thread and return its panic message. A run still
/// going after 10 s fails the sweep instead of hanging the suite.
fn panic_within_10s(f: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let res = catch_unwind(AssertUnwindSafe(f));
        let _ = tx.send(res.err().map(panic_message));
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("still hung after 10 s")
        .expect("the run must fail")
}

/// A miniAMR-shaped face exchange on a ring: every round each rank posts
/// receives from both neighbours, sends a face to each and completes the
/// batch in `wait_all`. The rightward face goes by blocking `send` (a cross-
/// node send completes at post time), so the victim's seeded crash — which
/// counts blocking operations — lands before its faces of that round leave,
/// and both its neighbours, then everyone, end up blocked in `wait_all`.
/// The batch wait is crash-probed on every incomplete request's peer, so
/// survivors unwind with the detector's verdict under both peer-death
/// policies, never with the watchdog.
#[test]
fn crash_mid_face_exchange_unwinds_wait_all_with_peer_dead() {
    const RANKS: usize = 4;
    for policy in [OnPeerDeath::Abort, OnPeerDeath::Revoke] {
        for seed in 0..seed_count() {
            let victim = (mix64(seed ^ 0xFACE) % RANKS as u64) as usize;
            let at = 1 + mix64(seed ^ 0xE8C4) % 16;
            let mut cfg = Config::new(RANKS)
                .with_ranks_per_node(1)
                .with_rank_faults(RankFaults {
                    crash_at: Some((victim, at)),
                    ..RankFaults::default()
                })
                .with_on_peer_death(policy)
                // Safety net only: the assertion below proves it never fires.
                .with_deadline(Duration::from_secs(20));
            cfg.spin_budget = 16;
            cfg.net = NetConfig::default()
                .with_backend(chaos_backend())
                .with_detection(DetectPlan::aggressive());
            let msg = panic_within_10s(move || {
                launch(cfg, |ctx| {
                    let w = ctx.world();
                    let me = ctx.rank();
                    let (left, right) = ((me + RANKS - 1) % RANKS, (me + 1) % RANKS);
                    for round in 0..4000u64 {
                        let face = [round, me as u64];
                        let (mut from_left, mut from_right) = ([0u64; 2], [0u64; 2]);
                        let reqs = vec![
                            w.irecv(&mut from_left, left, 5),
                            w.irecv(&mut from_right, right, 5),
                            w.isend(&face, left, 5),
                        ];
                        w.send(&face, right, 5);
                        wait_all(reqs);
                        assert_eq!(from_left, [round, left as u64]);
                        assert_eq!(from_right, [round, right as u64]);
                    }
                });
            });
            assert!(
                msg.contains("declared dead"),
                "{policy:?} seed {seed} victim {victim} at op {at}: survivors \
                 must unwind with the detector's verdict, got: {msg}"
            );
            assert!(
                !msg.contains("watchdog"),
                "{policy:?} seed {seed}: the watchdog fired — wait_all bypassed \
                 the probed path: {msg}"
            );
        }
    }
}

/// ULFM-style recovery: under `OnPeerDeath::Revoke` a peer's death surfaces
/// as `Err(PeerDead)` from fallible operations instead of tearing the launch
/// down. Survivors revoke the world, agree on the failure view, `shrink()`
/// to a fresh communicator and complete a collective on it.
#[test]
fn revoke_mode_survivors_shrink_and_continue() {
    const RANKS: usize = 4;
    const VICTIM: usize = 3;
    let mut cfg = Config::new(RANKS)
        .with_ranks_per_node(1)
        .with_rank_faults(RankFaults {
            crash_at: Some((VICTIM, 3)),
            ..RankFaults::default()
        })
        .with_on_peer_death(OnPeerDeath::Revoke)
        .with_deadline(Duration::from_secs(20));
    cfg.spin_budget = 16;
    cfg.net = NetConfig::default()
        .with_backend(chaos_backend())
        .with_detection(DetectPlan::aggressive());
    let (report, results) = launch_surviving(cfg, |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        for round in 0..100_000u64 {
            // A fallible ring: the victim's silence first shows up as
            // timeouts, then — once the detector condemns its node — as a
            // structured verdict on the rank whose receive names it.
            let mut got = [0u64];
            let r = w
                .send_timeout(&[round], (me + 1) % RANKS, 9, Duration::from_millis(20))
                .and_then(|()| {
                    w.recv_timeout(
                        &mut got,
                        (me + RANKS - 1) % RANKS,
                        9,
                        Duration::from_millis(20),
                    )
                });
            match r {
                Ok(()) | Err(PureError::Timeout { .. }) => continue,
                Err(PureError::PeerDead { peer, .. }) => {
                    assert_eq!(peer, VICTIM, "wrong rank condemned");
                    w.revoke();
                    break;
                }
                Err(PureError::Revoked { .. }) => break,
                Err(e) => panic!("rank {me}: unexpected error: {e}"),
            }
        }
        // Recovery is collective over the survivors: agree on who died,
        // then rebuild and prove the new communicator works end-to-end.
        let dead = loop {
            match w.agree() {
                Ok(d) => break d,
                Err(PureError::PeerDead { .. }) => continue, // wider view next round
                Err(e) => panic!("rank {me}: agree failed: {e}"),
            }
        };
        assert_eq!(dead, vec![VICTIM], "rank {me}: wrong failure view");
        let shrunk = w.shrink().unwrap_or_else(|e| {
            panic!("rank {me}: shrink failed: {e}");
        });
        assert_eq!(shrunk.size(), RANKS - 1);
        let sum = shrunk.allreduce_one(ctx.rank() as u64, ReduceOp::Sum);
        assert_eq!(sum, 3, "collective on the shrunk comm is wrong");
        sum
    });
    assert_eq!(report.crashed, vec![VICTIM]);
    assert_pool_balanced(&report.stats);
    for (r, res) in results.iter().enumerate() {
        if r == VICTIM {
            assert!(res.is_none(), "the victim cannot produce a result");
        } else {
            assert_eq!(*res, Some(3), "rank {r} did not complete recovery");
        }
    }
}

/// Bounded-teardown regression (finalize linger): a peer that crash-stops
/// while holding unACKed reliable frames must not pin the survivor's
/// finalize — teardown completes within the configured linger, not at the
/// watchdog and not never.
#[test]
fn finalize_with_dead_peer_is_bounded_by_linger() {
    let mut cfg = Config::new(2)
        .with_ranks_per_node(1)
        .with_rank_faults(RankFaults {
            // The victim dies at its first blocking op, before receiving
            // anything: every frame rank 0 sent stays unACKed forever.
            crash_at: Some((1, 1)),
            ..RankFaults::default()
        })
        .with_finalize_linger(Duration::from_millis(300))
        .with_deadline(Duration::from_secs(30));
    cfg.spin_budget = 16;
    // Faults armed → the reliable sublayer (and its finalize linger) is on.
    // No detection: the cap alone must bound teardown.
    cfg.net = NetConfig::default()
        .with_backend(chaos_backend())
        .with_faults(FaultPlan::chaos(7));
    let t0 = Instant::now();
    let (report, _) = launch_surviving(cfg, |ctx| {
        if ctx.rank() == 0 {
            for i in 0..5u64 {
                ctx.world().send(&[i; 4], 1, 2);
            }
        } else {
            let mut got = [0u64; 4];
            ctx.world().recv(&mut got, 0, 2);
        }
    });
    let elapsed = t0.elapsed();
    assert_eq!(report.crashed, vec![1]);
    assert_pool_balanced(&report.stats);
    assert!(
        elapsed < Duration::from_secs(10),
        "teardown took {elapsed:?}: the finalize linger cap is not bounding \
         a dead peer's unACKed frames"
    );
}
