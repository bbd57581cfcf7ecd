//! The Spin-Steal-Wait loop (§4.0.2).
//!
//! Whenever a Pure rank must wait — for a message, an envelope, a collective
//! phase — it runs the SSW-Loop: poll the condition; if not ready, try to
//! steal one chunk of any co-resident rank's active task; otherwise spin
//! briefly and eventually yield.
//!
//! The paper spins without yielding because it pins one rank per core. This
//! port must also run oversubscribed (tests on small machines), so after
//! `spin_budget` fruitless polls it calls `thread::yield_now()`; with a large
//! budget the behaviour degenerates to the paper's pure spinning. The loop
//! also watches the node's abort flag so one rank's panic fails the whole
//! run promptly instead of deadlocking everyone else.
//!
//! `ssw_loop` is the one loop; every rank enters it through
//! `RankLocal::ssw_wait`, which adds the health bookkeeping and turns an
//! interrupt into a structured error. It is public only so that
//! `tests/model_check.rs` can drive it.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use super::scheduler::{NodeScheduler, SswStep, StealCtx};
use crate::telemetry::{self, Counter};

/// Accumulates spin/yield tallies locally during one SSW wait and flushes
/// them to the rank's telemetry block in two atomic adds on drop — covering
/// every exit path (ready, abort, timeout) without per-iteration atomics.
struct SswTally {
    spins: u64,
    yields: u64,
}

impl Drop for SswTally {
    fn drop(&mut self) {
        telemetry::count_by(Counter::SswSpin, self.spins);
        telemetry::count_by(Counter::SswYield, self.yields);
    }
}

/// Why an interruptible SSW wait stopped before its condition held.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitInterrupt {
    /// The node's abort flag was raised (a peer rank failed).
    Aborted,
    /// The wait's deadline elapsed; carries the measured wait time.
    TimedOut(Duration),
    /// The failure detector condemned a peer node while this rank was
    /// blocked: the wait unwinds in bounded time with the verdict instead
    /// of spinning until the watchdog backstop.
    PeerDead {
        /// Condemned node (netsim node id, not a rank).
        node: usize,
        /// Session epoch fenced by the condemnation.
        epoch: u64,
    },
    /// The communicator the wait belongs to was revoked mid-flight.
    Revoked {
        /// Identifier of the revoked communicator.
        comm: u64,
    },
}

/// Run the SSW-Loop until `poll` produces a value, or until an interrupt:
/// the node's abort flag, the optional `deadline`, or a verdict of the
/// *interrupt probe*.
///
/// `probe` and the deadline are checked every 64 fruitless iterations, so
/// the ready path and the spinning path stay free of clock reads. The
/// deadline clock starts at the first of those checks, not on entry: a wait
/// satisfied within its first 64 polls never reads the clock, and a wait
/// runs at least `deadline` past its first probe, so it can overshoot its
/// deadline by 64 polls and a few yields, never undershoot it.
/// The probe is how the crash-stop failure detector reaches every blocked
/// wait: it asks the node's endpoint for condemned peers (or a revoked
/// communicator), so a dead peer unwinds the wait in bounded time with a
/// structured error — no watchdog involved.
///
/// `steal_ctx` is this thread's stealing context; it is only borrowed for
/// the duration of each SSW step, so `poll` may itself use rank-local state
/// (but must not re-enter the scheduler).
pub fn ssw_loop<T>(
    sched: &NodeScheduler,
    steal_ctx: &RefCell<StealCtx>,
    deadline: Option<Duration>,
    mut probe: impl FnMut() -> Option<WaitInterrupt>,
    mut poll: impl FnMut() -> Option<T>,
) -> Result<T, WaitInterrupt> {
    let mut spins = 0u32;
    let mut iters = 0u32;
    let mut started: Option<Instant> = None;
    let mut tally = SswTally {
        spins: 0,
        yields: 0,
    };
    loop {
        if let Some(v) = poll() {
            return Ok(v);
        }
        if sched.aborted() {
            return Err(WaitInterrupt::Aborted);
        }
        iters = iters.wrapping_add(1);
        if iters & 0x3F == 0 {
            if let Some(interrupt) = probe() {
                return Err(interrupt);
            }
            if let Some(d) = deadline {
                match started {
                    None => started = Some(Instant::now()),
                    Some(t0) => {
                        let elapsed = t0.elapsed();
                        if elapsed >= d {
                            return Err(WaitInterrupt::TimedOut(elapsed));
                        }
                    }
                }
            }
        }
        match sched.ssw_step(&mut steal_ctx.borrow_mut(), &mut spins) {
            SswStep::Stole => {}
            SswStep::Spun => tally.spins += 1,
            SswStep::Yielded => tally.yields += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread;

    fn sched() -> NodeScheduler {
        NodeScheduler::new(2, 8)
    }

    /// The loop with no deadline and a probe that never fires.
    fn wait<T>(s: &NodeScheduler, poll: impl FnMut() -> Option<T>) -> Result<T, WaitInterrupt> {
        let ctx = RefCell::new(StealCtx::new(0, 1));
        ssw_loop(s, &ctx, None, || None, poll)
    }

    #[test]
    fn returns_immediately_when_ready() {
        assert_eq!(wait(&sched(), || Some(42)), Ok(42));
    }

    #[test]
    fn waits_for_cross_thread_condition() {
        let s = Arc::new(sched());
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let setter = thread::spawn(move || {
            thread::yield_now();
            f2.store(true, Ordering::Release);
        });
        let r = wait(&s, || flag.load(Ordering::Acquire).then_some(()));
        assert_eq!(r, Ok(()));
        setter.join().unwrap();
    }

    #[test]
    fn abort_breaks_the_wait() {
        let s = sched();
        s.set_abort();
        let r: Result<(), _> = wait(&s, || None);
        assert_eq!(r, Err(WaitInterrupt::Aborted));
    }

    #[test]
    fn deadline_fires_and_reports_elapsed() {
        let s = sched();
        let ctx = RefCell::new(StealCtx::new(0, 1));
        let d = std::time::Duration::from_millis(20);
        let r: Result<(), _> = ssw_loop(&s, &ctx, Some(d), || None, || None);
        match r {
            Err(WaitInterrupt::TimedOut(e)) => assert!(e >= d, "elapsed {e:?} < deadline"),
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn probe_interrupts_a_blocked_wait() {
        let s = sched();
        let ctx = RefCell::new(StealCtx::new(0, 1));
        let mut n = 0u32;
        let r: Result<(), _> = ssw_loop(
            &s,
            &ctx,
            None,
            || {
                n += 1;
                (n > 3).then_some(WaitInterrupt::PeerDead { node: 2, epoch: 1 })
            },
            || None,
        );
        assert_eq!(r, Err(WaitInterrupt::PeerDead { node: 2, epoch: 1 }));
    }

    #[test]
    fn probe_is_not_consulted_when_condition_is_ready() {
        let s = sched();
        let ctx = RefCell::new(StealCtx::new(0, 1));
        let r = ssw_loop(
            &s,
            &ctx,
            None,
            || Some(WaitInterrupt::Revoked { comm: 7 }),
            || Some(11),
        );
        assert_eq!(r, Ok(11), "a ready poll wins over any pending interrupt");
    }

    /// The deadline clock starts at the first probe (the 64th fruitless
    /// poll), so even a zero deadline cannot fire before the second one.
    #[test]
    fn deadline_clock_starts_at_the_first_probe() {
        let s = sched();
        let ctx = RefCell::new(StealCtx::new(0, 1));
        let mut n = 0;
        let r = ssw_loop(
            &s,
            &ctx,
            Some(Duration::ZERO),
            || None,
            || {
                n += 1;
                (n > 100).then_some(n)
            },
        );
        assert_eq!(r, Ok(101));
    }

    #[test]
    fn deadline_does_not_fire_when_condition_arrives() {
        let s = sched();
        let ctx = RefCell::new(StealCtx::new(0, 1));
        let mut n = 0;
        let r = ssw_loop(
            &s,
            &ctx,
            Some(std::time::Duration::from_secs(30)),
            || None,
            || {
                n += 1;
                (n > 500).then_some(n)
            },
        );
        assert_eq!(r, Ok(501));
    }
}
