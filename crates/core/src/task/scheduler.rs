//! The Pure Task Scheduler (§4.3).
//!
//! Per node there is one [`NodeScheduler`] holding an `active_tasks` array
//! with one *task slot* per rank thread. Executing a task publishes it in the
//! owner's slot; any other thread that is blocked (in its SSW-Loop) probes
//! the array, claims a chunk with an atomic compare-exchange, runs it on its
//! own hardware thread, and goes back to checking its blocking condition —
//! "one chunk of stolen work" at a time, exactly as the paper prescribes.
//!
//! ## Lock-freedom and the ABA problem
//!
//! The paper stores raw pointers in `active_tasks`. A naive port would let a
//! thief dereference a pointer to a task object whose owning stack frame has
//! already returned. We instead make the slots *permanent* (they live as
//! long as the runtime) and tag both the claim counter and the done counter
//! with a 32-bit **generation**: `curr = gen << 32 | next_chunk`. A thief's
//! claim CAS can only succeed against the generation it observed, so a claim
//! on a completed (or recycled) task fails instead of touching stale state.
//! A successful claim implies the owner is still inside `execute` (it cannot
//! return while chunks it handed out remain unfinished), which is what makes
//! the lifetime-erased closure pointer sound — the same argument
//! `rayon::scope` uses.
//!
//! Generations wrap after 2³² task executions per rank; a wrap-induced ABA
//! would additionally require a thief to stall across the entire wrap, which
//! we accept (the paper's pointer design has a strictly weaker guarantee).

use interleave::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

use crate::telemetry::{self, Counter};
use crate::util::xorshift::XorShift64;

/// Type-erased chunk invocation: `(closure_data, start_chunk, end_chunk,
/// total_chunks, per_exe_args)`.
pub type Thunk = unsafe fn(*const (), u32, u32, u32, *const ());

/// Per-thread stealing context: RNG, re-entrancy guard and counters. Owned
/// by each rank (and helper) thread.
#[derive(Debug)]
pub struct StealCtx {
    /// Local (within-node) thread index of this thread. Helpers get indices
    /// `>= n_workers`; they have no slot of their own.
    pub me: usize,
    /// Victim-selection RNG.
    pub rng: XorShift64,
    /// True while running a task chunk — blocks recursive stealing.
    pub in_task: bool,
    /// Chunks executed as a thief: one per successful steal attempt.
    pub chunks_stolen: u64,
    /// Chunks executed as an owner.
    pub chunks_owned: u64,
    /// Steal attempts not yet flushed to the telemetry registry. Attempts
    /// fire once per SSW iteration while blocked, so bumping the shared
    /// counter on every probe would be the hottest telemetry site in the
    /// runtime; instead they accumulate here and flush in batches (and on
    /// drop).
    attempt_tally: u32,
}

impl StealCtx {
    /// Context for local thread `me`, RNG seeded from `seed`.
    pub fn new(me: usize, seed: u64) -> Self {
        Self {
            me,
            rng: XorShift64::new(seed ^ 0xA076_1D64_78BD_642F ^ (me as u64) << 17),
            in_task: false,
            chunks_stolen: 0,
            chunks_owned: 0,
            attempt_tally: 0,
        }
    }
}

impl Drop for StealCtx {
    fn drop(&mut self) {
        telemetry::count_by(Counter::StealAttempt, self.attempt_tally as u64);
    }
}

/// One entry of the `active_tasks` array.
struct TaskSlot {
    /// 0 when idle; the task generation when a task is open for stealing.
    status: CachePadded<AtomicU64>,
    /// `gen << 32 | next_unclaimed_chunk` — the claim counter.
    curr: CachePadded<AtomicU64>,
    /// `gen << 32 | chunks_done`.
    done: CachePadded<AtomicU64>,
    /// Total chunks of the current task (stable while its generation is
    /// active).
    total: AtomicU32,
    /// Type-erased call thunk.
    call: AtomicPtr<()>,
    /// Closure data pointer.
    data: AtomicPtr<()>,
    /// Per-execute extra argument pointer (possibly null).
    extra: AtomicPtr<()>,
}

impl TaskSlot {
    fn new() -> Self {
        Self {
            status: CachePadded::new(AtomicU64::new(0)),
            curr: CachePadded::new(AtomicU64::new(0)),
            done: CachePadded::new(AtomicU64::new(0)),
            total: AtomicU32::new(0),
            call: AtomicPtr::new(std::ptr::null_mut()),
            data: AtomicPtr::new(std::ptr::null_mut()),
            extra: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Publish a task of generation `gen` split into `total` chunks and open
    /// it for stealing.
    fn open(&self, gen: u32, total: u32, call: Thunk, data: *const (), extra: *const ()) {
        self.total.store(total, Ordering::Relaxed);
        self.call.store(call as *mut (), Ordering::Relaxed);
        self.data.store(data.cast_mut(), Ordering::Relaxed);
        self.extra.store(extra.cast_mut(), Ordering::Relaxed);
        self.done.store((gen as u64) << 32, Ordering::Relaxed);
        // Publish the claim counter (fields above become visible to any
        // acquirer of `curr`), then open the task for stealing.
        self.curr.store((gen as u64) << 32, Ordering::Release);
        self.status.store(gen as u64, Ordering::Release);
    }

    /// Claim one chunk of generation `gen` — the paper's single-chunk
    /// mode. Returns the claimed chunk's index.
    fn try_claim(&self, gen: u32) -> Option<u32> {
        let mut cur = self.curr.load(Ordering::Acquire);
        loop {
            if (cur >> 32) as u32 != gen {
                return None; // task completed or recycled
            }
            let c = cur as u32;
            let total = self.total.load(Ordering::Relaxed);
            if c >= total {
                return None; // fully claimed
            }
            let next = ((gen as u64) << 32) | (c + 1) as u64;
            match self
                .curr
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(c),
                Err(v) => cur = v,
            }
        }
    }
}

/// What one [`NodeScheduler::ssw_step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SswStep {
    /// Ran a stolen chunk.
    Stole,
    /// Found nothing to steal and spun.
    Spun,
    /// Found nothing to steal, past the spin budget, and yielded the core.
    Yielded,
}

/// The per-node scheduler: the `active_tasks` array plus the SSW-Loop's
/// spin budget.
pub struct NodeScheduler {
    slots: Box<[TaskSlot]>,
    n_workers: usize,
    spin_budget: u32,
    /// Set when any rank panics; waiting loops propagate instead of hanging.
    abort: AtomicBool,
    /// Tells helper threads to exit.
    shutdown: AtomicBool,
}

impl NodeScheduler {
    /// A scheduler for `n_workers` rank threads whose waits spin
    /// `spin_budget` times before yielding the core.
    pub fn new(n_workers: usize, spin_budget: u32) -> Self {
        assert!(n_workers > 0);
        Self {
            slots: (0..n_workers).map(|_| TaskSlot::new()).collect(),
            n_workers,
            spin_budget,
            abort: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Number of rank threads this scheduler serves.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Flag a fatal error; all waiting loops will panic promptly.
    pub fn set_abort(&self) {
        self.abort.store(true, Ordering::Release);
    }

    /// True when a peer rank has died.
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// Ask helper threads to exit.
    pub fn shutdown_helpers(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Execute chunk `c` of `slot`'s current task.
    ///
    /// # Safety
    /// `c` must have been obtained from a successful claim on this slot,
    /// which guarantees the thunk and data pointers are alive.
    unsafe fn run_chunk(&self, slot: &TaskSlot, ctx: &mut StealCtx, c: u32) {
        // A successful claim orders these loads after the owner's release
        // store of `curr` for this generation.
        let call = slot.call.load(Ordering::Relaxed);
        let data = slot.data.load(Ordering::Relaxed);
        let extra = slot.extra.load(Ordering::Relaxed);
        let total = slot.total.load(Ordering::Relaxed);
        // SAFETY: `call` was produced by casting a `Thunk` in `execute_raw`.
        let thunk: Thunk = unsafe { std::mem::transmute::<*mut (), Thunk>(call) };
        ctx.in_task = true;
        // SAFETY: per the claim-implies-alive argument in the module docs.
        unsafe { thunk(data.cast_const(), c, c + 1, total, extra.cast_const()) };
        ctx.in_task = false;
    }

    /// One steal attempt (the body of the SSW-Loop's "steal" arm): probe
    /// every other slot of the `active_tasks` array once, starting at a
    /// random position (Cilk-style, the paper's evaluation mode), execute at
    /// most one claim, and return whether work was done.
    pub fn try_steal_once(&self, ctx: &mut StealCtx) -> bool {
        if ctx.in_task || self.n_workers <= 1 {
            return false; // no recursive stealing; nobody to steal from
        }
        ctx.attempt_tally += 1;
        if ctx.attempt_tally >= 1024 {
            telemetry::count_by(Counter::StealAttempt, ctx.attempt_tally as u64);
            ctx.attempt_tally = 0;
        }
        let n = self.n_workers;
        let start = ctx.rng.next_below(n);
        for i in 0..n {
            let v = (start + i) % n;
            if v != ctx.me && self.steal_from(ctx, v) {
                return true;
            }
        }
        false
    }

    fn steal_from(&self, ctx: &mut StealCtx, victim: usize) -> bool {
        let slot = &self.slots[victim];
        let gen = slot.status.load(Ordering::Acquire);
        if gen == 0 {
            return false;
        }
        let Some(c) = slot.try_claim(gen as u32) else {
            return false;
        };
        let _span = telemetry::span("steal");
        // SAFETY: claim succeeded for this generation.
        unsafe { self.run_chunk(slot, ctx, c) };
        slot.done.fetch_add(1, Ordering::Release);
        ctx.chunks_stolen += 1;
        telemetry::count(Counter::Steal);
        // A successful steal is a natural sync point: flush the batched
        // attempt tally so attempts never lag far behind steals.
        telemetry::count_by(Counter::StealAttempt, ctx.attempt_tally as u64);
        ctx.attempt_tally = 0;
        true
    }

    /// Owner-side execution of a task broken into `total` chunks: publish it
    /// in the owner's `active_tasks` slot, execute chunks (concurrently with
    /// any thieves), and return only when **all** chunks are done.
    ///
    /// # Safety
    /// `call(data, s, e, total, extra)` must be sound for any disjoint chunk
    /// ranges invoked concurrently from multiple threads, and `data`/`extra`
    /// must stay valid until this function returns (it does not return while
    /// any chunk is outstanding).
    pub unsafe fn execute_raw(
        &self,
        ctx: &mut StealCtx,
        total: u32,
        call: Thunk,
        data: *const (),
        extra: *const (),
    ) {
        if total == 0 {
            return;
        }
        let _span = telemetry::span("task");
        let slot = &self.slots[ctx.me];
        let gen = (((slot.curr.load(Ordering::Relaxed) >> 32) as u32).wrapping_add(1)).max(1);
        slot.open(gen, total, call, data, extra);

        // Work-first: the owner claims and runs chunks like everyone else,
        // but accumulates its done-count locally (one cache miss at the end
        // instead of one per chunk — §4.3).
        let mut my_done: u64 = 0;
        while let Some(c) = slot.try_claim(gen) {
            // SAFETY: claim succeeded; owner generation is active.
            unsafe { self.run_chunk(slot, ctx, c) };
            my_done += 1;
        }
        ctx.chunks_owned += my_done;
        if my_done > 0 {
            slot.done.fetch_add(my_done, Ordering::Release);
        }

        // Wait for thieves to finish outstanding chunks; steal other tasks
        // meanwhile (the owner is just another blocked rank now).
        let mut spins = 0u32;
        loop {
            let d = slot.done.load(Ordering::Acquire);
            if (d >> 32) as u32 == gen && (d as u32) >= total {
                break;
            }
            if self.aborted() {
                panic!("pure: peer rank failed while this rank was in a task");
            }
            self.ssw_step(ctx, &mut spins);
        }
        slot.status.store(0, Ordering::Release);
    }

    /// Body of a dedicated helper thread (§5.1, "Pure helper threads are
    /// simply extra threads that continuously try to steal work"). Returns
    /// when [`NodeScheduler::shutdown_helpers`] is called.
    pub fn run_helper(&self, ctx: &mut StealCtx) {
        let mut spins = 0u32;
        while !self.shutdown.load(Ordering::Acquire) && !self.aborted() {
            self.ssw_step(ctx, &mut spins);
        }
    }

    /// One fruitless turn of a wait, after its condition was polled: steal
    /// one chunk if any co-resident task has one (and reset `spins`, so the
    /// caller re-polls at once), else spin — or, once `spins` passes the
    /// spin budget, yield the core. The SSW-Loop, an owner waiting for its
    /// thieves and a helper thread all take this step.
    #[inline]
    pub(crate) fn ssw_step(&self, ctx: &mut StealCtx, spins: &mut u32) -> SswStep {
        if self.try_steal_once(ctx) {
            *spins = 0;
            return SswStep::Stole;
        }
        *spins += 1;
        if *spins > self.spin_budget {
            interleave::thread::yield_now();
            SswStep::Yielded
        } else {
            interleave::hint::spin_loop();
            SswStep::Spun
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32 as TestCounter;
    use std::sync::Arc;
    use std::thread;

    /// Helper: build a thunk for a plain `Fn(u32, u32, u32)` closure.
    unsafe fn thunk_for<F: Fn(u32, u32, u32) + Sync>(_f: &F) -> Thunk {
        unsafe fn call<F: Fn(u32, u32, u32) + Sync>(
            data: *const (),
            s: u32,
            e: u32,
            total: u32,
            _extra: *const (),
        ) {
            // SAFETY: data points at a live F per execute_raw's contract.
            let f = unsafe { &*(data as *const F) };
            f(s, e, total);
        }
        call::<F>
    }

    fn sched(n: usize) -> NodeScheduler {
        NodeScheduler::new(n, 16)
    }

    #[test]
    fn owner_alone_executes_every_chunk_once() {
        let s = sched(1);
        let hits: Vec<TestCounter> = (0..32).map(|_| TestCounter::new(0)).collect();
        let f = |a: u32, b: u32, _t: u32| {
            for c in a..b {
                hits[c as usize].fetch_add(1, Ordering::Relaxed);
            }
        };
        let mut ctx = StealCtx::new(0, 1);
        // SAFETY: closure outlives the call; chunks touch disjoint counters.
        unsafe {
            s.execute_raw(
                &mut ctx,
                32,
                thunk_for(&f),
                &f as *const _ as *const (),
                std::ptr::null(),
            )
        };
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(ctx.chunks_owned, 32);
    }

    #[test]
    fn zero_chunk_task_is_a_noop() {
        let s = sched(1);
        let f = |_: u32, _: u32, _: u32| panic!("must not run");
        let mut ctx = StealCtx::new(0, 1);
        // SAFETY: as above.
        unsafe {
            s.execute_raw(
                &mut ctx,
                0,
                thunk_for(&f),
                &f as *const _ as *const (),
                std::ptr::null(),
            )
        };
    }

    /// Two threads: one owns a task, the other steals chunks while "blocked".
    #[test]
    fn thief_steals_and_every_chunk_runs_once() {
        const CHUNKS: u32 = 256;
        let s = Arc::new(sched(2));
        let hits: Arc<Vec<TestCounter>> =
            Arc::new((0..CHUNKS).map(|_| TestCounter::new(0)).collect());
        let done = Arc::new(AtomicBool::new(false));

        let s2 = Arc::clone(&s);
        let done2 = Arc::clone(&done);
        let thief = thread::spawn(move || {
            let mut ctx = StealCtx::new(1, 99);
            while !done2.load(Ordering::Acquire) {
                if !s2.try_steal_once(&mut ctx) {
                    thread::yield_now();
                }
            }
            ctx.chunks_stolen
        });

        let hits_owner = Arc::clone(&hits);
        let f = move |a: u32, b: u32, _t: u32| {
            for c in a..b {
                // A touch of work so the thief gets a chance to interleave.
                std::hint::black_box((0..50).sum::<u64>());
                hits_owner[c as usize].fetch_add(1, Ordering::Relaxed);
            }
        };
        let mut ctx = StealCtx::new(0, 7);
        for _ in 0..8 {
            // SAFETY: closure outlives each call; chunks are disjoint.
            unsafe {
                s.execute_raw(
                    &mut ctx,
                    CHUNKS,
                    thunk_for(&f),
                    &f as *const _ as *const (),
                    std::ptr::null(),
                );
            }
            for h in hits.iter() {
                assert_eq!(
                    h.swap(0, Ordering::Relaxed),
                    1,
                    "chunk executed exactly once"
                );
            }
        }
        done.store(true, Ordering::Release);
        let stolen = thief.join().unwrap();
        // Oversubscribed single-core CI cannot guarantee interleaving, so we
        // only require accounting consistency, not a successful steal.
        assert_eq!(ctx.chunks_owned + stolen, 8 * CHUNKS as u64);
    }

    #[test]
    fn steal_with_no_active_task_fails_fast() {
        let s = sched(4);
        let mut ctx = StealCtx::new(2, 3);
        assert!(!s.try_steal_once(&mut ctx));
    }

    /// Whatever slot the random start picks, one attempt probes every other
    /// slot once, so a lone open chunk anywhere is always found.
    #[test]
    fn one_attempt_probes_every_other_slot() {
        let s = sched(4);
        let runs = TestCounter::new(0);
        let f = |_: u32, _: u32, _: u32| {
            runs.fetch_add(1, Ordering::Relaxed);
        };
        let mut gen = 0;
        for seed in 0..32 {
            for v in 0..4 {
                for me in (0..4).filter(|&me| me != v) {
                    gen += 1;
                    // SAFETY: `f` outlives the steal below, the only claim.
                    let call = unsafe { thunk_for(&f) };
                    // A one-chunk task with no owner to claim it.
                    s.slots[v].open(gen, 1, call, &f as *const _ as *const (), std::ptr::null());
                    let mut ctx = StealCtx::new(me, seed);
                    assert!(
                        s.try_steal_once(&mut ctx),
                        "seed {seed}: thread {me} missed the chunk in slot {v}"
                    );
                    assert_eq!(ctx.chunks_stolen, 1);
                    s.slots[v].status.store(0, Ordering::Release);
                }
            }
        }
        assert_eq!(runs.load(Ordering::Relaxed), 32 * 4 * 3);
    }

    /// The victim order is a function of the steal seed alone: with every
    /// other slot holding chunks, two contexts built from the same seed
    /// visit the same victims in the same order.
    #[test]
    fn same_seed_same_steal_order() {
        let s = sched(4);
        let order = std::sync::Mutex::new(Vec::new());
        let fs = [1usize, 2, 3].map(|v| {
            let order = &order;
            move |_: u32, _: u32, _: u32| order.lock().unwrap().push(v)
        });
        let mut gen = 0;
        let mut victims = |seed: u64| {
            gen += 1;
            for (f, v) in fs.iter().zip(1..) {
                // SAFETY: `fs` outlives every steal below.
                let call = unsafe { thunk_for(f) };
                s.slots[v].open(gen, 64, call, f as *const _ as *const (), std::ptr::null());
            }
            let mut ctx = StealCtx::new(0, seed);
            for _ in 0..24 {
                assert!(s.try_steal_once(&mut ctx));
            }
            std::mem::take(&mut *order.lock().unwrap())
        };
        let first = victims(5);
        assert_eq!(first, victims(5));
        assert_ne!(first, victims(6));
        assert!([1, 2, 3].iter().all(|v| first.contains(v)));
    }

    /// Three thieves and the owner race for one task's chunks; each chunk
    /// runs exactly once and the claim accounting adds up.
    #[test]
    fn concurrent_thieves_run_every_chunk_once() {
        const CHUNKS: u32 = 512;
        let s = Arc::new(sched(4));
        let hits: Arc<Vec<TestCounter>> =
            Arc::new((0..CHUNKS).map(|_| TestCounter::new(0)).collect());
        let done = Arc::new(AtomicBool::new(false));
        let thieves: Vec<_> = (1..4)
            .map(|me| {
                let (s, done) = (Arc::clone(&s), Arc::clone(&done));
                thread::spawn(move || {
                    let mut ctx = StealCtx::new(me, 11 * me as u64);
                    while !done.load(Ordering::Acquire) {
                        if !s.try_steal_once(&mut ctx) {
                            thread::yield_now();
                        }
                    }
                    ctx.chunks_stolen
                })
            })
            .collect();
        let hits_owner = Arc::clone(&hits);
        let f = move |a: u32, b: u32, _t: u32| {
            for c in a..b {
                std::hint::black_box((0..50).sum::<u64>());
                hits_owner[c as usize].fetch_add(1, Ordering::Relaxed);
            }
        };
        let mut ctx = StealCtx::new(0, 7);
        for _ in 0..4 {
            // SAFETY: closure outlives each call; chunks are disjoint.
            unsafe {
                s.execute_raw(
                    &mut ctx,
                    CHUNKS,
                    thunk_for(&f),
                    &f as *const _ as *const (),
                    std::ptr::null(),
                );
            }
            for h in hits.iter() {
                assert_eq!(
                    h.swap(0, Ordering::Relaxed),
                    1,
                    "chunk executed exactly once"
                );
            }
        }
        done.store(true, Ordering::Release);
        let stolen: u64 = thieves.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(ctx.chunks_owned + stolen, 4 * CHUNKS as u64);
    }

    #[test]
    fn ssw_step_spins_up_to_the_budget_then_yields() {
        let s = sched(4); // spin budget 16; no task is open to steal from
        let mut ctx = StealCtx::new(1, 3);
        let mut spins = 0u32;
        for _ in 0..16 {
            assert_eq!(s.ssw_step(&mut ctx, &mut spins), SswStep::Spun);
        }
        assert_eq!(s.ssw_step(&mut ctx, &mut spins), SswStep::Yielded);
        assert_eq!(s.ssw_step(&mut ctx, &mut spins), SswStep::Yielded);
        assert_eq!(spins, 18);
    }

    #[test]
    fn in_task_blocks_recursive_steal() {
        let s = sched(2);
        let mut ctx = StealCtx::new(0, 3);
        ctx.in_task = true;
        assert!(!s.try_steal_once(&mut ctx));
    }

    #[test]
    fn generations_make_stale_claims_fail() {
        let s = sched(1);
        let slot = &s.slots[0];
        // Fake an old generation observation.
        assert!(slot.try_claim(42).is_none());
    }
}
