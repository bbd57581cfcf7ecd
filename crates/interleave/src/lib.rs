//! # interleave — a vendored, offline loom-style model checker
//!
//! Pure's lock-free core (the PBQ ring, the SPTD dropbox, the rendezvous
//! envelopes, the task-scheduler counters) rests on hand-rolled
//! acquire/release protocols. Stress tests only sample the schedules the OS
//! happens to produce; this crate lets the same code run under a
//! *deterministic scheduler* that explores thread interleavings
//! systematically and checks every explored schedule for happens-before
//! violations.
//!
//! ## The facade
//!
//! Code imports its synchronization primitives from here instead of `std`:
//!
//! * [`sync::atomic`] — `AtomicUsize`, `AtomicU64`, `AtomicU32`, `AtomicU8`,
//!   `AtomicBool`, `AtomicPtr`, `Ordering`, `fence`;
//! * [`cell::Cell`] — a `std::cell::Cell` stand-in for plain fields guarded
//!   by an atomic protocol;
//! * [`cell::RaceZone`] — an *indexed* set of virtual locations used to tag
//!   raw-pointer payload accesses (a byte-copy into slot `i` marks a write of
//!   location `i`) so the checker can race-check memory it cannot see;
//! * [`hint::spin_loop`], [`thread::yield_now`], [`thread::spawn`] /
//!   [`thread::JoinHandle`].
//!
//! Without the `model` feature every item is a re-export of (or a zero-sized
//! no-op wrapper around) the `std` original — release builds are bit-for-bit
//! the untouched lock-free code.
//!
//! With `--features model` the same items become instrumented shims: inside
//! `check`/`model` every atomic/cell operation is a *schedule point*
//! where a DFS scheduler (bounded-preemption, with yield-deprioritisation
//! for spin loops) decides which thread performs the next operation. The
//! checker maintains FastTrack-style vector clocks: release stores publish
//! the writer's clock on the atomic, acquire loads join it, and a **relaxed
//! store publishes nothing** — so a missing release/acquire pair shows up as
//! a happens-before data race on the payload the protocol was supposed to
//! protect, deterministically, in every schedule that transfers data.
//!
//! Outside a `check` run the shims fall through to the real `std` atomics,
//! so a `--features model` build of a dependent crate still runs its
//! ordinary tests unchanged.
//!
//! ## Counterexamples and replay
//!
//! A failing schedule is reported as a `Counterexample`: the failure
//! message, the exact thread-choice sequence, and a per-operation trace
//! (re-executed with tracing on — runs are deterministic). Set
//! `PURE_MODEL_REPLAY=<dotted thread ids>` to re-run exactly that schedule
//! under a debugger.

#![warn(missing_docs)]

#[cfg(feature = "model")]
pub mod engine;
#[cfg(feature = "model")]
mod shims;

#[cfg(feature = "model")]
pub use engine::{check, model, Counterexample, Options, Report, MAX_THREADS};

/// Atomics facade (`std::sync::atomic` re-export or model shims).
pub mod sync {
    /// Atomic types and memory orderings.
    pub mod atomic {
        #[cfg(not(feature = "model"))]
        pub use std::sync::atomic::{
            fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
        };

        #[cfg(feature = "model")]
        pub use crate::shims::{
            fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
        };
    }
}

/// Interior-mutability facade: [`cell::Cell`] plus the [`cell::RaceZone`]
/// instrumentation handle for raw-pointer payloads.
pub mod cell {
    #[cfg(not(feature = "model"))]
    pub use std::cell::Cell;

    #[cfg(feature = "model")]
    pub use crate::shims::Cell;

    /// A set of `n` virtual memory locations for race-checking data the
    /// model cannot observe directly (raw-pointer payload buffers).
    ///
    /// Protocol code calls [`RaceZone::write`]`(i)` where it writes payload
    /// `i` and [`RaceZone::read`]`(i)` where it reads it; under the model the
    /// checker verifies every read is happens-before-ordered after the last
    /// write (and writes after reads). In normal builds this type is
    /// zero-sized and every call is a no-op.
    #[cfg(not(feature = "model"))]
    pub struct RaceZone(());

    #[cfg(not(feature = "model"))]
    impl RaceZone {
        /// A zone of `n` locations (no-op without the `model` feature).
        #[inline(always)]
        pub fn new(_n: usize) -> Self {
            RaceZone(())
        }

        /// Mark a read of location `i` (no-op).
        #[inline(always)]
        pub fn read(&self, _i: usize) {}

        /// Mark a write of location `i` (no-op).
        #[inline(always)]
        pub fn write(&self, _i: usize) {}
    }

    #[cfg(feature = "model")]
    pub use crate::shims::RaceZone;
}

/// Spin-loop hint facade.
pub mod hint {
    #[cfg(not(feature = "model"))]
    pub use std::hint::spin_loop;

    #[cfg(feature = "model")]
    pub use crate::shims::spin_loop;
}

/// Thread spawn/join/yield facade.
pub mod thread {
    #[cfg(not(feature = "model"))]
    pub use std::thread::{spawn, yield_now, JoinHandle};

    #[cfg(feature = "model")]
    pub use crate::shims::{spawn, yield_now, JoinHandle};
}
