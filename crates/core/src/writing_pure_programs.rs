//! # Appendix D — recommendations for writing Pure programs
//!
//! The paper's Appendix D collects practical guidance for Pure application
//! authors. This is that guidance, adapted to the Rust port (documentation
//! only; nothing is exported).
//!
//! ## Start from working MPI structure
//!
//! Pure's model *is* message passing. Port an MPI application by keeping its
//! decomposition and communication structure and translating calls
//! mechanically (the `mpi2pure` tool automates the C side; in Rust, write
//! against [`crate::Communicator`] so the same code also runs on the
//! baseline for differential testing — every app in `miniapps` does this).
//!
//! ## Ranks are threads: audit global state
//!
//! The paper: "Process-global variables in Pure applications must be removed
//! or made `thread_local`." Rust's ownership system does most of this audit
//! for you — a `static mut` or interior-mutable global shared across ranks
//! will not compile or will demand synchronization explicitly. Keep rank
//! state inside the SPMD closure; pass immutable parameters by capture.
//!
//! ## Where to add Pure Tasks
//!
//! Add tasks (1) in computational hotspots that (2) can be structured as
//! independent chunks, and only when there is load imbalance to absorb —
//! "programmers should selectively add tasks … Anecdotally, we added Pure
//! Tasks to fewer than 10% of the lines of code." There is no penalty for
//! not using tasks.
//!
//! * Partition over cacheline-aligned index ranges
//!   ([`crate::ChunkRange::aligned`]) to avoid false sharing; prefer
//!   [`crate::SharedSlice::chunk_aligned`], which hands out disjoint
//!   sub-slices safely.
//! * Make chunks meaningfully larger than the steal overhead (~hundreds of
//!   nanoseconds of work at minimum; the paper used 10s–100s of
//!   microseconds).
//! * Tasks must not communicate: they are "islands of concurrent code". The
//!   runtime debug-catches re-entrant stealing, but a task body calling
//!   `send`/`recv` is a design error.
//! * If two chunks must write the same location, make it atomic — the paper
//!   did exactly this once (CoMD: an `int` array became `std::atomic<int>`).
//!   In Rust, use atomics or restructure into per-chunk outputs that a
//!   serial pass folds (see `miniapps::comd::compute_forces`).
//! * Values that change per execution belong in `per_exe_args`
//!   ([`crate::PureTask::execute_with`]), not in captures.
//!
//! ## Sizing and placement
//!
//! * One rank per core (the default) — Pure's flat namespace means no
//!   `OMP_NUM_THREADS`-style tuning. If ranks are fewer than cores, turn the
//!   spare cores into helper threads ([`crate::Config::helpers_per_node`]),
//!   as the paper did for DT class A. Helpers only steal task chunks; no
//!   thread is set aside for network progress, because blocked ranks drive
//!   it from their SSW-Loop waits.
//! * Leave protocol thresholds at their defaults first
//!   ([`crate::Config::small_msg_max`] = 8 KiB,
//!   [`crate::Config::small_coll_max`] = 2 KiB); they are behaviour-
//!   preserving knobs (a dedicated test forces both extremes).
//!
//! ## Non-blocking communication discipline
//!
//! * Post receives before the matching sends arrive when payloads are
//!   large (rendezvous needs the receiver's buffer).
//! * Complete batches with [`crate::wait_all`] when a rank holds both
//!   outstanding sends and receives — it polls everything, so bounded
//!   queues cannot deadlock against a symmetric peer. On Pure it is one
//!   SSW-Loop wait: it steals, honours the progress deadline and unwinds on
//!   a dead peer like any other wait. (The SSW-Loop also flushes pending
//!   sends in the background while a rank blocks.)
//!
//! ## Determinism
//!
//! Pure's scheduling is invisible to results if chunks write disjoint data:
//! every app in this repository produces bit-identical output with tasks
//! on/off, across topologies and across runtimes — keep it that way in your
//! own code by never letting chunk execution order leak into floating-point
//! accumulation order (accumulate per chunk, fold serially, as the CoMD
//! port does with per-cell energies).
//!
//! ## Timeouts, faults, and aborts
//!
//! The default messaging calls ([`crate::PureComm::send`] and friends)
//! block until completion and, on any fatal condition, abort the entire
//! launch with one attributed panic (`pure: rank R failed: ...`). Three
//! tools change or exercise that behaviour:
//!
//! * **Fallible variants** — [`crate::PureComm::send_timeout`],
//!   [`crate::PureComm::recv_timeout`] and `Request::wait_timeout` return
//!   [`crate::PureResult`] instead of blocking forever. On
//!   [`crate::PureError::Timeout`] the posted operation has been withdrawn:
//!   the message will *not* be delivered later, and the channel stays
//!   usable. The error carries `{rank, op, peer, tag, elapsed}` for logs
//!   and retry policies. Only the *newest* posted operation on a channel
//!   can be withdrawn (MPI ordering would otherwise be violated); a
//!   timeout that catches an older or mid-copy operation finishes it and
//!   returns `Ok`. A withdrawn operation moved nothing, so it is not
//!   counted in the launch report's per-rank message statistics.
//!
//! * **Launch deadline** — `Config::with_deadline(d)` arms a per-operation
//!   progress deadline on every blocking wait plus a watchdog backstop at
//!   1.5×`d`. Use it in tests and batch jobs so a deadlock produces a
//!   diagnostic dump (who is waiting on what, channel occupancy, collective
//!   rounds, net fault counters) instead of a hang. Leave it unset in
//!   latency benchmarks: without it the hot paths never read a clock.
//!
//! * **Fault injection** — `Config::with_rank_faults` kills or slows a
//!   chosen rank deterministically (`die_at: Some((rank, op_index))`,
//!   `slow: Some((rank, delay))`); `NetConfig::with_faults(FaultPlan::
//!   chaos(seed))` injures internode frames (drop/duplicate/reorder/delay)
//!   under seeded, per-frame-deterministic decisions which the reliable
//!   sublayer must repair. Both are for testing *your* error handling and
//!   performance robustness; neither changes delivered bytes — a run either
//!   completes byte-exact or aborts loudly.
//!
//! Do not wrap individual ranks in `catch_unwind` to "handle" a peer
//! abort: the echo unwind that releases a rank from a dead collective is
//! an implementation detail, and swallowing it strands the other ranks.
//! Treat the launch as the unit of failure, as MPI treats the job.
