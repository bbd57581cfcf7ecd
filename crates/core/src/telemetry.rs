//! Runtime telemetry (observability layer): per-rank counters, an optional
//! ring-buffer event tracer, and a Chrome `trace_event` exporter.
//!
//! The paper's performance claims are all about *where time goes inside a
//! node* — PBQ copies vs rendezvous single-copy, SSW spinning vs stealing,
//! flat-combining leader work. This module makes those visible:
//!
//! * **Counter registry** — one cacheline-padded block of relaxed atomic
//!   counters per rank ([`RankCounters`]), indexed by [`Counter`]. Hot paths
//!   bump counters through a thread-local handle installed by `launch`, so
//!   the instrumented structures (PBQ, envelope queue, SPTD, scheduler) need
//!   no rank identity of their own. Only the owning rank thread writes a
//!   block; the watchdog and the exit-time snapshot read it with relaxed
//!   loads, so a bump is one uncontended atomic add on an owned cacheline.
//! * **Event tracer** — an optional fixed-capacity per-rank ring buffer of
//!   instant and span events ([`Tracer`]), timestamped against the launch
//!   epoch, overwriting the oldest event when full (never allocating after
//!   construction). Enabled with [`crate::Config::with_trace`]; when off,
//!   every span/instant call is a thread-local null check.
//! * **Chrome exporter** — [`RuntimeStats::chrome_trace`] renders the
//!   per-rank event streams as Chrome `trace_event` JSON (`traceEvents`
//!   array of `"X"`/`"i"` phases, one `tid` per rank), loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! These counters deliberately use `std::sync::atomic` directly rather than
//! the `interleave` facade: under `--features model` they are invisible to
//! the model checker (atomic bumps cannot race and must not enlarge the
//! explored schedule space).

use std::cell::Cell as StdCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counter catalogue
// ---------------------------------------------------------------------------

macro_rules! counters {
    ($(#[$m:meta] $name:ident => $label:literal,)*) => {
        /// One named runtime counter (see the module docs and
        /// `docs/OBSERVABILITY.md` for the full catalogue).
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $(#[$m] $name,)*
        }

        /// Number of distinct counters.
        pub const N_COUNTERS: usize = [$(Counter::$name),*].len();

        impl Counter {
            /// Every counter, in index order.
            pub const ALL: [Counter; N_COUNTERS] = [$(Counter::$name),*];

            /// Stable snake_case name (used in reports and bench JSON).
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$name => $label,)*
                }
            }
        }
    };
}

counters! {
    /// PBQ messages enqueued (single-message sends).
    PbqEnq => "pbq_enq",
    /// PBQ messages dequeued (single-message receives).
    PbqDeq => "pbq_deq",
    /// PBQ send attempts that found the queue full (producer stall).
    PbqFullStall => "pbq_full_stall",
    /// PBQ batched send operations that moved at least one message.
    PbqSendBatches => "pbq_send_batches",
    /// Messages moved by batched sends (sum of batch sizes).
    PbqSendBatchMsgs => "pbq_send_batch_msgs",
    /// PBQ batched receive operations that moved at least one message.
    PbqRecvBatches => "pbq_recv_batches",
    /// Messages moved by batched receives (sum of batch sizes).
    PbqRecvBatchMsgs => "pbq_recv_batch_msgs",
    /// Cached-index misses: reloads of the opposite side's shared index.
    PbqIndexRefresh => "pbq_index_refresh",
    /// Rendezvous envelopes posted by receivers.
    EnvPost => "env_post",
    /// Rendezvous envelopes claimed and filled by senders (single copies).
    EnvClaim => "env_claim",
    /// Rendezvous envelopes withdrawn by a cancelling receiver.
    EnvCancel => "env_cancel",
    /// Filled envelopes consumed by receivers.
    EnvConsume => "env_consume",
    /// Collective rounds this rank arrived at (one SPTD arrival each).
    SptdRound => "sptd_round",
    /// Flat-combining folds performed as a leader (one per member payload).
    SptdLeaderCombine => "sptd_leader_combine",
    /// Fruitless SSW-Loop iterations spent spinning.
    SswSpin => "ssw_spin",
    /// SSW-Loop iterations that yielded the core (budget exhausted).
    SswYield => "ssw_yield",
    /// Steal probes of the active-task array.
    StealAttempt => "steal_attempt",
    /// Steal probes that found, claimed and executed a chunk.
    Steal => "steal",
}

// ---------------------------------------------------------------------------
// Per-rank counter registry
// ---------------------------------------------------------------------------

/// One rank's counter block. Aligned to two cachelines so adjacent ranks'
/// blocks never false-share; within a block only the owning rank writes.
#[repr(align(128))]
pub struct RankCounters {
    vals: [AtomicU64; N_COUNTERS],
}

impl Default for RankCounters {
    fn default() -> Self {
        Self {
            vals: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl RankCounters {
    /// Add `n` to counter `c` (relaxed; single-writer per block).
    #[inline]
    pub fn bump_by(&self, c: Counter, n: u64) {
        self.vals[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increment counter `c`.
    #[inline]
    pub fn bump(&self, c: Counter) {
        self.bump_by(c, 1);
    }

    /// Relaxed read of one counter (safe from any thread at any time).
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize].load(Ordering::Relaxed)
    }

    /// Consistent-enough snapshot of all counters: relaxed loads, each value
    /// monotonically ≤ any later load of the same counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            vals: std::array::from_fn(|i| self.vals[i].load(Ordering::Relaxed)),
        }
    }

    /// Install this block as the calling thread's telemetry sink. The
    /// returned guard uninstalls on drop; the block must outlive the guard
    /// (enforced by the `'static`-free borrow in the caller — `launch` keeps
    /// the registry alive in `Shared`). Public so external harnesses (model
    /// checker tests, micro-benchmarks) can route counts explicitly.
    pub fn install(&self) -> CounterGuard<'_> {
        TLS_COUNTERS.with(|t| t.set(self as *const RankCounters));
        CounterGuard { _block: self }
    }
}

impl fmt::Debug for RankCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RankCounters")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// Uninstalls the thread-local counter sink on drop.
pub struct CounterGuard<'a> {
    _block: &'a RankCounters,
}

impl Drop for CounterGuard<'_> {
    fn drop(&mut self) {
        TLS_COUNTERS.with(|t| t.set(std::ptr::null()));
    }
}

/// A point-in-time copy of one rank's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    vals: [u64; N_COUNTERS],
}

impl CounterSnapshot {
    /// Value of counter `c` at snapshot time.
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// `(name, value)` pairs of every nonzero counter.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .filter(|&&c| self.get(c) > 0)
            .map(|&c| (c.name(), self.get(c)))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Thread-local plumbing (the hot-path entry points)
// ---------------------------------------------------------------------------

thread_local! {
    static TLS_COUNTERS: StdCell<*const RankCounters> = const { StdCell::new(std::ptr::null()) };
    static TLS_TRACER: StdCell<*mut Tracer> = const { StdCell::new(std::ptr::null_mut()) };
}

/// Bump counter `c` on the calling thread's installed block, if any.
/// Threads without a block (unit tests, helpers, the watchdog) drop counts.
#[inline]
pub(crate) fn count(c: Counter) {
    count_by(c, 1);
}

/// As [`count`], adding `n` in one atomic op (used by wait loops that
/// accumulate locally and flush once).
#[inline]
pub(crate) fn count_by(c: Counter, n: u64) {
    if n == 0 {
        return;
    }
    TLS_COUNTERS.with(|t| {
        let p = t.get();
        if !p.is_null() {
            // SAFETY: the pointer was installed by `RankCounters::install`
            // whose guard clears it before the block can go away.
            unsafe { (*p).bump_by(c, n) };
        }
    });
}

// ---------------------------------------------------------------------------
// Event tracer
// ---------------------------------------------------------------------------

/// One trace event: an instant (`dur_ns == u64::MAX` sentinel is avoided —
/// instants carry `dur_ns == 0` and `kind` distinguishes them from
/// zero-length spans).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Static event name (becomes the Chrome `name` field).
    pub name: &'static str,
    /// Start time, nanoseconds since the launch epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Instant or span.
    pub kind: EventKind,
}

/// Chrome phase of a [`TraceEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A duration (`"X"` complete event).
    Span,
    /// A point event (`"i"` instant).
    Instant,
}

/// Fixed-capacity ring buffer of [`TraceEvent`]s, overwrite-oldest. All
/// storage is allocated up front; recording never allocates.
pub struct Tracer {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Total events ever recorded; `next slot = total % cap`.
    total: u64,
    epoch: Instant,
}

impl Tracer {
    /// A tracer of `capacity` events (min 1) timestamping against `epoch`
    /// (the launch birth instant, so all ranks share a timeline).
    pub fn new(capacity: usize, epoch: Instant) -> Self {
        let cap = capacity.max(1);
        Self {
            buf: Vec::with_capacity(cap),
            cap,
            total: 0,
            epoch,
        }
    }

    /// Nanoseconds since the shared epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            let i = (self.total % self.cap as u64) as usize;
            self.buf[i] = ev;
        }
        self.total += 1;
    }

    /// Record an instant event.
    #[inline]
    pub fn instant(&mut self, name: &'static str) {
        let ts = self.now_ns();
        self.push(TraceEvent {
            name,
            ts_ns: ts,
            dur_ns: 0,
            kind: EventKind::Instant,
        });
    }

    /// Record a span that started at `start_ns` and ends now.
    #[inline]
    pub fn span_end(&mut self, name: &'static str, start_ns: u64) {
        let end = self.now_ns();
        self.push(TraceEvent {
            name,
            ts_ns: start_ns,
            dur_ns: end.saturating_sub(start_ns),
            kind: EventKind::Span,
        });
    }

    /// Events recorded and still held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events overwritten by ring wrap-around (oldest-first eviction).
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// The retained events in recording order (oldest surviving first).
    pub fn events_in_order(&self) -> Vec<TraceEvent> {
        if self.buf.len() < self.cap {
            return self.buf.clone();
        }
        let split = (self.total % self.cap as u64) as usize;
        let mut out = Vec::with_capacity(self.cap);
        out.extend_from_slice(&self.buf[split..]);
        out.extend_from_slice(&self.buf[..split]);
        out
    }
}

/// Install `tracer` as the calling thread's span/instant sink; the guard
/// uninstalls on drop. The tracer must not be touched through other paths
/// while installed (the rank thread owns it exclusively).
pub(crate) fn install_tracer(tracer: &mut Tracer) -> TracerGuard<'_> {
    TLS_TRACER.with(|t| t.set(tracer as *mut Tracer));
    TracerGuard { _tracer: tracer }
}

/// Uninstalls the thread-local tracer on drop.
pub(crate) struct TracerGuard<'a> {
    _tracer: &'a mut Tracer,
}

impl Drop for TracerGuard<'_> {
    fn drop(&mut self) {
        TLS_TRACER.with(|t| t.set(std::ptr::null_mut()));
    }
}

/// An RAII span: created by [`span`], records `name` with the elapsed
/// duration into the thread's tracer on drop. Inert (no clock read) when no
/// tracer is installed.
pub(crate) struct Span {
    name: &'static str,
    /// `u64::MAX` marks an inert span (no tracer was installed at entry).
    start_ns: u64,
}

/// Open a span named `name` on the calling thread's tracer.
#[inline]
pub(crate) fn span(name: &'static str) -> Span {
    let start = TLS_TRACER.with(|t| {
        let p = t.get();
        if p.is_null() {
            u64::MAX
        } else {
            // SAFETY: installed by `install_tracer`, cleared before the
            // tracer moves; only this thread touches it.
            unsafe { (*p).now_ns() }
        }
    });
    Span {
        name,
        start_ns: start,
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if self.start_ns != u64::MAX {
            TLS_TRACER.with(|t| {
                let p = t.get();
                if !p.is_null() {
                    // SAFETY: as in `span`.
                    unsafe { (*p).span_end(self.name, self.start_ns) };
                }
            });
        }
    }
}

/// Record an instant event on the calling thread's tracer, if any.
#[inline]
pub(crate) fn instant(name: &'static str) {
    TLS_TRACER.with(|t| {
        let p = t.get();
        if !p.is_null() {
            // SAFETY: as in `span`.
            unsafe { (*p).instant(name) };
        }
    });
}

// ---------------------------------------------------------------------------
// The launch-level report
// ---------------------------------------------------------------------------

/// Aggregated telemetry of one launch: per-rank counter snapshots, per-rank
/// trace streams (empty unless tracing was enabled), and the interconnect's
/// global frame counters. Returned as `LaunchReport::stats`.
#[derive(Clone, Debug, Default)]
pub struct RuntimeStats {
    /// Counter snapshot per rank, indexed by rank.
    pub per_rank: Vec<CounterSnapshot>,
    /// Trace events per rank (recording order); empty when tracing was off.
    pub trace: Vec<Vec<TraceEvent>>,
    /// Raw frames pushed onto the simulated interconnect.
    pub net_frames: u64,
    /// Reliable-sublayer retransmissions.
    pub net_retransmits: u64,
    /// Reliable-sublayer cumulative ACK frames sent.
    pub net_acks: u64,
    /// Application frames packed into coalesced jumbo frames.
    pub net_coalesced: u64,
    /// Jumbo frames emitted by the coalescing layer (watermark flushes).
    pub net_coalesce_flushes: u64,
    /// ACK frames *saved* by batching (frames covered beyond one per ACK).
    pub net_acks_batched: u64,
    /// Progress-engine polls (ticks from ranks' SSW waits and exit drains).
    pub net_progress_polls: u64,
    /// Failure-detector heartbeat frames sent (idle-link liveness).
    pub net_heartbeats: u64,
    /// Peer condemnations issued by the failure detector.
    pub net_suspicions: u64,
    /// Condemned peers that later produced a frame (false suspects; counted
    /// once per peer).
    pub net_false_suspects: u64,
    /// Frame-pool acquisitions served from a recycled slab.
    pub pool_hits: u64,
    /// Frame-pool acquisitions that had to allocate a fresh slab.
    pub pool_misses: u64,
    /// Slabs returned to a pool free list on last-reference drop.
    pub pool_recycled: u64,
    /// Slabs freed outright (free list full, or pool already gone).
    pub pool_freed: u64,
    /// Coalesced subframes handed to the match store as zero-copy borrows
    /// of the arrived jumbo's slab (no scatter copy).
    pub net_frames_borrowed: u64,
    /// Payload bytes memcpy'd on the wire path: the protocol layer's
    /// user→wire gathers plus backend-internal serialize/parse copies
    /// (zero on the simulated fabric, which moves refcounts).
    pub net_memcpy_bytes: u64,
}

impl RuntimeStats {
    /// Sum of counter `c` across all ranks.
    pub fn total(&self, c: Counter) -> u64 {
        self.per_rank.iter().map(|s| s.get(c)).sum()
    }

    /// `total(num) / total(den)` as a float, 0 when the denominator is 0 —
    /// the shape used for the bench trajectory's telemetry ratios.
    pub fn ratio(&self, num: Counter, den: Counter) -> f64 {
        let d = self.total(den);
        if d == 0 {
            0.0
        } else {
            self.total(num) as f64 / d as f64
        }
    }

    /// Render the trace streams as Chrome `trace_event` JSON: an object with
    /// a `traceEvents` array of `"X"` (span) and `"i"` (instant) events,
    /// `pid` 0, one `tid` per rank, timestamps in microseconds. Loadable in
    /// `chrome://tracing` and Perfetto.
    pub fn chrome_trace(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (rank, events) in self.trace.iter().enumerate() {
            if !events.is_empty() {
                // Thread-name metadata so trace viewers label rows.
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\
                     \"args\":{{\"name\":\"rank {rank}\"}}}}"
                );
            }
            for ev in events {
                if !first {
                    out.push(',');
                }
                first = false;
                let ts = ev.ts_ns as f64 / 1e3;
                match ev.kind {
                    EventKind::Span => {
                        let dur = ev.dur_ns as f64 / 1e3;
                        let _ = write!(
                            out,
                            "{{\"name\":\"{}\",\"cat\":\"pure\",\"ph\":\"X\",\"pid\":0,\
                             \"tid\":{rank},\"ts\":{ts:.3},\"dur\":{dur:.3}}}",
                            ev.name
                        );
                    }
                    EventKind::Instant => {
                        let _ = write!(
                            out,
                            "{{\"name\":\"{}\",\"cat\":\"pure\",\"ph\":\"i\",\"s\":\"t\",\
                             \"pid\":0,\"tid\":{rank},\"ts\":{ts:.3}}}",
                            ev.name
                        );
                    }
                }
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }

    /// Multi-line per-rank counter summary for the diagnostic dump.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (rank, snap) in self.per_rank.iter().enumerate() {
            let nz = snap.nonzero();
            if nz.is_empty() {
                continue;
            }
            let _ = write!(out, "rank {rank:3} counters:");
            for (name, v) in nz {
                let _ = write!(out, " {name}={v}");
            }
            out.push('\n');
        }
        let _ = write!(
            out,
            "net: {} frames, {} retransmits, {} acks",
            self.net_frames, self.net_retransmits, self.net_acks
        );
        if self.net_coalesced > 0 || self.net_progress_polls > 0 {
            let _ = write!(
                out,
                "\nnet: {} frames coalesced into {} flushes, {} acks batched, \
                 {} progress polls",
                self.net_coalesced,
                self.net_coalesce_flushes,
                self.net_acks_batched,
                self.net_progress_polls
            );
        }
        if self.net_heartbeats > 0 || self.net_suspicions > 0 || self.net_false_suspects > 0 {
            let _ = write!(
                out,
                "\nnet: {} heartbeats, {} suspicions, {} false suspects",
                self.net_heartbeats, self.net_suspicions, self.net_false_suspects
            );
        }
        if self.pool_hits > 0 || self.pool_misses > 0 {
            let _ = write!(
                out,
                "\nnet: pool {} hits / {} misses ({} recycled, {} freed), \
                 {} frames borrowed, {} B memcpy",
                self.pool_hits,
                self.pool_misses,
                self.pool_recycled,
                self.pool_freed,
                self.net_frames_borrowed,
                self.net_memcpy_bytes
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique_and_ordered() {
        let mut seen = std::collections::HashSet::new();
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "discriminants must be dense");
            assert!(seen.insert(c.name()), "duplicate counter name {}", c.name());
        }
    }

    #[test]
    fn bump_and_snapshot_roundtrip() {
        let b = RankCounters::default();
        b.bump(Counter::PbqEnq);
        b.bump_by(Counter::PbqEnq, 4);
        b.bump(Counter::Steal);
        let s = b.snapshot();
        assert_eq!(s.get(Counter::PbqEnq), 5);
        assert_eq!(s.get(Counter::Steal), 1);
        assert_eq!(s.get(Counter::PbqDeq), 0);
        assert_eq!(s.nonzero(), vec![("pbq_enq", 5), ("steal", 1)]);
    }

    #[test]
    fn tls_counts_route_to_installed_block_only() {
        let b = RankCounters::default();
        count(Counter::PbqEnq); // no block installed: dropped
        {
            let _g = b.install();
            count(Counter::PbqEnq);
            count_by(Counter::PbqEnq, 2);
        }
        count(Counter::PbqEnq); // uninstalled again: dropped
        assert_eq!(b.snapshot().get(Counter::PbqEnq), 3);
    }

    #[test]
    fn tracer_overwrites_oldest_and_keeps_order() {
        let mut t = Tracer::new(4, Instant::now());
        for _ in 0..6 {
            t.instant("e");
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.total_recorded(), 6);
        assert_eq!(t.dropped(), 2);
        let evs = t.events_in_order();
        assert_eq!(evs.len(), 4);
        // The two oldest were evicted; the rest are in non-decreasing time
        // order (the recording order).
        for w in evs.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns, "ring rotation broke ordering");
        }
    }

    #[test]
    fn tracer_never_allocates_after_construction() {
        let mut t = Tracer::new(8, Instant::now());
        let cap_before = t.buf.capacity();
        for _ in 0..100 {
            t.instant("x");
            t.span_end("y", 0);
        }
        assert_eq!(t.buf.capacity(), cap_before);
    }

    #[test]
    fn chrome_trace_shape() {
        let stats = RuntimeStats {
            per_rank: vec![CounterSnapshot::default()],
            trace: vec![vec![
                TraceEvent {
                    name: "send",
                    ts_ns: 1_000,
                    dur_ns: 500,
                    kind: EventKind::Span,
                },
                TraceEvent {
                    name: "mark",
                    ts_ns: 2_000,
                    dur_ns: 0,
                    kind: EventKind::Instant,
                },
            ]],
            ..Default::default()
        };
        let json = stats.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"send\""));
        assert!(json.contains("\"tid\":0"));
    }

    #[test]
    fn span_guard_records_into_installed_tracer() {
        let mut t = Tracer::new(8, Instant::now());
        {
            let _g = install_tracer(&mut t);
            {
                let _s = span("op");
            }
            instant("tick");
        }
        let evs = t.events_in_order();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "op");
        assert_eq!(evs[0].kind, EventKind::Span);
        assert_eq!(evs[1].name, "tick");
        assert_eq!(evs[1].kind, EventKind::Instant);
    }
}
