//! The Pure runtime (§4): configuration, rank/thread bring-up, shared state,
//! and the per-rank context handed to application code.
//!
//! A Pure application is an SPMD function `Fn(&mut RankCtx)`. [`launch`]
//! spawns one OS thread per rank (ranks **are** threads — the paper's core
//! design decision), wires up the simulated multi-node topology, runs the
//! function on every rank, and returns aggregate statistics. On a real
//! cluster the paper pins threads to cores and spins; this port runs
//! wherever the OS puts it and backs its spin loops with a yield after a
//! configurable budget so oversubscribed runs stay live.

use crossbeam_utils::CachePadded;
use interleave::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::channel::{Channel, ChannelFactoryCfg, ChannelKey, ChannelTable, KeyHasher};
use crate::collectives::CollArea;
use crate::comm::{CommMeta, PureComm, TagBaseAlloc};
use crate::error::{payload_message, AbortCause, CrashStop, PeerAbortEcho, PureError, PureResult};
use crate::task::scheduler::{NodeScheduler, StealCtx};
use crate::task::ssw::{ssw_loop, WaitInterrupt};
use crate::task::{thunk_for, ChunkRange};
use crate::telemetry::{RankCounters, RuntimeStats, TraceEvent, Tracer};
use netsim::{Cluster, NetConfig, NodeEndpoint};

/// Application-level message tag. Tags with the top bit set are reserved for
/// the runtime (communicator construction).
pub type Tag = u32;

/// First runtime-internal tag; user tags must be below this.
pub(crate) const INTERNAL_TAG_BASE: Tag = 0x8000_0000;

/// What the runtime does when the failure detector condemns a peer node
/// while this launch is running (requires [`netsim::DetectPlan`] armed via
/// [`NetConfig::with_detection`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OnPeerDeath {
    /// Fail fast (the default): the first rank whose wait observes the
    /// condemnation escalates [`PureError::PeerDead`] through the abort
    /// machinery, so the whole launch unwinds with a structured cause.
    #[default]
    Abort,
    /// ULFM-style recovery: *fallible* operations (`send_timeout`,
    /// `recv_timeout`, …) **return** [`PureError::PeerDead`] when they
    /// involve a condemned peer, keeping the launch alive so survivors can
    /// [`crate::PureComm::revoke`], [`crate::PureComm::agree`] and
    /// [`crate::PureComm::shrink`]. Infallible operations (plain
    /// `send`/`recv`, collectives) still fail-stop — they have no error
    /// channel — so recovery-minded code must use the fallible variants on
    /// paths that may involve a dying peer (see DESIGN.md §7).
    Revoke,
}

/// Runtime configuration — the knobs the paper exposes through its Makefile
/// (threshold sizes, processes per node, helper threads)
/// plus this port's additions (simulated network, spin budget).
#[derive(Clone, Debug)]
pub struct Config {
    /// Total ranks (fixed for the program's lifetime, like MPI).
    pub ranks: usize,
    /// Ranks per simulated node; 0 means "all ranks on one node".
    pub ranks_per_node: usize,
    /// Explicit rank→node map (CrayPAT-style reordering); overrides
    /// `ranks_per_node` when set.
    pub rank_map: Option<Vec<usize>>,
    /// PBQ/rendezvous threshold in bytes (paper default: 8 KiB).
    pub small_msg_max: usize,
    /// Flat-combining/partitioned-reducer threshold in bytes (paper: 2 KiB).
    pub small_coll_max: usize,
    /// Message slots per PBQ.
    pub pbq_slots: usize,
    /// Envelope slots per rendezvous channel.
    pub env_slots: usize,
    /// SSW-Loop spins before yielding the core.
    pub spin_budget: u32,
    /// Dedicated helper (steal-only) threads per node (§5.1, DT size A).
    pub helpers_per_node: usize,
    /// Simulated interconnect parameters. Its progress engine is driven by
    /// the ranks themselves, from their SSW-Loop waits.
    pub net: NetConfig,
    /// Base seed for the steal RNGs.
    pub seed: u64,
    /// Global progress deadline: if any blocking wait makes no progress for
    /// this long, the launch aborts with a diagnostic dump instead of
    /// hanging. `None` (the default) keeps every wait unbounded, exactly as
    /// the paper's runtime behaves.
    pub progress_deadline: Option<Duration>,
    /// Intra-node fault injection (slow ranks, die-at-step) for robustness
    /// tests; inert by default.
    pub rank_faults: RankFaults,
    /// Policy when the failure detector condemns a peer node (see
    /// [`OnPeerDeath`]); fail-fast [`OnPeerDeath::Abort`] by default.
    pub on_peer_death: OnPeerDeath,
    /// Cap on the reliable-sublayer drain each rank performs at exit
    /// (`finalize`): with a dead peer holding unACKed frames the linger
    /// would otherwise only end when the detector condemns the peer; this
    /// deadline bounds teardown unconditionally. A configured
    /// [`Config::progress_deadline`] lowers it further, never raises it.
    pub finalize_linger: Duration,
    /// Runtime telemetry counters. On by default (an uncontended relaxed add
    /// per instrumented event); `false` leaves the thread-local sink
    /// uninstalled so every bump is a null-check no-op.
    pub telemetry: bool,
    /// Per-rank ring-tracer capacity in events; `0` (the default) disables
    /// tracing. When enabled, `LaunchReport::stats.trace` holds each rank's
    /// retained events and
    /// [`RuntimeStats::chrome_trace`](crate::telemetry::RuntimeStats::chrome_trace)
    /// exports them for `chrome://tracing`/Perfetto.
    pub trace_events: usize,
}

/// Injectable intra-node faults, counted in *blocking operations* (sends,
/// receives, collectives) per rank. Complements `netsim`'s frame-level
/// fault plan, which covers the internode paths.
#[derive(Clone, Copy, Debug, Default)]
pub struct RankFaults {
    /// `(rank, n)`: the given rank panics on its `n`-th blocking operation.
    pub die_at: Option<(usize, u64)>,
    /// `(rank, pause)`: the given rank sleeps `pause` before every blocking
    /// operation, simulating a straggler.
    pub slow: Option<(usize, Duration)>,
    /// `(rank, n)`: the given rank **crash-stops** on its `n`-th blocking
    /// operation — it silences its node's endpoint (the node stops sending
    /// *and* receiving; endpoint silence is node-granular, so crash tests
    /// run one rank per node) and unwinds without any abort broadcast.
    /// Unlike [`RankFaults::die_at`], survivors are not told: they must
    /// detect the silence via an armed [`netsim::DetectPlan`].
    pub crash_at: Option<(usize, u64)>,
}

impl RankFaults {
    /// True when any fault is armed.
    pub fn enabled(&self) -> bool {
        self.die_at.is_some() || self.slow.is_some() || self.crash_at.is_some()
    }
}

impl Config {
    /// Defaults matching the paper's configuration, all ranks on one node.
    pub fn new(ranks: usize) -> Self {
        Self {
            ranks,
            ranks_per_node: 0,
            rank_map: None,
            small_msg_max: 8 * 1024,
            small_coll_max: 2 * 1024,
            pbq_slots: 8,
            env_slots: 8,
            spin_budget: 64,
            helpers_per_node: 0,
            net: NetConfig::default(),
            seed: 0x5EED,
            progress_deadline: None,
            rank_faults: RankFaults::default(),
            on_peer_death: OnPeerDeath::default(),
            finalize_linger: Duration::from_secs(2),
            telemetry: true,
            trace_events: 0,
        }
    }

    /// Split the ranks over nodes of `rpn` ranks each.
    pub fn with_ranks_per_node(mut self, rpn: usize) -> Self {
        self.ranks_per_node = rpn;
        self
    }

    /// Set the interconnect model.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Enable outbound frame coalescing on the interconnect.
    pub fn with_coalescing(mut self, plan: netsim::CoalescePlan) -> Self {
        self.net.coalesce = Some(plan);
        self
    }

    /// Select the raw transport backend carrying cross-node frames (the
    /// simulated fabric, or real TCP sockets over a loopback mesh).
    pub fn with_transport(mut self, backend: netsim::Backend) -> Self {
        self.net.backend = backend;
        self
    }

    /// The configured raw transport backend.
    pub fn transport(&self) -> netsim::Backend {
        self.net.backend
    }

    /// Bound every blocking wait by `d` (see [`Config::progress_deadline`]).
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.progress_deadline = Some(d);
        self
    }

    /// Arm intra-node fault injection.
    pub fn with_rank_faults(mut self, faults: RankFaults) -> Self {
        self.rank_faults = faults;
        self
    }

    /// Select the peer-death policy (see [`OnPeerDeath`]).
    pub fn with_on_peer_death(mut self, policy: OnPeerDeath) -> Self {
        self.on_peer_death = policy;
        self
    }

    /// Bound the reliable-sublayer drain at rank exit (see
    /// [`Config::finalize_linger`]).
    pub fn with_finalize_linger(mut self, d: Duration) -> Self {
        self.finalize_linger = d;
        self
    }

    /// Enable the per-rank event tracer with room for `events` events per
    /// rank (see [`Config::trace_events`]).
    pub fn with_trace(mut self, events: usize) -> Self {
        self.trace_events = events;
        self
    }

    /// Toggle the runtime counter registry (see [`Config::telemetry`]).
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    fn node_of(&self, rank: usize) -> usize {
        if let Some(map) = &self.rank_map {
            map[rank]
        } else {
            rank.checked_div(self.ranks_per_node).unwrap_or(0)
        }
    }
}

/// Per-rank statistics reported by [`launch`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RankStats {
    /// Point-to-point messages sent.
    pub msgs_sent: u64,
    /// Point-to-point payload bytes sent.
    pub bytes_sent: u64,
    /// Point-to-point messages received.
    pub msgs_recvd: u64,
    /// Collective operations entered.
    pub collectives: u64,
    /// Chunks executed as a thief (one per successful steal).
    pub chunks_stolen: u64,
    /// Chunks executed as the owning rank.
    pub chunks_owned: u64,
}

/// What [`launch`] returns.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    /// Per-rank statistics, indexed by rank.
    pub per_rank: Vec<RankStats>,
    /// Cross-node (messages, bytes) on the simulated interconnect.
    pub net_traffic: (u64, u64),
    /// Fault-injection counters `(dropped, duplicated, retransmits)` on the
    /// interconnect; all zero unless a `FaultPlan` was configured.
    pub net_faults: (u64, u64, u64),
    /// Wall-clock time of the SPMD region.
    pub elapsed: Duration,
    /// Ranks that crash-stopped via an injected [`RankFaults::crash_at`]
    /// fault (empty in healthy runs). Their result slots are `None` in
    /// [`launch_surviving`]'s output.
    pub crashed: Vec<usize>,
    /// Runtime telemetry: per-rank counter snapshots, trace streams (when
    /// [`Config::trace_events`] > 0) and interconnect frame counters.
    pub stats: RuntimeStats,
}

impl LaunchReport {
    /// Total chunks executed by thieves.
    pub fn total_chunks_stolen(&self) -> u64 {
        self.per_rank.iter().map(|r| r.chunks_stolen).sum()
    }
}

/// Declares [`WaitOp`] from one `Variant => "label"` list, so a label can
/// never drift from the variant that names it.
macro_rules! wait_ops {
    ($($name:ident => $label:literal,)*) => {
        /// What a blocked rank waits for: one variant per blocking wait of
        /// the runtime. A `u8`, so [`RankHealth`] publishes it with one
        /// lock-free store; [`WaitOp::label`] is what the diagnostic dump,
        /// the watchdog and every wait error print.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub(crate) enum WaitOp {
            $($name,)*
        }

        impl WaitOp {
            const LABELS: &'static [&'static str] = &[$($label),*];
        }
    };
}

wait_ops! {
    Send => "send",
    SendUnwithdrawable => "send (unwithdrawable)",
    Recv => "recv",
    RecvFinishing => "recv (finishing)",
    IsendWait => "isend wait",
    IrecvWait => "irecv wait",
    WaitAll => "wait_all",
    CollArrivals => "collective arrivals",
    CollLeaderResult => "collective leader result",
    CollDoneBackedges => "collective done backedges",
    ReducerScratch => "reducer scratch",
    BcastPayload => "bcast payload",
    AgreeGate => "agree gate",
    LeaderCollective => "leader collective",
    SurvivorAgreement => "survivor agreement",
}

impl WaitOp {
    /// The label printed for this wait.
    pub(crate) fn label(self) -> &'static str {
        Self::LABELS[self as usize]
    }
}

/// Per-rank liveness record for the progress watchdog and diagnostic dump.
/// Written only in robust mode (deadline or fault injection armed), and
/// only by a wait that has to yield: a wait stamps it at its first interrupt
/// probe (the 64th fruitless poll), so a wait the peer satisfies sooner
/// writes nothing. Each rank's record sits on its own cache line
/// ([`Shared::health`]), so stamping never touches a line a peer writes.
pub(crate) struct RankHealth {
    /// When the last wait that had to yield finished (ns since launch
    /// birth, `0` = no wait has yielded yet).
    pub hb_ns: AtomicU64,
    /// When the current wait reached its first probe (ns, `0` = not in a
    /// yielding wait). Stored with `Release` after `wait_op`.
    pub wait_since_ns: AtomicU64,
    /// [`WaitOp`] of the wait stamped in `wait_since_ns`.
    pub wait_op: AtomicU8,
}

impl RankHealth {
    fn new() -> Self {
        Self {
            hb_ns: AtomicU64::new(0),
            wait_since_ns: AtomicU64::new(0),
            wait_op: AtomicU8::new(0),
        }
    }

    /// The rank's current yielding wait: its label and when it reached its
    /// first probe, or `None` when the rank is not in one.
    fn waiting(&self) -> Option<(&'static str, u64)> {
        let since = self.wait_since_ns.load(Ordering::Acquire);
        let op = WaitOp::LABELS[self.wait_op.load(Ordering::Relaxed) as usize];
        (since != 0).then_some((op, since))
    }
}

/// Rendezvous state of one [`crate::PureComm::agree`] round: members check
/// in (`arrived`), and the first member past the gate pins the failure view
/// every participant of the round returns — so the agreed view is identical
/// across survivors *by construction*, whatever order their detectors
/// condemned the dead.
pub(crate) struct AgreeCell {
    /// Members that entered this agree round.
    pub arrived: AtomicU64,
    /// The pinned failure view (condemned node ids, ascending); `None`
    /// until the first member passes the gate.
    pub view: Mutex<Option<Vec<usize>>>,
}

/// Global state shared by all ranks of one launch.
pub(crate) struct Shared {
    pub cfg: Config,
    /// Launch epoch for `wtime`.
    pub birth: Instant,
    /// rank → node.
    pub rank_node: Vec<usize>,
    /// rank → local thread index within its node.
    pub rank_local: Vec<usize>,
    pub cluster: Cluster,
    pub channels: ChannelTable,
    pub chan_cfg: ChannelFactoryCfg,
    pub scheds: Vec<Arc<NodeScheduler>>,
    /// Per-node registry of communicator collective areas (keyed by comm id).
    pub areas: Vec<Mutex<HashMap<u64, Arc<CollArea>>>>,
    /// Launch-wide cross-node tag-base registry: every communicator id gets
    /// a disjoint 256-tag window, assigned at registration (split) time, so
    /// wire tags of distinct live communicators can never collide.
    pub tag_bases: Mutex<TagBaseAlloc>,
    /// Per-rank liveness, indexed by rank, one cache line each.
    pub health: Vec<CachePadded<RankHealth>>,
    /// First fatal failure of the launch (echoes never displace a primary).
    pub abort_cause: Mutex<Option<AbortCause>>,
    /// Ranks that crash-stopped (injected [`RankFaults::crash_at`]).
    pub crashed: Mutex<Vec<usize>>,
    /// Per-`(comm id, agree round)` rendezvous state for
    /// [`crate::PureComm::agree`] (see [`AgreeCell`]).
    pub agree_cells: Mutex<HashMap<(u64, u64), Arc<AgreeCell>>>,
    /// Rank threads still running their SPMD function. Detect-armed runs
    /// keep exited ranks' endpoints ticking until this drains, so a rank
    /// that merely *finished early* keeps heartbeating and is never
    /// condemned as dead by a slower peer.
    pub live_ranks: AtomicU64,
    /// Ensures the diagnostic dump prints at most once per launch.
    pub dumped: AtomicBool,
    /// True when health bookkeeping is on (deadline, rank faults or net
    /// faults armed); false keeps the default wait paths clock-free.
    pub robust: bool,
    /// Per-rank telemetry counter blocks, indexed by rank. Always allocated
    /// (it is a few cachelines per rank); whether rank threads install them
    /// is governed by [`Config::telemetry`].
    pub telemetry: Vec<RankCounters>,
}

impl Shared {
    /// Fetch or create the collective area of comm `id` on `node` for a node
    /// group of `members` threads.
    pub fn area(&self, node: usize, id: u64, members: usize) -> Arc<CollArea> {
        let mut reg = self.areas[node].lock();
        let a = reg
            .entry(id)
            .or_insert_with(|| Arc::new(CollArea::new(members, self.cfg.small_coll_max)));
        assert_eq!(
            a.members(),
            members,
            "inconsistent node group for comm {id}"
        );
        Arc::clone(a)
    }

    /// Nanoseconds since this launch started (the epoch of all health
    /// timestamps; stored `max 1` so `0` can mean "never"/"not waiting").
    pub fn now_ns(&self) -> u64 {
        (self.birth.elapsed().as_nanos() as u64).max(1)
    }

    /// Record a launch failure. The first *primary* (non-echo) cause wins;
    /// an echo is kept only until a primary arrives.
    pub fn record_abort(&self, rank: usize, what: String, echo: bool) {
        let mut g = self.abort_cause.lock();
        match &*g {
            // Keep the incumbent unless it is an echo being displaced by a
            // primary cause.
            Some(c) if !c.echo || echo => {}
            _ => *g = Some(AbortCause { rank, what, echo }),
        }
    }

    /// Raise the abort flag on every node, unwinding all blocked ranks.
    pub fn abort_all(&self) {
        for s in &self.scheds {
            s.set_abort();
        }
    }

    /// Fetch or create the rendezvous cell of agree round `round` on comm
    /// `comm` (see [`AgreeCell`]).
    pub fn agree_cell(&self, comm: u64, round: u64) -> Arc<AgreeCell> {
        Arc::clone(
            self.agree_cells
                .lock()
                .entry((comm, round))
                .or_insert_with(|| {
                    Arc::new(AgreeCell {
                        arrived: AtomicU64::new(0),
                        view: Mutex::new(None),
                    })
                }),
        )
    }

    /// Print the diagnostic dump to stderr, at most once per launch. When
    /// `PURE_HANG_DUMP` names a file the dump is also appended there, so CI
    /// can upload it as an artifact after a watchdog abort (stderr of a
    /// wedged test process is often truncated by the harness).
    pub fn dump_diagnostics_once(&self) {
        if !self.dumped.swap(true, Ordering::SeqCst) {
            let dump = self.dump_diagnostics();
            eprintln!("{dump}");
            if let Ok(path) = std::env::var("PURE_HANG_DUMP") {
                if !path.is_empty() {
                    use std::io::Write as _;
                    if let Ok(mut f) = std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&path)
                    {
                        let _ = writeln!(f, "{dump}");
                    }
                }
            }
        }
    }

    /// Snapshot of runtime state for the failure report: per-rank liveness,
    /// channel occupancy, per-node collective rounds, interconnect counters.
    /// Reads only atomics and try-locks — safe to call from the watchdog
    /// while ranks are wedged mid-operation.
    pub fn dump_diagnostics(&self) -> String {
        use std::fmt::Write as _;
        let now = self.now_ns();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== pure diagnostic dump (t = {:.3}s) ===",
            now as f64 / 1e9
        );
        for (r, h) in self.health.iter().enumerate() {
            let hb = h.hb_ns.load(Ordering::Relaxed);
            let _ = write!(
                out,
                "rank {r:3} (node {}, thread {}): ",
                self.rank_node[r], self.rank_local[r]
            );
            if let Some((op, since)) = h.waiting() {
                let _ = writeln!(
                    out,
                    "WAITING {:>10.3}ms in {op}",
                    now.saturating_sub(since) as f64 / 1e6
                );
            } else if hb != 0 {
                let _ = writeln!(
                    out,
                    "running (last yielding wait finished {:.3}ms ago)",
                    now.saturating_sub(hb) as f64 / 1e6
                );
            } else {
                let _ = writeln!(out, "running (no wait has yielded)");
            }
        }
        let (n_chans, occupied) = self.channels.occupancy_summary();
        let _ = writeln!(
            out,
            "channels: {n_chans} created, {occupied} with in-flight messages"
        );
        for (node, areas) in self.areas.iter().enumerate() {
            if let Some(reg) = areas.try_lock() {
                for (id, a) in reg.iter() {
                    let _ = writeln!(
                        out,
                        "node {node} comm {id:#x}: collective round {}",
                        a.leader_seq()
                    );
                }
            }
        }
        let (msgs, bytes) = self.cluster.stats().snapshot();
        let (dropped, dup, retx) = self.cluster.stats().fault_snapshot();
        let _ = writeln!(
            out,
            "net: {msgs} msgs, {bytes} bytes; faults: {dropped} dropped, \
             {dup} duplicated, {retx} retransmits"
        );
        // Per-node progress-engine state: inbox depth, jumbo-rx queue,
        // retransmit backlog, and — when detection is armed — per-peer
        // last-liveness age and the heartbeat/suspicion verdicts.
        if self.cluster.len() > 1 {
            let _ = writeln!(out, "{}", self.cluster.progress_debug());
        }
        let _ = writeln!(out, "{}", self.runtime_stats(Vec::new()).summary());
        let _ = write!(out, "=== end dump ===");
        out
    }

    /// Snapshot the telemetry registry (plus the interconnect's reliable
    /// counters) into a [`RuntimeStats`], attaching `trace` as the per-rank
    /// event streams. Relaxed reads only — safe mid-run (the watchdog calls
    /// it while ranks are wedged).
    pub fn runtime_stats(&self, trace: Vec<Vec<TraceEvent>>) -> RuntimeStats {
        let (net_frames, net_retransmits, net_acks) = self.cluster.stats().reliable_snapshot();
        let (net_coalesced, net_coalesce_flushes, net_acks_batched, net_progress_polls) =
            self.cluster.stats().coalesce_snapshot();
        let (net_heartbeats, net_suspicions, net_false_suspects) =
            self.cluster.stats().health_snapshot();
        let pool = self.cluster.pool_snapshot();
        RuntimeStats {
            per_rank: self.telemetry.iter().map(|b| b.snapshot()).collect(),
            trace,
            net_frames,
            net_retransmits,
            net_acks,
            net_coalesced,
            net_coalesce_flushes,
            net_acks_batched,
            net_progress_polls,
            net_heartbeats,
            net_suspicions,
            net_false_suspects,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            pool_recycled: pool.recycled,
            pool_freed: pool.freed,
            net_frames_borrowed: self.cluster.stats().copy_snapshot().1,
            net_memcpy_bytes: self.cluster.memcpy_bytes(),
        }
    }
}

/// Fastest cooperative net-tick gate: one tick per 64 SSW polls.
pub(crate) const NET_TICK_SHIFT_MIN: u32 = 6;
/// Slowest cooperative net-tick gate after a fruitless streak: one tick
/// per 4096 SSW polls. A poll count is not a time, so with the failure
/// detector armed a heartbeat-interval floor also forces ticks
/// (`RankLocal::heartbeat_due`).
pub(crate) const NET_TICK_SHIFT_MAX: u32 = 12;

/// The peer world ranks a blocked wait is waiting on: the rank its errors
/// name, and the ranks its probe checks for condemnation under
/// [`OnPeerDeath::Revoke`]. One optional peer for most waits; a batch wait
/// has one per incomplete request.
pub(crate) trait WaitPeers {
    /// The first peer for which `hit` holds.
    fn find(&self, hit: impl Fn(usize) -> bool) -> Option<usize>;
}

impl WaitPeers for Option<usize> {
    fn find(&self, hit: impl Fn(usize) -> bool) -> Option<usize> {
        self.filter(|&p| hit(p))
    }
}

/// A rank's private handle on a channel: an `Rc` around the node-shared
/// `Arc<Channel>`. Cloning it for a message, a [`crate::Request`] or the
/// pending-send list bumps a count only this rank's thread touches; the
/// shared `Arc` count is written once, when the rank first looks the
/// channel up.
pub(crate) type ChannelHandle = Rc<Arc<Channel>>;

/// Per-rank runtime state (thread-local by construction; not `Send`).
pub(crate) struct RankLocal {
    pub rank: usize,
    pub node: usize,
    pub local_idx: usize,
    pub shared: Arc<Shared>,
    pub sched: Arc<NodeScheduler>,
    pub ep: NodeEndpoint,
    pub steal: RefCell<StealCtx>,
    pub chan_cache: RefCell<HashMap<ChannelKey, ChannelHandle, KeyHasher>>,
    /// Channels with sends this rank posted but could not yet flush; the
    /// SSW-Loop drains them (an MPI-style progress engine: a rank blocked
    /// receiving still completes its own outgoing traffic).
    pub pending_sends: RefCell<Vec<ChannelHandle>>,
    pub msgs_sent: Cell<u64>,
    pub bytes_sent: Cell<u64>,
    pub msgs_recvd: Cell<u64>,
    pub collectives: Cell<u64>,
    /// Blocking operations completed (drives [`RankFaults`] injection).
    pub op_count: Cell<u64>,
    /// True when this rank ticks the net progress engine from its SSW waits
    /// (coalescing, frame faults, failure detection or TCP armed, more than
    /// one node).
    pub net_active: bool,
    /// SSW poll counter gating the cooperative net ticks.
    pub net_poll: Cell<u32>,
    /// Adaptive gate on the cooperative net ticks: a tick fires every
    /// `1 << net_tick_shift` SSW polls. Fruitless ticks widen the gate
    /// (up to [`NET_TICK_SHIFT_MAX`]) so an idle backend — a real socket
    /// in particular — is not busy-polled from every blocked wait;
    /// productive ticks snap it back to [`NET_TICK_SHIFT_MIN`].
    pub net_tick_shift: Cell<u32>,
    /// Launch clock (ns) of the last net tick the heartbeat time floor
    /// forced; read only when the failure detector is armed.
    pub net_tick_ns: Cell<u64>,
    /// True when the crash-stop failure detector is armed on a multi-node
    /// cluster: every SSW wait installs the peer-death probe.
    pub detect_active: bool,
    /// Communicator of the operation this rank is currently inside
    /// (`None` inside [`crate::PureComm::agree`], which revocation must
    /// not stop); the revocation probe loads only this comm's flag.
    pub cur_comm: RefCell<Option<Arc<CommMeta>>>,
}

impl RankLocal {
    /// Channel lookup with a rank-local cache in front of the global table
    /// (the paper's persistent-channel reuse). A hit writes no cache line
    /// the peer rank touches (see [`ChannelHandle`]).
    pub fn channel(&self, key: ChannelKey) -> ChannelHandle {
        if let Some(ch) = self.chan_cache.borrow().get(&key) {
            return Rc::clone(ch);
        }
        let s = &self.shared;
        let (sn, dn) = (s.rank_node[key.src as usize], s.rank_node[key.dst as usize]);
        let (sl, dl) = (
            s.rank_local[key.src as usize],
            s.rank_local[key.dst as usize],
        );
        let ch = Rc::new(s.channels.get_or_create(key, &s.chan_cfg, sn, dn, sl, dl));
        self.chan_cache.borrow_mut().insert(key, Rc::clone(&ch));
        ch
    }

    /// Count one completed point-to-point send of `bytes` payload bytes.
    pub(crate) fn count_sent(&self, bytes: usize) {
        self.msgs_sent.set(self.msgs_sent.get() + 1);
        self.bytes_sent.set(self.bytes_sent.get() + bytes as u64);
    }

    /// Count one completed point-to-point receive.
    pub(crate) fn count_recvd(&self) {
        self.msgs_recvd.set(self.msgs_recvd.get() + 1);
    }

    /// Remember a channel with unfinished sends for background progress.
    pub fn note_pending_send(&self, ch: &ChannelHandle) {
        let mut v = self.pending_sends.borrow_mut();
        if !v.iter().any(|c| Rc::ptr_eq(c, ch)) {
            v.push(Rc::clone(ch));
        }
    }

    /// Flush every registered pending send as far as possible.
    pub fn progress_sends(&self) {
        let mut v = self.pending_sends.borrow_mut();
        if v.is_empty() {
            return;
        }
        let ep = &self.ep;
        v.retain(|ch| !ch.try_flush_all_sends(ep));
    }

    /// Run the SSW-Loop until `poll` yields a value, progressing this
    /// rank's pending sends on every iteration. Bounded by the launch-wide
    /// progress deadline (when configured); every interrupt escalates
    /// instead of returning, so callers stay infallible.
    /// `op`/`peers`/`tag` label the wait for the diagnostic dump and error.
    pub fn ssw_op<T>(
        &self,
        op: WaitOp,
        peers: impl WaitPeers,
        tag: Option<Tag>,
        poll: impl FnMut() -> Option<T>,
    ) -> T {
        let deadline = self.shared.cfg.progress_deadline;
        self.ssw_wait(op, peers, tag, deadline, poll)
            .unwrap_or_else(|e| self.escalate(e))
    }

    /// Fallible SSW wait with a caller-supplied deadline: `Timeout` is
    /// *returned* (the caller can cancel and recover). A peer-death verdict
    /// escalates under [`OnPeerDeath::Abort`] and is *returned* under
    /// [`OnPeerDeath::Revoke`] (the ULFM-style recovery path); a revoked
    /// communicator is always returned (revocation exists to be handled).
    pub fn ssw_try_op<T>(
        &self,
        op: WaitOp,
        peer: Option<usize>,
        tag: Option<Tag>,
        deadline: Duration,
        poll: impl FnMut() -> Option<T>,
    ) -> PureResult<T> {
        self.ssw_wait(op, peer, tag, Some(deadline), poll)
            .map_err(|e| match e {
                PureError::PeerDead { .. }
                    if self.shared.cfg.on_peer_death == OnPeerDeath::Abort =>
                {
                    self.escalate(e)
                }
                e => e,
            })
    }

    /// True when the failure detector is armed and a heartbeat interval
    /// has passed since this check last answered `true`: a time floor under
    /// the cooperative net ticks. On an oversubscribed host every
    /// fruitless SSW poll yields the core, so the poll-count gate alone can
    /// stretch to tens of milliseconds and let the node's heartbeats lapse
    /// past the suspicion threshold while its ranks are alive.
    fn heartbeat_due(&self) -> bool {
        let Some(plan) = self.shared.cfg.net.detect.filter(|_| self.detect_active) else {
            return false;
        };
        let now = self.shared.now_ns();
        if now.saturating_sub(self.net_tick_ns.get()) < plan.hb_interval_ns {
            return false;
        }
        self.net_tick_ns.set(now);
        true
    }

    /// The per-wait interrupt probe (checked every 64 fruitless SSW
    /// iterations): revocation of the current communicator first, then the
    /// failure detector's verdicts. Under [`OnPeerDeath::Abort`] *any*
    /// condemned peer unwinds the wait (the launch is about to die anyway);
    /// under [`OnPeerDeath::Revoke`] only a wait on one of `peers` living
    /// on a condemned node fires, so survivors keep operating among
    /// themselves.
    fn wait_probe(&self, peers: &impl WaitPeers) -> Option<WaitInterrupt> {
        if let Some(c) = &*self.cur_comm.borrow() {
            if c.revoked.load(Ordering::Acquire) {
                return Some(WaitInterrupt::Revoked { comm: c.id });
            }
        }
        if self.detect_active {
            match self.shared.cfg.on_peer_death {
                OnPeerDeath::Abort => {
                    if let Some((node, epoch)) = self.ep.any_dead_peer() {
                        return Some(WaitInterrupt::PeerDead { node, epoch });
                    }
                }
                OnPeerDeath::Revoke => {
                    let node_of = |p: usize| self.shared.rank_node[p];
                    let dead = peers.find(|p| self.ep.peer_dead(node_of(p)).is_some())?;
                    let node = node_of(dead);
                    let epoch = self.ep.peer_dead(node)?;
                    return Some(WaitInterrupt::PeerDead { node, epoch });
                }
            }
        }
        None
    }

    /// The one SSW wait every blocked rank runs (p2p, requests and their
    /// batches, collectives, and the leaders' cross-node waits): health
    /// bookkeeping in the interruptible loop, then the one translation
    /// of an interrupt into a [`PureError`]. A peer abort never returns —
    /// the launch is already dying, so it unwinds as an echo; every other
    /// interrupt comes back for the caller's policy (escalate, return, or
    /// split on [`OnPeerDeath`]). A timeout names the first of `peers`; a
    /// peer-death verdict names the one of `peers` on the condemned node,
    /// or that node's lowest world rank when the wait was not addressed to
    /// it.
    ///
    /// Each fruitless poll first puts this rank's own buffered cross-node
    /// subframes on the wire, once they have lingered 20 µs
    /// ([`NodeEndpoint::flush_sent`]): a rank that has started waiting has
    /// nothing more to add to a coalescing batch, and the message it is
    /// waiting for is often the reply to one sitting in that batch. This
    /// holds whatever the wait polls, an intra-node queue after a cross-node
    /// `isend` included; a rank with nothing buffered pays one relaxed load.
    ///
    /// In robust mode the wait stamps this rank's [`RankHealth`] at its
    /// first probe, where `ssw_loop` also starts the deadline clock, and
    /// clears it on exit. A wait satisfied before its 64th fruitless poll
    /// therefore reads no clock and writes no shared line: the watchdog
    /// only looks at waits far older than that.
    pub(crate) fn ssw_wait<T>(
        &self,
        op: WaitOp,
        peers: impl WaitPeers,
        tag: Option<Tag>,
        deadline: Option<Duration>,
        mut poll: impl FnMut() -> Option<T>,
    ) -> PureResult<T> {
        let health = self.shared.robust.then(|| &self.shared.health[self.rank]);
        let stamped = Cell::new(false);
        let res = ssw_loop(
            &self.sched,
            &self.steal,
            deadline,
            || {
                if let Some(h) = health {
                    if !stamped.replace(true) {
                        h.wait_op.store(op as u8, Ordering::Relaxed);
                        h.wait_since_ns
                            .store(self.shared.now_ns(), Ordering::Release);
                    }
                }
                self.wait_probe(&peers)
            },
            || {
                self.progress_sends();
                if let Some(v) = poll() {
                    return Some(v);
                }
                self.ep.flush_sent();
                if self.net_active {
                    // Cooperative progress engine: every blocked rank ticks
                    // the node endpoint occasionally, so a computing
                    // neighbour's aged coalesce buffers flush, reliable
                    // retransmits/ACKs fire and the failure detector keeps
                    // heartbeating even while every rank on the node is
                    // parked in an intra-node wait.
                    // The gate is adaptive: fruitless ticks widen it (a
                    // real socket must not be hammered from every blocked
                    // wait), productive ones snap it back to the floor.
                    // With the detector armed, a heartbeat interval of wall
                    // time also forces a tick.
                    let n = self.net_poll.get().wrapping_add(1);
                    self.net_poll.set(n);
                    let shift = self.net_tick_shift.get();
                    if n & ((1 << shift) - 1) == 0 || self.heartbeat_due() {
                        if self.ep.progress() {
                            self.net_tick_shift.set(NET_TICK_SHIFT_MIN);
                        } else {
                            self.net_tick_shift.set((shift + 1).min(NET_TICK_SHIFT_MAX));
                        }
                    }
                }
                None
            },
        );
        if let Some(h) = health.filter(|_| stamped.get()) {
            h.hb_ns.store(self.shared.now_ns(), Ordering::Relaxed);
            h.wait_since_ns.store(0, Ordering::Relaxed);
        }
        let rank = self.rank;
        let op = op.label();
        res.map_err(|why| match why {
            WaitInterrupt::Aborted => self.escalate(PureError::PeerAborted { rank, op }),
            WaitInterrupt::TimedOut(elapsed) => PureError::Timeout {
                rank,
                op,
                peer: peers.find(|_| true),
                tag,
                elapsed,
            },
            WaitInterrupt::PeerDead { node, epoch } => {
                let rank_node = &self.shared.rank_node;
                let peer = peers
                    .find(|p| rank_node[p] == node)
                    .or_else(|| rank_node.iter().position(|&n| n == node))
                    .unwrap_or(usize::MAX);
                PureError::PeerDead {
                    rank,
                    op,
                    peer,
                    epoch,
                }
            }
            WaitInterrupt::Revoked { comm } => PureError::Revoked { rank, op, comm },
        })
    }

    /// Turn a fatal wait failure into a launch-wide abort. A `PeerAborted`
    /// is an *echo* — some other rank already recorded the primary cause —
    /// so it unwinds with the distinguishable [`PeerAbortEcho`] payload.
    /// Anything else is a primary cause: record it, dump diagnostics, raise
    /// the abort flag everywhere, then unwind.
    #[cold]
    pub(crate) fn escalate(&self, err: PureError) -> ! {
        crate::telemetry::instant("abort");
        if matches!(err, PureError::PeerAborted { .. }) {
            std::panic::panic_any(PeerAbortEcho(err.to_string()));
        }
        self.shared.record_abort(self.rank, err.to_string(), false);
        self.shared.dump_diagnostics_once();
        self.shared.abort_all();
        panic!("{err}");
    }

    /// Count one blocking operation and apply any armed intra-node fault
    /// (straggler sleep, die-at-step panic). No-op unless faults are armed.
    pub fn op_event(&self) {
        let rf = &self.shared.cfg.rank_faults;
        if !rf.enabled() {
            return;
        }
        let n = self.op_count.get() + 1;
        self.op_count.set(n);
        if let Some((r, pause)) = rf.slow {
            if r == self.rank {
                std::thread::sleep(pause);
            }
        }
        if let Some((r, at)) = rf.die_at {
            if r == self.rank && n == at {
                panic!("pure: injected fault: rank {} died at op {}", self.rank, n);
            }
        }
        if let Some((r, at)) = rf.crash_at {
            if r == self.rank && n == at {
                crate::telemetry::instant("crash-stop");
                // Crash-stop: the node goes silent *first* (no farewell
                // frames, no more ACKs), then the rank unwinds with the
                // marker payload `launch` treats as a disappearance rather
                // than a failure broadcast.
                self.ep.silence();
                std::panic::panic_any(CrashStop {
                    rank: self.rank,
                    op_index: n,
                });
            }
        }
    }

    /// Drain the internode transport before this rank exits: force-flush
    /// this node's coalesce buffers (a rank that finishes early would stop
    /// polling, stranding buffered subframes below the age watermark), then
    /// linger until the reliable links are empty (a dropped final frame
    /// addressed to a still-running peer could otherwise never be
    /// retransmitted). Bounded and abort-aware.
    pub fn finalize_net(&self) {
        let net = &self.shared.cfg.net;
        let reliable = net.faults.is_some();
        // A real-socket backend can hold accepted-but-unflushed bytes even
        // with no protocol features armed; those must drain before exit or
        // a remote receiver blocks on frames nobody will ever flush.
        let real_fds = net.backend == netsim::Backend::Tcp;
        if !reliable && net.coalesce.is_none() && !self.detect_active && !real_fds {
            return;
        }
        self.ep.flush_coalesced();
        // Deadline for the whole teardown: the configured finalize linger,
        // lowered (never raised) by the launch progress deadline. With a
        // dead peer holding unACKed frames the linger ends the moment the
        // detector condemns it (`reliable_outstanding` excuses condemned
        // links); without detection, this cap alone bounds teardown.
        let cap = self
            .shared
            .cfg
            .progress_deadline
            .map_or(self.shared.cfg.finalize_linger, |d| {
                d.min(self.shared.cfg.finalize_linger)
            });
        let t0 = Instant::now();
        if reliable {
            while self.ep.reliable_outstanding() > 0 && !self.sched.aborted() {
                if t0.elapsed() >= cap {
                    eprintln!(
                        "pure: rank {}: reliable links still undelivered after {:?} at exit",
                        self.rank, cap
                    );
                    break;
                }
                self.ep.progress();
                self.progress_sends();
                std::thread::yield_now();
            }
        }
        // Real-FD backends buffer outbound bytes against `EWOULDBLOCK`; keep
        // pumping until every live socket's backlog is flushed (dead peers'
        // backlogs were discarded when their connection died), under the
        // same teardown deadline as the reliable linger above.
        while self.ep.transport_unflushed() > 0 && !self.sched.aborted() {
            if t0.elapsed() >= cap {
                eprintln!(
                    "pure: rank {}: {} transport bytes still unflushed after {:?} at exit",
                    self.rank,
                    self.ep.transport_unflushed(),
                    cap
                );
                break;
            }
            self.ep.progress();
            std::thread::yield_now();
        }
        // Exit keep-alive (detection armed only): a rank that merely
        // finished early must not stop heartbeating while peers still run,
        // or a slow peer's detector would condemn this live node. Tick the
        // endpoint until every rank thread has finished its SPMD function
        // (this rank's slot was already released by `launch`), bounded by
        // the abort flag — a genuinely hung peer is the watchdog's problem,
        // not ours.
        if self.detect_active {
            while self.shared.live_ranks.load(Ordering::Acquire) > 0 && !self.sched.aborted() {
                self.ep.progress();
                self.progress_sends();
                std::thread::yield_now();
            }
        }
    }

    fn stats(&self) -> RankStats {
        let s = self.steal.borrow();
        RankStats {
            msgs_sent: self.msgs_sent.get(),
            bytes_sent: self.bytes_sent.get(),
            msgs_recvd: self.msgs_recvd.get(),
            collectives: self.collectives.get(),
            chunks_stolen: s.chunks_stolen,
            chunks_owned: s.chunks_owned,
        }
    }
}

/// The per-rank application context: rank identity, world communicator,
/// messaging, collectives and Pure Tasks. Mirrors what `pure.h` exposes.
pub struct RankCtx {
    pub(crate) local: Rc<RankLocal>,
    world: PureComm,
}

impl RankCtx {
    /// This rank's id in the flat world namespace.
    pub fn rank(&self) -> usize {
        self.local.rank
    }

    /// Total ranks.
    pub fn nranks(&self) -> usize {
        self.local.shared.cfg.ranks
    }

    /// The simulated node this rank lives on.
    pub fn node(&self) -> usize {
        self.local.node
    }

    /// This rank's thread index within its node.
    pub fn local_index(&self) -> usize {
        self.local.local_idx
    }

    /// The world communicator (`PURE_COMM_WORLD`).
    pub fn world(&self) -> &PureComm {
        &self.world
    }

    // --- Flat-API conveniences (the paper's C API is a flat function set
    // over PURE_COMM_WORLD; these delegates mirror that shape). ---

    /// `pure_send_msg(..., PURE_COMM_WORLD)`.
    pub fn send<T: crate::datatype::PureDatatype>(&self, buf: &[T], dst: usize, tag: Tag) {
        self.world.send(buf, dst, tag)
    }

    /// `pure_recv_msg(..., PURE_COMM_WORLD)`.
    pub fn recv<T: crate::datatype::PureDatatype>(&self, buf: &mut [T], src: usize, tag: Tag) {
        self.world.recv(buf, src, tag)
    }

    /// World barrier.
    pub fn barrier(&self) {
        self.world.barrier()
    }

    /// World all-reduce.
    pub fn allreduce<T: crate::datatype::Reducible>(
        &self,
        input: &[T],
        output: &mut [T],
        op: crate::datatype::ReduceOp,
    ) {
        self.world.allreduce(input, output, op)
    }

    /// World broadcast.
    pub fn bcast<T: crate::datatype::PureDatatype>(&self, data: &mut [T], root: usize) {
        self.world.bcast(data, root)
    }

    /// `pure_comm_split` on the world communicator.
    pub fn comm_split(&self, color: i64, key: i64) -> Option<PureComm> {
        self.world.split(color, key)
    }

    /// `pure_wtime`: seconds since the launch started (monotonic; same
    /// epoch on every rank of this launch).
    pub fn wtime(&self) -> f64 {
        self.local.shared.birth.elapsed().as_secs_f64()
    }

    /// Execute a chunked task: split into `chunks` chunks, run them all
    /// (possibly concurrently with thieves), return when done. See
    /// [`crate::task::PureTask`] for the define-once API.
    pub fn execute_task(&self, chunks: u32, f: impl Fn(ChunkRange) + Sync) {
        let g = move |r: ChunkRange, _e: Option<&()>| f(r);
        self.execute_task_generic(chunks, &g, None::<&()>);
    }

    /// Execute a chunked task with per-execution arguments (§3.2's
    /// `per_exe_args`).
    pub fn execute_task_with<E: Sync>(
        &self,
        chunks: u32,
        f: impl Fn(ChunkRange, Option<&E>) + Sync,
        extra: &E,
    ) {
        self.execute_task_generic(chunks, &f, Some(extra));
    }

    /// Monomorphic fast path used by both public entry points.
    fn execute_task_generic<F, E>(&self, chunks: u32, f: &F, extra: Option<&E>)
    where
        F: Fn(ChunkRange, Option<&E>) + Sync,
        E: Sync,
    {
        let call = thunk_for::<F, E>(f);
        let data = f as *const F as *const ();
        let extra_ptr = extra.map_or(std::ptr::null(), |e| e as *const E as *const ());
        let mut steal = self.local.steal.borrow_mut();
        // SAFETY: `f` and `extra` outlive this call, and `execute_raw` does
        // not return until every chunk has executed; concurrent chunk
        // invocations get disjoint ranges by construction.
        unsafe {
            self.local
                .sched
                .execute_raw(&mut steal, chunks, call, data, extra_ptr);
        }
    }

    /// Dyn-dispatch variant backing [`crate::task::PureTask::execute`].
    pub(crate) fn execute_task_ref<E: Sync>(
        &self,
        chunks: u32,
        f: &(dyn Fn(ChunkRange, Option<&E>) + Sync),
        extra: Option<&E>,
    ) {
        // Indirect through a stack copy of the wide reference so the thunk
        // can reconstruct the trait object from a thin pointer.
        let wide: &(dyn Fn(ChunkRange, Option<&E>) + Sync) = f;
        let g = move |r: ChunkRange, e: Option<&E>| wide(r, e);
        self.execute_task_generic(chunks, &g, extra);
    }
}

/// Run `f` as an SPMD program on `cfg.ranks` rank threads.
///
/// Panics in any rank abort the whole launch (the other ranks' SSW loops
/// notice and unwind) and the first panic is re-raised here.
pub fn launch<F>(cfg: Config, f: F) -> LaunchReport
where
    F: Fn(&mut RankCtx) + Sync,
{
    let (report, _) = launch_map(cfg, |ctx| {
        f(ctx);
    });
    report
}

/// Like [`launch`], also collecting each rank's return value.
pub fn launch_map<F, R>(cfg: Config, f: F) -> (LaunchReport, Vec<R>)
where
    F: Fn(&mut RankCtx) -> R + Sync,
    R: Send,
{
    let (report, results) = launch_surviving(cfg, f);
    let results = results
        .into_iter()
        .map(|r| {
            r.expect(
                "rank produced no result despite no panic \
                 (crash-stopped? use launch_surviving)",
            )
        })
        .collect();
    (report, results)
}

/// Like [`launch_map`], but tolerant of injected crash-stop faults: a rank
/// killed by [`RankFaults::crash_at`] yields `None` in the results vector
/// (and is listed in [`LaunchReport::crashed`]) instead of poisoning the
/// launch. Any *other* failure still panics with the primary cause.
pub fn launch_surviving<F, R>(cfg: Config, f: F) -> (LaunchReport, Vec<Option<R>>)
where
    F: Fn(&mut RankCtx) -> R + Sync,
    R: Send,
{
    assert!(cfg.ranks > 0, "pure: need at least one rank");
    if let Some(map) = &cfg.rank_map {
        assert_eq!(map.len(), cfg.ranks, "rank_map length must equal ranks");
    }

    // Topology.
    let rank_node: Vec<usize> = (0..cfg.ranks).map(|r| cfg.node_of(r)).collect();
    let n_nodes = rank_node.iter().copied().max().unwrap_or(0) + 1;
    let mut node_ranks: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    for (r, &n) in rank_node.iter().enumerate() {
        node_ranks[n].push(r);
    }
    assert!(
        node_ranks.iter().all(|v| !v.is_empty()),
        "pure: every node in the rank map must host at least one rank"
    );
    let mut rank_local = vec![0usize; cfg.ranks];
    for ranks in &node_ranks {
        for (i, &r) in ranks.iter().enumerate() {
            rank_local[r] = i;
        }
    }

    let scheds: Vec<Arc<NodeScheduler>> = node_ranks
        .iter()
        .map(|ranks| Arc::new(NodeScheduler::new(ranks.len(), cfg.spin_budget)))
        .collect();

    let robust = cfg.progress_deadline.is_some()
        || cfg.rank_faults.enabled()
        || cfg.net.faults.is_some()
        || cfg.net.detect.is_some()
        || cfg.net.endpoint_fault.is_some();
    let shared = Arc::new(Shared {
        chan_cfg: ChannelFactoryCfg {
            small_msg_max: cfg.small_msg_max,
            pbq_slots: cfg.pbq_slots,
            env_slots: cfg.env_slots,
        },
        birth: Instant::now(),
        cluster: Cluster::new(n_nodes, cfg.net),
        channels: ChannelTable::new(),
        areas: (0..n_nodes).map(|_| Mutex::new(HashMap::new())).collect(),
        tag_bases: Mutex::new(TagBaseAlloc::default()),
        scheds,
        rank_node,
        rank_local,
        health: (0..cfg.ranks)
            .map(|_| CachePadded::new(RankHealth::new()))
            .collect(),
        abort_cause: Mutex::new(None),
        crashed: Mutex::new(Vec::new()),
        agree_cells: Mutex::new(HashMap::new()),
        live_ranks: AtomicU64::new(cfg.ranks as u64),
        dumped: AtomicBool::new(false),
        robust,
        telemetry: (0..cfg.ranks).map(|_| RankCounters::default()).collect(),
        cfg,
    });

    let world_meta = Arc::new(CommMeta::world(&shared));

    let start = Instant::now();
    let watchdog_stop = AtomicBool::new(false);
    let (results, mut stats, traces, helper_stolen) = std::thread::scope(|scope| {
        let mut rank_handles = Vec::with_capacity(shared.cfg.ranks);
        for rank in 0..shared.cfg.ranks {
            let shared = Arc::clone(&shared);
            let world_meta = Arc::clone(&world_meta);
            let f = &f;
            rank_handles.push(scope.spawn(move || {
                // Route this thread's telemetry to its rank's counter block
                // and (when tracing is on) its private event ring.
                let _counters = shared
                    .cfg
                    .telemetry
                    .then(|| shared.telemetry[rank].install());
                let mut tracer = (shared.cfg.trace_events > 0)
                    .then(|| Tracer::new(shared.cfg.trace_events, shared.birth));
                let tracer_guard = tracer.as_mut().map(crate::telemetry::install_tracer);
                let node = shared.rank_node[rank];
                let detect_active = shared.cfg.net.detect.is_some() && shared.cluster.len() > 1;
                let net_active = (shared.cfg.net.coalesce.is_some()
                    || shared.cfg.net.faults.is_some()
                    || detect_active
                    || shared.cfg.net.backend == netsim::Backend::Tcp)
                    && shared.cluster.len() > 1;
                let local = Rc::new(RankLocal {
                    rank,
                    node,
                    local_idx: shared.rank_local[rank],
                    sched: Arc::clone(&shared.scheds[node]),
                    ep: shared.cluster.endpoint(node),
                    steal: RefCell::new(StealCtx::new(
                        shared.rank_local[rank],
                        shared.cfg.seed ^ (rank as u64).wrapping_mul(0xD129_0A5B),
                    )),
                    chan_cache: RefCell::new(HashMap::default()),
                    pending_sends: RefCell::new(Vec::new()),
                    msgs_sent: Cell::new(0),
                    bytes_sent: Cell::new(0),
                    msgs_recvd: Cell::new(0),
                    collectives: Cell::new(0),
                    op_count: Cell::new(0),
                    net_active,
                    net_poll: Cell::new(0),
                    net_tick_shift: Cell::new(NET_TICK_SHIFT_MIN),
                    net_tick_ns: Cell::new(0),
                    detect_active,
                    cur_comm: RefCell::new(None),
                    shared: Arc::clone(&shared),
                });
                let world = PureComm::from_meta(world_meta, Rc::clone(&local));
                let mut ctx = RankCtx {
                    local: Rc::clone(&local),
                    world,
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                // Release this rank's live slot before any teardown wait:
                // the exit keep-alive in `finalize_net` spins on the count,
                // so every exiting path must drop its slot first.
                shared.live_ranks.fetch_sub(1, Ordering::AcqRel);
                let result = match outcome {
                    Ok(v) => {
                        local.finalize_net();
                        Some(v)
                    }
                    Err(e) if e.downcast_ref::<CrashStop>().is_some() => {
                        let cs = e.downcast_ref::<CrashStop>().unwrap();
                        debug_assert!(cs.rank == rank && cs.op_index > 0);
                        // Injected crash-stop: the rank vanishes without an
                        // abort broadcast — no cause recorded, no flag
                        // raised. Survivors must *detect* the silence.
                        shared.crashed.lock().push(rank);
                        None
                    }
                    Err(e) => {
                        let echo = e.downcast_ref::<PeerAbortEcho>().is_some();
                        shared.record_abort(rank, payload_message(&*e), echo);
                        shared.abort_all();
                        None
                    }
                };
                let stats = local.stats();
                drop(tracer_guard);
                let trace = tracer.map(|t| t.events_in_order()).unwrap_or_default();
                (result, stats, trace)
            }));
        }

        // Progress watchdog: a backstop behind the per-wait deadlines for
        // waits that wedge without ever reaching their own deadline check
        // (e.g. a poll closure stuck inside a lock). Fires well after the
        // per-wait deadline so the wait's own, better-labelled timeout is
        // the one that usually reports.
        let watchdog = shared.cfg.progress_deadline.map(|deadline| {
            let shared = Arc::clone(&shared);
            let stop = &watchdog_stop;
            scope.spawn(move || {
                let limit =
                    deadline.as_nanos() as u64 + deadline.as_nanos() as u64 / 2 + 500_000_000;
                loop {
                    // Scan every 5 ms while ranks run; `launch` unparks this
                    // thread when they are done, so exit never waits out
                    // the period.
                    std::thread::park_timeout(Duration::from_millis(5));
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let now = shared.now_ns();
                    for (r, h) in shared.health.iter().enumerate() {
                        let Some((op, ws)) = h.waiting() else {
                            continue;
                        };
                        if now.saturating_sub(ws) <= limit {
                            continue;
                        }
                        let err = PureError::Timeout {
                            rank: r,
                            op,
                            peer: None,
                            tag: None,
                            elapsed: Duration::from_nanos(now - ws),
                        };
                        shared.record_abort(r, format!("watchdog: {err}"), false);
                        shared.dump_diagnostics_once();
                        shared.abort_all();
                        return;
                    }
                }
            })
        });

        // Helper threads: steal-only workers on spare "cores" (§5.1).
        let mut helper_handles = Vec::new();
        for (node, sched) in shared.scheds.iter().enumerate() {
            for h in 0..shared.cfg.helpers_per_node {
                let sched = Arc::clone(sched);
                let seed = shared.cfg.seed ^ 0xBEEF ^ ((node * 131 + h) as u64);
                let workers = sched.n_workers();
                helper_handles.push(scope.spawn(move || {
                    let mut ctx = StealCtx::new(workers + h, seed);
                    sched.run_helper(&mut ctx);
                    ctx.chunks_stolen
                }));
            }
        }

        let mut results = Vec::with_capacity(rank_handles.len());
        let mut stats = Vec::with_capacity(rank_handles.len());
        let mut traces = Vec::with_capacity(rank_handles.len());
        for h in rank_handles {
            let (result, stat, trace) = h.join().unwrap_or_default();
            results.push(result);
            stats.push(stat);
            traces.push(trace);
        }
        watchdog_stop.store(true, Ordering::Release);
        if let Some(w) = &watchdog {
            w.thread().unpark();
        }
        for s in &shared.scheds {
            s.shutdown_helpers();
        }
        let helper_stolen: u64 = helper_handles
            .into_iter()
            .filter_map(|h| h.join().ok())
            .sum();
        (results, stats, traces, helper_stolen)
    });
    let elapsed = start.elapsed();
    // Account helper work to rank 0's node entry so reports see it.
    stats[0].chunks_stolen += helper_stolen;

    // Re-raise the primary failure with the failing rank's identity. The
    // original panic message is embedded verbatim, so callers matching on
    // it (tests, harnesses) still see it.
    if let Some(cause) = shared.abort_cause.lock().take() {
        panic!("pure: rank {} failed: {}", cause.rank, cause.what);
    }

    // Every rank has exited: drop frames still parked in the wire stack
    // (retransmit queues of crashed peers, coalesce remnants, stashes) so
    // their slabs return to the pools. After this, the report's pool
    // counters must balance — acquired == released — or a slab was leaked
    // or double-freed somewhere on the wire path.
    shared.cluster.purge_pooled();

    let crashed = {
        let mut c = shared.crashed.lock().clone();
        c.sort_unstable();
        c
    };
    let report = LaunchReport {
        per_rank: stats,
        net_traffic: shared.cluster.stats().snapshot(),
        net_faults: shared.cluster.stats().fault_snapshot(),
        elapsed,
        crashed,
        stats: shared.runtime_stats(traces),
    };
    (report, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Communicator;
    use crate::datatype::ReduceOp;
    use netsim::{CoalescePlan, DetectPlan};

    /// A rank whose wait polls slowly — each poll holds the core for
    /// ~2 ms, as a yield does on an oversubscribed host — must keep its
    /// node heartbeating. 64 such polls span ~130 ms, far past the
    /// aggressive detector's 20 ms floor, so a tick gated on the poll
    /// count alone would let the peer condemn a live node.
    #[test]
    fn slow_polls_keep_the_node_heartbeating() {
        let mut cfg = Config::new(2)
            .with_ranks_per_node(1)
            .with_deadline(Duration::from_secs(20));
        cfg.spin_budget = 16;
        cfg.net = NetConfig::default().with_detection(DetectPlan::aggressive());
        let report = launch(cfg, |ctx| {
            if ctx.rank() == 1 {
                let t0 = Instant::now();
                ctx.local.ssw_op(WaitOp::Recv, None, None, || {
                    std::thread::sleep(Duration::from_millis(2));
                    (t0.elapsed() >= Duration::from_millis(200)).then_some(())
                });
            }
            ctx.world().barrier();
        });
        assert_eq!(report.stats.net_suspicions, 0, "a live node was condemned");
    }

    /// The heartbeat time floor reads the clock only when the failure
    /// detector is armed: a coalescing-only cluster never touches it.
    #[test]
    fn heartbeat_floor_needs_the_detector() {
        for detect in [false, true] {
            let mut net = NetConfig::default().with_coalescing(CoalescePlan::default());
            if detect {
                net = net.with_detection(DetectPlan::default());
            }
            let mut cfg = Config::new(2).with_ranks_per_node(1).with_net(net);
            cfg.spin_budget = 16;
            launch(cfg, move |ctx| {
                let w = ctx.world();
                if ctx.rank() == 1 {
                    // Rank 0 waits past a heartbeat interval for this one.
                    std::thread::sleep(Duration::from_millis(5));
                }
                for round in 0..8u64 {
                    let got = w.allreduce_one(round, ReduceOp::Sum);
                    assert_eq!(got, 2 * round);
                }
                assert_eq!(ctx.local.detect_active, detect);
                if !detect || ctx.rank() == 0 {
                    assert_eq!(ctx.local.net_tick_ns.get() > 0, detect);
                }
            });
        }
    }

    /// An armed wait the peer satisfies before its first probe (the 64th
    /// fruitless poll) reads no clock and stamps nothing; one that reaches
    /// the probe leaves a heartbeat and clears its wait stamp on exit.
    #[test]
    fn only_a_wait_that_reaches_its_first_probe_stamps_health() {
        let cfg = Config::new(1).with_deadline(Duration::from_secs(20));
        launch(cfg, |ctx| {
            let h = &ctx.local.shared.health[ctx.rank()];
            let stamps = || {
                (
                    h.hb_ns.load(Ordering::Relaxed),
                    h.wait_since_ns.load(Ordering::Relaxed),
                )
            };
            let wait_polls = |n: u32| {
                let mut polls = 0;
                ctx.local.ssw_op(WaitOp::Recv, None, None, || {
                    polls += 1;
                    (polls == n).then_some(())
                });
            };
            wait_polls(64);
            assert_eq!(stamps(), (0, 0), "a wait that never probed stamped");
            wait_polls(65);
            let (hb, since) = stamps();
            assert!(hb > 0, "a wait that probed left no heartbeat");
            assert_eq!(since, 0, "a finished wait is still marked waiting");
        });
    }

    /// A hung armed recv is in the dump as `WAITING <age>ms in recv`: the
    /// stamp lands at its first probe, so its age is measured from there.
    #[test]
    fn a_hung_recv_is_named_in_the_dump_with_its_age() {
        let cfg = Config::new(2).with_deadline(Duration::from_secs(20));
        launch(cfg, |ctx| {
            let w = ctx.world();
            if ctx.rank() == 0 {
                let mut b = [0u8];
                w.recv(&mut b, 1, 3);
                assert_eq!(b, [9]);
                return;
            }
            let t0 = Instant::now();
            while ctx.local.shared.health[0].waiting().is_none() {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "rank 0 never stamped"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(30));
            let dump = ctx.local.shared.dump_diagnostics();
            let line = dump
                .lines()
                .find(|l| l.starts_with("rank   0"))
                .unwrap_or_else(|| panic!("rank 0 missing from the dump:\n{dump}"));
            let age: f64 = line
                .split_once("WAITING")
                .and_then(|(_, rest)| rest.trim().strip_suffix("ms in recv")?.parse().ok())
                .unwrap_or_else(|| panic!("not a waiting recv: {line}"));
            assert!(age >= 30.0, "age {age} ms is younger than the wait");
            w.send(&[9u8], 0, 3);
        });
    }
}
