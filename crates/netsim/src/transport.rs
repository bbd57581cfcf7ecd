//! The node-to-node wire stack, split into two layers:
//!
//! * a **raw frame plane** behind the [`Transport`] trait — tagged frames,
//!   a per-node match store, and a `pump()` tick that ingests arrivals.
//!   Two backends implement it: the in-process simulated fabric (α–β
//!   latency model) and [`crate::tcp::TcpTransport`] (real nonblocking
//!   TCP sockets); and
//! * a **protocol layer** ([`NodeEndpoint`]) that runs unchanged above any
//!   backend: seeded fault injection, one data link per node pair
//!   (outbound frame coalescing, sequence-numbered reliable delivery), and
//!   the crash-stop failure detector. All per-peer state lives in one
//!   table of links indexed by peer node.
//!
//! Fault injection sits *above* the raw plane (frames are dropped, held
//! for reordering, or parked on a delay queue before `send_frame`), so the
//! chaos suites exercise identical decision streams over every backend.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::coalesce::{self, CoalesceBuf, CoalescePlan, JUMBO_HEADROOM, SUBFRAME_HEADER_BYTES};
use crate::faults::{DetectPlan, EndpointFaultPlan, FaultPlan, PeerHealth};
use crate::pool::{FrameBuf, FramePool, FrameSlice, PoolStats};
use crate::reliable::{deframe, RxState, TxState, SEQ_HEADER_BYTES};
use crate::sim::SimFabric;
use crate::tag::WireTag;

// The coalescing layer reserves exactly the headroom the reliable sublayer
// patches its sequence number into; emit_jumbo relies on the two agreeing.
const _: () = assert!(JUMBO_HEADROOM == SEQ_HEADER_BYTES);

/// Which raw frame plane carries the wire stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Backend {
    /// The in-process simulated fabric: per-node inboxes with an α–β
    /// latency model. Deterministic, dependency-free, the test default.
    #[default]
    Sim,
    /// Real nonblocking TCP sockets speaking length-prefixed frames — a
    /// 127.0.0.1 loopback mesh when the cluster lives in one process, or
    /// actual OS processes via the bootstrap env (see [`crate::tcp`]).
    Tcp,
}

impl Backend {
    /// Resolve the backend from `PURE_BACKEND` (`tcp` selects the TCP
    /// backend; anything else, including unset, selects netsim). This is
    /// the CI backend-matrix hook.
    pub fn from_env() -> Self {
        match std::env::var("PURE_BACKEND") {
            Ok(v) if v.eq_ignore_ascii_case("tcp") => Backend::Tcp,
            _ => Backend::Sim,
        }
    }
}

/// Latency/bandwidth model for the simulated interconnect.
///
/// A message of `n` bytes becomes *matchable* at the destination
/// `alpha_ns + n * beta_ps_per_byte / 1000` nanoseconds after it is sent.
/// The defaults are zero (ideal network) — tests want determinism and speed;
/// benchmarks configure Aries-like values (α ≈ 1.3 µs, β ≈ 1 ns per 10 B,
/// i.e. ~10 GB/s per link). The latency model applies to the simulated
/// backend only; TCP frames arrive whenever the kernel delivers them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct NetConfig {
    /// Per-message latency in nanoseconds.
    pub alpha_ns: u64,
    /// Per-byte cost in picoseconds (1000 ps/B == 1 GB/s... precisely 1 ns/B).
    pub beta_ps_per_byte: u64,
    /// Seeded fault injection. `Some` makes every node pair's link reliable
    /// (sequence + ACK + retransmit); `None` is the ideal, overhead-free
    /// transport.
    pub faults: Option<FaultPlan>,
    /// Outbound frame coalescing. `Some` sets the watermarks of the per-peer
    /// link buffers every internode data frame is packed into; `None` sends
    /// frame-per-message (with `faults`, one single-subframe jumbo per
    /// message on the pair's reliable link).
    pub coalesce: Option<CoalescePlan>,
    /// Seeded endpoint-level (crash-stop) fault: one node goes permanently
    /// silent at a seeded point. Orthogonal to `faults`, which models
    /// recoverable frame loss.
    pub endpoint_fault: Option<EndpointFaultPlan>,
    /// Crash-stop failure detection. `Some` arms per-node heartbeats,
    /// phi-style suspicion, and session-epoch garbage collection of a dead
    /// peer's reliable-link state; `None` keeps the detector (and its
    /// heartbeat traffic) compiled out of the data path entirely.
    pub detect: Option<DetectPlan>,
    /// Which raw frame plane carries all of the above.
    pub backend: Backend,
}

impl NetConfig {
    /// An Aries-like interconnect: ~1.3 µs latency, ~10 GB/s effective
    /// per-flow bandwidth.
    pub fn aries_like() -> Self {
        Self {
            alpha_ns: 1_300,
            beta_ps_per_byte: 100,
            faults: None,
            coalesce: None,
            endpoint_fault: None,
            detect: None,
            backend: Backend::Sim,
        }
    }

    /// Enable seeded fault injection (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enable outbound frame coalescing (builder style).
    pub fn with_coalescing(mut self, plan: CoalescePlan) -> Self {
        self.coalesce = Some(plan);
        self
    }

    /// Inject a crash-stop endpoint fault (builder style).
    pub fn with_endpoint_fault(mut self, plan: EndpointFaultPlan) -> Self {
        self.endpoint_fault = Some(plan);
        self
    }

    /// Arm crash-stop failure detection (builder style).
    pub fn with_detection(mut self, plan: DetectPlan) -> Self {
        self.detect = Some(plan);
        self
    }

    /// Select the raw frame plane (builder style).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

// --- The raw frame plane ---------------------------------------------------

/// Set of source nodes that had frames arrive during one pump tick. A u64
/// bitmask covers the common case allocation-free (the steady-state pump
/// must not allocate — see `tests/alloc_regression.rs`); clusters beyond 64
/// nodes spill into a `Vec`.
#[derive(Debug, Default)]
pub struct ArrivalSet {
    mask: u64,
    spill: Vec<usize>,
}

impl ArrivalSet {
    /// Record an arrival from `src`.
    pub fn insert(&mut self, src: usize) {
        if src < 64 {
            self.mask |= 1u64 << src;
        } else if !self.spill.contains(&src) {
            self.spill.push(src);
        }
    }

    /// True when no arrivals were recorded.
    pub fn is_empty(&self) -> bool {
        self.mask == 0 && self.spill.is_empty()
    }

    /// Whether `src` was recorded.
    pub fn contains(&self, src: usize) -> bool {
        if src < 64 {
            self.mask >> src & 1 == 1
        } else {
            self.spill.contains(&src)
        }
    }

    /// Iterate the recorded source nodes (ascending for the first 64).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut m = self.mask;
        std::iter::from_fn(move || {
            if m == 0 {
                return None;
            }
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            Some(b)
        })
        .chain(self.spill.iter().copied())
    }
}

/// Outcome of one [`Transport::pump`] tick.
#[derive(Debug, Default)]
pub struct PumpOutcome {
    /// True when the tick moved anything: bytes flushed or read, frames
    /// made matchable. Callers polling from a wait use this to back off.
    pub did_work: bool,
    /// Distinct source nodes that had frames arrive this tick. Fenced
    /// (condemned-peer) frames are counted too — an arrival is liveness
    /// evidence even when the frame itself is discarded.
    pub arrivals: ArrivalSet,
}

/// The raw frame plane: tagged fire-and-forget frames between nodes, FIFO
/// per `(src, tag)` channel, with a per-node match store for receivers.
///
/// Everything above this trait — the reliable sublayer, coalescing, the
/// `PURERDV1` eager/rendezvous split, tag allocation, and the failure
/// detector — is backend-agnostic protocol code in [`NodeEndpoint`].
/// Implementations must be cheap to call concurrently from every rank
/// thread on the node plus an optional helper thread.
pub trait Transport: Send + Sync {
    /// This endpoint's node id.
    fn node(&self) -> usize;

    /// Number of nodes in the cluster.
    fn n_nodes(&self) -> usize;

    /// Put one tagged frame on the wire toward `dst`. Fire-and-forget:
    /// delivery guarantees live in the protocol layer, not here. The frame
    /// is a refcounted view of a pooled slab: the simulated fabric hands it
    /// across without serialization, socket backends serialize it into
    /// their outbound buffer (and count the copy in `memcpy_bytes`).
    fn send_frame(&self, dst: usize, tag_enc: u64, frame: FrameSlice);

    /// Pop the oldest matchable frame from `src` under `tag_enc`, if one
    /// has already been pumped into the match store. Performs no IO. The
    /// returned slice borrows the pooled slab; dropping it recycles.
    fn recv_frame(&self, src: usize, tag_enc: u64) -> Option<FrameSlice>;

    /// Inject a frame into the local match store as if it had arrived from
    /// `src` — the scatter path for coalesced subframes (typically a
    /// zero-copy subslice of the arrived jumbo's slab).
    fn push_local(&self, src: usize, tag_enc: u64, payload: FrameSlice);

    /// One IO tick: flush pending writes, ingest arrived frames into the
    /// match store (FIFO per source channel). Frames whose source is
    /// `fenced` are discarded before matching but still reported in
    /// [`PumpOutcome::arrivals`].
    fn pump(&self, fenced: &dyn Fn(usize) -> bool) -> PumpOutcome;

    /// Bytes accepted by `send_frame` but not yet handed to the wire —
    /// nonzero only for real-socket backends with partial nonblocking
    /// writes. The finalize linger drains this before closing.
    fn unflushed_bytes(&self) -> usize {
        0
    }

    /// Discard buffered IO toward a condemned peer so teardown never waits
    /// on bytes a corpse will not read. Default: nothing buffered.
    fn drop_peer(&self, _node: usize) {}

    /// Flush what can be flushed and close gracefully (FIN on socket
    /// backends). Idempotent; the simulated fabric has nothing to close.
    fn finalize(&self) {}

    /// Drop every frame parked in this node's match store and inbound
    /// queues, releasing their pooled slabs. Teardown only — the pool
    /// balance assertion runs after this.
    fn purge(&self) {}

    /// Payload bytes this backend memcpy'd internally (serialize on send,
    /// parse on receive). Zero for backends that move refcounts instead.
    fn memcpy_bytes(&self) -> u64 {
        0
    }

    /// One-line state render for hang dumps. Watchdog-safe: try-lock only.
    fn debug_line(&self) -> String;
}

// --- Protocol-layer state --------------------------------------------------

/// One frame the fault injector is holding back from the wire. Holds a
/// refcount on the pooled slab, not a byte copy.
struct OutFrame {
    dst: usize,
    tag_enc: u64,
    payload: FrameSlice,
}

/// Sender-side fault-injection holding areas (fault mode only).
#[derive(Default)]
struct Perturb {
    /// Reorder stash: frames held until at least one later-decided frame
    /// has been transmitted (or until the next progress tick).
    stash: Vec<OutFrame>,
    /// Delay queue: frames parked until `due_ns`.
    delayed: Vec<(u64, OutFrame)>,
}

/// Outbound half of a [`Link`]: what this node owes the peer. Its mutex
/// spans buffer take, sequence numbering and wire emission, so jumbos reach
/// the wire in take order.
#[derive(Default)]
struct LinkOut {
    /// Subframes gathered toward the peer and not yet on the wire.
    buf: CoalesceBuf,
    /// Reliable sender state: sequence numbers and the retransmit queue
    /// (used with a fault plan only).
    tx: TxState,
}

/// Inbound half of a [`Link`]: what this node has heard from the peer. Its
/// mutex spans popping an arrived jumbo and scattering it, so several
/// threads ticking one node keep each tag's subframes in FIFO order.
#[derive(Default)]
struct LinkIn {
    /// Reliable receiver state: dedup, reorder, ACK pacing (used with a
    /// fault plan only).
    rx: RxState,
    /// Failure-detector state (detection mode only), created by the first
    /// tick that looks so the peer's grace period starts then.
    health: Option<PeerHealth>,
}

/// Everything one node keeps about one peer: the pair's single data link —
/// the one FIFO per node pair the paper runs over MPI, with thread ids and
/// user tags riding inside subframe headers. No path holds two link
/// mutexes at once; below either come only `perturb` and the backend.
#[derive(Default)]
struct Link {
    out: Mutex<LinkOut>,
    inb: Mutex<LinkIn>,
}

/// One node's protocol-layer state: everything above the raw frame plane.
struct NodeProto {
    /// The node's slab pool: every outbound frame is built in (and every
    /// inbound socket frame parsed into) a buffer acquired here. Shared
    /// with the node's raw transport on backends that parse.
    pool: Arc<FramePool>,
    /// Per-peer link state, indexed by peer node (this node's own slot
    /// stays empty).
    links: Box<[Link]>,
    /// Subframes buffered across every link's `buf`, maintained under the
    /// link's outbound lock. Read relaxed by the flush paths, so a tick on
    /// a node with nothing buffered costs one load — no lock, no clock.
    co_pending: AtomicU64,
    /// Frames the fault injector is holding back (fault mode only).
    perturb: Mutex<Perturb>,
    /// Raw frames this node has put on the wire — the endpoint-fault trip
    /// counter (crash-at-frame-N is defined over this).
    sent_frames: AtomicU64,
    /// Runtime crash-stop switch: once set, nothing leaves (or enters) this
    /// node again. Flipped by [`NodeEndpoint::silence`] when the runtime
    /// crash-injects a rank.
    silenced: AtomicBool,
}

impl NodeProto {
    /// Protocol state of one node in an `n`-node cluster.
    fn new(pool: Arc<FramePool>, n: usize) -> Self {
        Self {
            pool,
            links: (0..n).map(|_| Link::default()).collect(),
            co_pending: AtomicU64::new(0),
            perturb: Mutex::default(),
            sent_frames: AtomicU64::new(0),
            silenced: AtomicBool::new(false),
        }
    }

    /// Return the link toward `peer` to its initial state, dropping every
    /// frame it holds (buffered subframes, the retransmit queue, reorder
    /// stash). The detector's verdict on the peer stays.
    fn reset_link(&self, peer: usize) {
        let link = &self.links[peer];
        {
            let mut out = link.out.lock();
            self.co_pending
                .fetch_sub(out.buf.frames as u64, Ordering::Relaxed);
            *out = LinkOut::default();
        }
        link.inb.lock().rx = RxState::default();
    }
}

/// Cluster-global failure view: one death-epoch slot per node, 0 while the
/// node is alive (a condemnation's epoch is never 0). In a real deployment
/// this is the failure-broadcast service layered on the detector; netsim
/// compresses that into a shared table so every surviving node observes a
/// condemnation as soon as any detector fires — which is what makes
/// `agree()` upstairs launch-consistent. A multi-process TCP cluster gets
/// one table per process: each survivor's own detector is its
/// failure-broadcast source.
///
/// A slot publishes nothing but its own value, so every access is relaxed.
struct ClusterHealth {
    dead: Box<[AtomicU64]>,
}

impl ClusterHealth {
    fn new(n: usize) -> Self {
        Self {
            dead: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The death epoch of `node`, if any detector has condemned it.
    fn epoch_of(&self, node: usize) -> Option<u64> {
        match self.dead.get(node)?.load(Ordering::Relaxed) {
            0 => None,
            epoch => Some(epoch),
        }
    }

    /// Every condemned node with its epoch, in node order.
    fn condemned(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        (0..self.dead.len()).filter_map(|n| Some((n, self.epoch_of(n)?)))
    }

    /// Publish a condemnation; the first publisher's epoch stands.
    fn publish(&self, node: usize, epoch: u64) {
        let _ = self.dead[node].compare_exchange(0, epoch, Ordering::Relaxed, Ordering::Relaxed);
    }
}

/// With a fault plan and no coalescing plan a link batches nothing: a count
/// watermark of one puts every data frame on the wire as its own
/// single-subframe jumbo, inside the send call.
const UNBATCHED: CoalescePlan = CoalescePlan {
    max_bytes: usize::MAX,
    max_frames: 1,
    flush_ns: u64::MAX,
    eligible_max: usize::MAX,
};

/// The watermarks of a cluster's per-peer links, or `None` when neither
/// plan arms them and every frame is fire-and-forget on the raw plane.
fn link_plan(cfg: &NetConfig) -> Option<CoalescePlan> {
    cfg.coalesce.or(cfg.faults.map(|_| UNBATCHED))
}

/// Aggregate traffic statistics for a cluster.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Total cross-node messages sent.
    pub messages: AtomicU64,
    /// Total cross-node payload bytes sent.
    pub bytes: AtomicU64,
    /// Cluster-global raw frame counter (fault-decision index).
    pub frames: AtomicU64,
    /// Frames dropped by fault injection.
    pub dropped: AtomicU64,
    /// Frames delivered twice by fault injection.
    pub duplicated: AtomicU64,
    /// Reliable-sublayer retransmissions.
    pub retransmits: AtomicU64,
    /// Reliable-sublayer cumulative ACK frames sent.
    pub acks: AtomicU64,
    /// Subframes packed into coalescing buffers.
    pub coalesced: AtomicU64,
    /// Jumbo frames emitted by the coalescing engine.
    pub coalesce_flushes: AtomicU64,
    /// ACK frames avoided by cumulative-ACK batching (frames covered by an
    /// ACK beyond the first).
    pub acks_batched: AtomicU64,
    /// Progress-engine polls (ticks from blocked ranks' waits and exit
    /// drains, and receive-miss polls).
    pub progress_polls: AtomicU64,
    /// Backend pumps ([`Transport::pump`] calls). A progress tick pumps
    /// exactly once, so on live nodes this equals `progress_polls`; more
    /// means a sublayer started pumping on its own again (an inbox lock and
    /// clock read on Sim, a `read(2)` per peer on TCP, per extra pump).
    pub pumps: AtomicU64,
    /// Explicit heartbeat frames emitted by the failure detector (idle-link
    /// liveness only — data frames and ACKs piggyback as implicit evidence).
    pub heartbeats: AtomicU64,
    /// Peers condemned by the phi-style detector (one per declaration).
    pub suspicions: AtomicU64,
    /// Condemned peers that later showed evidence of life (one per peer):
    /// the detector's false-positive count.
    pub false_suspects: AtomicU64,
    /// Protocol-layer payload memcpy bytes: the user→wire gather copy.
    /// Backend serialize/parse copies are counted by the backend itself
    /// (see [`Transport::memcpy_bytes`]); control traffic (ACKs,
    /// heartbeats) is not charged.
    pub memcpy_bytes: AtomicU64,
    /// Payload slices handed to the match store as zero-copy borrows of an
    /// arrived pooled jumbo (the scatter path's saved copies).
    pub frames_borrowed: AtomicU64,
}

impl NetStats {
    /// Snapshot (messages, bytes).
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.messages.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }

    /// Snapshot (dropped, duplicated, retransmits) — the fault-mode extras.
    pub fn fault_snapshot(&self) -> (u64, u64, u64) {
        (
            self.dropped.load(Ordering::Relaxed),
            self.duplicated.load(Ordering::Relaxed),
            self.retransmits.load(Ordering::Relaxed),
        )
    }

    /// Snapshot (frames, retransmits, acks) — the reliable-sublayer view
    /// merged into the runtime's telemetry report.
    pub fn reliable_snapshot(&self) -> (u64, u64, u64) {
        (
            self.frames.load(Ordering::Relaxed),
            self.retransmits.load(Ordering::Relaxed),
            self.acks.load(Ordering::Relaxed),
        )
    }

    /// Snapshot (subframes coalesced, jumbo flushes, acks batched, progress
    /// polls) — the progress-engine view merged into the runtime's
    /// telemetry report.
    pub fn coalesce_snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.coalesced.load(Ordering::Relaxed),
            self.coalesce_flushes.load(Ordering::Relaxed),
            self.acks_batched.load(Ordering::Relaxed),
            self.progress_polls.load(Ordering::Relaxed),
        )
    }

    /// Snapshot (protocol-layer memcpy bytes, frames borrowed) — the
    /// zero-copy view merged into the runtime's telemetry report. Backend
    /// memcpy is *not* included; see [`NodeEndpoint::memcpy_bytes`].
    pub fn copy_snapshot(&self) -> (u64, u64) {
        (
            self.memcpy_bytes.load(Ordering::Relaxed),
            self.frames_borrowed.load(Ordering::Relaxed),
        )
    }

    /// Snapshot (heartbeats, suspicions, false suspects) — the failure
    /// detector's view merged into the runtime's telemetry report.
    pub fn health_snapshot(&self) -> (u64, u64, u64) {
        (
            self.heartbeats.load(Ordering::Relaxed),
            self.suspicions.load(Ordering::Relaxed),
            self.false_suspects.load(Ordering::Relaxed),
        )
    }
}

/// A cluster: `n` nodes connected all-to-all, over whichever raw frame
/// plane [`NetConfig::backend`] selects.
pub struct Cluster {
    raws: Arc<[Arc<dyn Transport>]>,
    protos: Arc<[Arc<NodeProto>]>,
    cfg: NetConfig,
    birth: Instant,
    stats: Arc<NetStats>,
    health: Arc<ClusterHealth>,
}

impl Cluster {
    /// Create a cluster of `n_nodes` nodes.
    pub fn new(n_nodes: usize, cfg: NetConfig) -> Self {
        assert!(n_nodes > 0, "netsim: a cluster needs at least one node");
        let birth = Instant::now();
        let pools: Vec<Arc<FramePool>> = (0..n_nodes).map(|_| FramePool::new()).collect();
        let raws: Vec<Arc<dyn Transport>> = match cfg.backend {
            Backend::Sim => SimFabric::mesh(n_nodes, &cfg, birth),
            Backend::Tcp => crate::tcp::loopback_mesh(n_nodes, &pools),
        };
        let protos: Vec<Arc<NodeProto>> = pools
            .into_iter()
            .map(|p| Arc::new(NodeProto::new(p, n_nodes)))
            .collect();
        Self {
            raws: raws.into(),
            protos: protos.into(),
            cfg,
            birth,
            stats: Arc::new(NetStats::default()),
            health: Arc::new(ClusterHealth::new(n_nodes)),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.raws.len()
    }

    /// True when the cluster has exactly one node (no network traffic ever).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Cluster-wide traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Obtain a (cheaply cloneable) endpoint for `node`.
    pub fn endpoint(&self, node: usize) -> NodeEndpoint {
        assert!(node < self.raws.len(), "netsim: node {node} out of range");
        NodeEndpoint {
            me: node,
            n: self.raws.len(),
            raws: Arc::clone(&self.raws),
            protos: Arc::clone(&self.protos),
            cfg: self.cfg,
            plan: link_plan(&self.cfg),
            birth: self.birth,
            stats: Arc::clone(&self.stats),
            health: Arc::clone(&self.health),
            sent: SentMark::default(),
        }
    }

    /// Render per-node progress-engine state (backend state, then per peer
    /// the link's buffered subframes, retransmit backlog, stashed jumbos and
    /// the heartbeat/suspicion record) for hang dumps. Watchdog-safe: uses
    /// `try_lock` throughout and reports `<locked>` for anything a wedged
    /// rank is holding.
    pub fn progress_debug(&self) -> String {
        self.endpoint(0).progress_debug()
    }

    /// Merged frame-pool counters across every node's pool. After
    /// [`Cluster::purge_pooled`], `outstanding()` must be zero — the
    /// no-leak / no-double-free invariant the chaos suites assert.
    pub fn pool_snapshot(&self) -> PoolStats {
        self.endpoint(0).pool_snapshot()
    }

    /// Total payload bytes memcpy'd on the wire path (protocol gather +
    /// backend serialize/parse), across the cluster.
    pub fn memcpy_bytes(&self) -> u64 {
        self.endpoint(0).memcpy_bytes()
    }

    /// Drop every frame still parked anywhere in the wire stack (match
    /// stores, inboxes, retransmit queues, reorder stashes, coalescing and
    /// fault-injection buffers), returning their slabs to the pools.
    /// Teardown only, after every rank has exited.
    pub fn purge_pooled(&self) {
        self.endpoint(0).purge_pooled()
    }
}

/// How old a buffer's oldest subframe must be before its blocked sender
/// flushes it ([`NodeEndpoint::flush_sent`]), well under the default age
/// watermark. Ranks of one node tend to block together (a halo exchange, a
/// leader phase), so the first to block gives its node-mates this long to add
/// to the batch. It also makes a lone message's latency a clock interval
/// rather than a spin race, which is what keeps the cross-node ping-pong's
/// rate steady from run to run (EXPERIMENTS.md, "PR 12"). Not an option.
const BLOCKED_LINGER_NS: u64 = 20_000;

/// Which destinations may hold subframes this handle buffered and has not
/// seen flushed: bit `dst % 64`, set when the handle leaves a subframe in a
/// link buffer and cleared only by [`NodeEndpoint::flush_marked`], which
/// looks at the buffers themselves (destinations 64 apart share a bit, so
/// one of them flushing says nothing about the other). Per handle, not per
/// node — every rank owns its handle ([`Cluster::endpoint`]), so the mark
/// says what *this rank* still has sitting in the node's link buffers, and
/// a rank that blocks flushes exactly that ([`NodeEndpoint::flush_sent`]).
/// Relaxed atomics only keep the handle `Sync`; one rank reads and writes
/// it.
#[derive(Default)]
struct SentMark(AtomicU64);

impl Clone for SentMark {
    /// A cloned handle has buffered nothing yet.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl SentMark {
    fn bit(dst: usize) -> u64 {
        1 << (dst % 64)
    }
}

/// One node's handle onto the interconnect. Clone freely; all clones share
/// the node's backend endpoint and protocol state (only the
/// flush-when-blocked mark of what a handle itself buffered is per handle).
///
/// In-process clusters (the simulated fabric, or a TCP loopback mesh) hold
/// every node's backend + protocol state, which is what lets tests and the
/// single-process runtime inspect cluster-wide invariants. A multi-process
/// TCP endpoint (see [`crate::tcp::multiproc_endpoint`]) holds only its own
/// node's state; cluster-wide views degrade to the local node.
#[derive(Clone)]
pub struct NodeEndpoint {
    me: usize,
    n: usize,
    raws: Arc<[Arc<dyn Transport>]>,
    protos: Arc<[Arc<NodeProto>]>,
    cfg: NetConfig,
    /// [`link_plan`] of `cfg`.
    plan: Option<CoalescePlan>,
    birth: Instant,
    stats: Arc<NetStats>,
    health: Arc<ClusterHealth>,
    sent: SentMark,
}

impl NodeEndpoint {
    /// Build an endpoint that owns only its own node's state — the
    /// multi-process construction, where remote nodes live behind `raw`.
    /// `pool` is the node's frame pool, shared with `raw` so inbound parse
    /// buffers and outbound frames recycle through the same free lists.
    pub(crate) fn from_single(
        raw: Arc<dyn Transport>,
        cfg: NetConfig,
        pool: Arc<FramePool>,
    ) -> Self {
        let me = raw.node();
        let n = raw.n_nodes();
        Self {
            me,
            n,
            raws: vec![raw].into(),
            protos: vec![Arc::new(NodeProto::new(pool, n))].into(),
            cfg,
            plan: link_plan(&cfg),
            birth: Instant::now(),
            stats: Arc::new(NetStats::default()),
            health: Arc::new(ClusterHealth::new(n)),
            sent: SentMark::default(),
        }
    }

    /// This endpoint's node id.
    pub fn node(&self) -> usize {
        self.me
    }

    /// Number of nodes in the cluster.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Traffic statistics (per cluster in-process, per node multi-process).
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn now_ns(&self) -> u64 {
        self.birth.elapsed().as_nanos() as u64
    }

    /// Index into `raws`/`protos` for `node`, or `None` when that node's
    /// state lives in another OS process.
    fn slot_of(&self, node: usize) -> Option<usize> {
        if self.protos.len() == self.n {
            Some(node)
        } else if node == self.me {
            Some(0)
        } else {
            None
        }
    }

    /// This node's raw frame plane.
    fn raw(&self) -> &dyn Transport {
        &*self.raws[self.slot_of(self.me).unwrap_or(0)]
    }

    /// This node's protocol state.
    fn proto(&self) -> &NodeProto {
        &self.protos[self.slot_of(self.me).unwrap_or(0)]
    }

    fn proto_of(&self, node: usize) -> Option<&NodeProto> {
        self.slot_of(node).map(|s| &*self.protos[s])
    }

    /// Iterate the nodes whose state lives in this process, as
    /// `(node id, proto, raw)`.
    fn known(&self) -> impl Iterator<Item = (usize, &NodeProto, &dyn Transport)> + '_ {
        let local_only = self.protos.len() != self.n;
        self.protos.iter().enumerate().map(move |(slot, p)| {
            let node = if local_only { self.me } else { slot };
            (node, &**p, &*self.raws[slot])
        })
    }

    // --- Crash-stop endpoint faults ---------------------------------------

    /// Crash-stop this node at runtime: from now on nothing leaves or enters
    /// it — no data, no ACKs, no heartbeats. The runtime's crash-injection
    /// path flips this just before killing a rank thread, so survivors see
    /// exactly what a remote node death looks like: silence.
    pub fn silence(&self) {
        self.proto().silenced.store(true, Ordering::Release);
    }

    /// Whether `node` transmits nothing (runtime-silenced, or its endpoint
    /// fault has tripped). A remote node in another process is never
    /// locally knowable as silent — its silence surfaces through the
    /// failure detector instead.
    fn node_silent(&self, node: usize) -> bool {
        let Some(proto) = self.proto_of(node) else {
            return false;
        };
        if proto.silenced.load(Ordering::Acquire) {
            return true;
        }
        match &self.cfg.endpoint_fault {
            Some(f) if f.node == node => f.silent_at(proto.sent_frames.load(Ordering::Relaxed)),
            _ => false,
        }
    }

    fn self_silent(&self) -> bool {
        self.node_silent(self.me)
    }

    /// Whether this node has also stopped *consuming* inbound frames. True
    /// for a runtime crash and a tripped crash/hang fault; false for
    /// byzantine silence, whose inbox keeps swallowing traffic.
    fn self_deaf(&self) -> bool {
        let proto = self.proto();
        if proto.silenced.load(Ordering::Acquire) {
            return true;
        }
        match &self.cfg.endpoint_fault {
            Some(f) if f.node == self.me => {
                f.deaf() && f.silent_at(proto.sent_frames.load(Ordering::Relaxed))
            }
            _ => false,
        }
    }

    /// The other nodes of the cluster: the peers this node has a link to.
    fn peers(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(move |&p| p != self.me)
    }

    /// Send `payload` to `dst_node`, matchable there under `(self.node, tag)`
    /// once it arrives.
    ///
    /// With a coalescing or fault plan configured every data frame is packed
    /// into the pair's link buffer and leaves as part of a jumbo (with a
    /// fault plan, sequence-framed and kept for retransmission until
    /// acknowledged); with neither this is the familiar fire-and-forget
    /// path, byte for byte.
    pub fn send(&self, dst_node: usize, tag: WireTag, payload: &[u8]) {
        self.send_parts(dst_node, tag, &[], payload);
    }

    /// [`NodeEndpoint::send`] with the payload in two pieces: a protocol
    /// header and a body, written back to back into one pooled frame. This
    /// is how `pure-core`'s eager path prepends its frame-kind byte without
    /// an intermediate concatenation `Vec`.
    pub fn send_parts(&self, dst_node: usize, tag: WireTag, head: &[u8], payload: &[u8]) {
        // Sends toward a condemned peer go nowhere: staging them would regrow
        // the link state the detector just garbage-collected.
        if self.cfg.detect.is_some() && self.peer_dead(dst_node).is_some() {
            return;
        }
        match &self.plan {
            Some(plan) if !tag.is_ack() => self.link_send(plan, dst_node, tag, head, payload),
            _ => {
                let mut frame = self.proto().pool.acquire(head.len() + payload.len());
                frame.extend_from_slice(head);
                frame.extend_from_slice(payload);
                self.stats
                    .memcpy_bytes
                    .fetch_add((head.len() + payload.len()) as u64, Ordering::Relaxed);
                self.raw_send(dst_node, tag, frame.freeze());
            }
        }
    }

    /// Put one raw frame on the wire, applying fault-injection decisions
    /// (drop / duplicate / reorder / delay) when configured. Injection sits
    /// above the backend: a dropped frame never reaches `send_frame`, a
    /// reordered one waits in the stash for a later-decided frame to pass
    /// it, a delayed one parks until its due time.
    fn raw_send(&self, dst_node: usize, tag: WireTag, payload: FrameSlice) {
        // Crash-stop: a silent node puts nothing on the wire — data, ACKs,
        // retransmits, and heartbeats all die here. The check precedes the
        // trip-counter bump, so crash-at-frame-N delivers exactly N frames.
        if self.self_silent() {
            return;
        }
        self.proto().sent_frames.fetch_add(1, Ordering::Relaxed);
        self.stats.messages.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        let frame = self.stats.frames.fetch_add(1, Ordering::Relaxed);
        let enc = tag.encode();
        let Some(plan) = &self.cfg.faults else {
            self.raw().send_frame(dst_node, enc, payload);
            return;
        };
        let d = plan.decide(frame);
        if d.drop {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let copies = if d.duplicate {
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            2
        } else {
            1
        };
        // Holding a frame back is a refcount bump, never a byte copy.
        let held = |payload: &FrameSlice| OutFrame {
            dst: dst_node,
            tag_enc: enc,
            payload: payload.clone(),
        };
        if d.extra_delay_ns > 0 {
            let due = self.now_ns() + d.extra_delay_ns;
            let mut pt = self.proto().perturb.lock();
            for _ in 0..copies {
                pt.delayed.push((due, held(&payload)));
            }
            return;
        }
        if d.reorder {
            let mut pt = self.proto().perturb.lock();
            for _ in 0..copies {
                pt.stash.push(held(&payload));
            }
            return;
        }
        for _ in 0..copies {
            self.raw().send_frame(dst_node, enc, payload.clone());
        }
        self.release_reordered(&mut self.proto().perturb.lock());
    }

    /// Put stashed (reordered) frames on the wire. Called right after a
    /// direct transmission, so a stashed frame always travels behind at
    /// least one frame that was decided after it.
    fn release_reordered(&self, pt: &mut Perturb) -> bool {
        let work = !pt.stash.is_empty();
        for f in pt.stash.drain(..) {
            self.raw().send_frame(f.dst, f.tag_enc, f.payload);
        }
        work
    }

    /// Flush the fault injector's holding areas: overdue delayed frames,
    /// plus any reorder stash a quiescent sender left stranded. Frames go to
    /// the backend under the `perturb` lock (the backend never calls back
    /// up), so an idle tick costs one lock and a busy one allocates nothing.
    fn flush_perturbed(&self) -> bool {
        if self.self_silent() {
            return false;
        }
        let mut pt = self.proto().perturb.lock();
        let mut work = self.release_reordered(&mut pt);
        if !pt.delayed.is_empty() {
            let now = self.now_ns();
            pt.delayed.retain(|(at, f)| {
                let due = *at <= now;
                if due {
                    work = true;
                    self.raw().send_frame(f.dst, f.tag_enc, f.payload.clone());
                }
                !due
            });
        }
        work
    }

    /// Non-blocking receive: returns the oldest matchable payload sent from
    /// `src_node` with `tag`, if one has arrived. Drives progress (pumps the
    /// backend, and with a plan armed the link's scatter, retransmits and
    /// ACKs) as a side effect, exactly as an MPI progress engine does on
    /// every receive poll.
    ///
    /// The returned [`FrameSlice`] is a zero-copy view of the pooled wire
    /// frame (for link traffic, a subslice of the arrived jumbo); dropping
    /// it recycles the slab. Copying into a user buffer is the receiver's
    /// single wire→user copy.
    pub fn try_recv(&self, src_node: usize, tag: WireTag) -> Option<FrameSlice> {
        if self.self_deaf() {
            return None; // a crashed node receives nothing
        }
        // Fast path: already matched.
        let enc = tag.encode();
        if let Some(p) = self.raw().recv_frame(src_node, enc) {
            return Some(p);
        }
        // A miss is a fruitless poll: whatever this rank still has in the
        // link buffers goes out before it waits any longer.
        self.flush_sent();
        // Full progress tick, not just a backend pump: a blocked receiver is
        // often the only thread driving this node, and it must keep the
        // failure detector (and heartbeats) running or a dead peer would
        // never be condemned.
        self.progress();
        self.raw().recv_frame(src_node, enc)
    }

    /// The backend pump of a progress tick — the only place the protocol
    /// layer pumps: ingest arrivals (fencing frames from condemned peers)
    /// and apply the liveness piggyback — any arrival (data, ACK,
    /// heartbeat) is evidence its source is alive. Returns whether the
    /// backend moved anything.
    fn pump_raw(&self) -> bool {
        self.stats.pumps.fetch_add(1, Ordering::Relaxed);
        // Epoch fence: frames from a condemned peer are dropped before they
        // reach the match store — the suspicion-vs-late-frame race resolves
        // in favour of the suspicion. They still count as arrivals below.
        // (Only an armed detector ever condemns.)
        let out = self.raw().pump(&|src| self.peer_dead(src).is_some());
        if self.cfg.detect.is_some() && !out.arrivals.is_empty() {
            let now = self.now_ns();
            for src in out.arrivals.iter() {
                let mut inb = self.proto().links[src].inb.lock();
                let h = inb.health.get_or_insert_with(|| PeerHealth::new(now));
                if h.saw_alive(now) {
                    self.stats.false_suspects.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        out.did_work
    }

    /// One progress-engine tick: pump the backend **once**, then let every
    /// armed sublayer drain its own frame classes from the match store
    /// (`recv_frame` only — no sublayer pumps again; a frame that lands
    /// mid-tick is the next tick's): with a plan armed flush aged link
    /// buffers and walk the links (ACKs in, due retransmits out, arrived
    /// jumbos scattered, ACKs out); in detection mode run the failure
    /// detector. The steady-state tick allocates nothing, reads the clock
    /// once above the backend, and with nothing buffered takes neither a
    /// link lock nor the clock for the age watermark.
    ///
    /// Locks, in the only order any path nests them: one link mutex (a
    /// link's outbound *or* inbound half, never two) → `perturb` → backend
    /// (connection or inbox → match-store shard), with the frame pool's
    /// free lists as leaves.
    ///
    /// Returns whether the tick did any work — frames moved, buffers
    /// flushed, retransmits or ACKs or heartbeats sent. Callers polling
    /// from a wait use a `false` streak to back off instead of busy-spinning
    /// on an idle backend.
    pub fn progress(&self) -> bool {
        self.stats.progress_polls.fetch_add(1, Ordering::Relaxed);
        if self.self_silent() {
            // A dead node's engine answers nothing. A byzantine-silent node
            // still swallows inbound traffic (its store stays live) but
            // never ACKs, retransmits, or heartbeats.
            if !self.self_deaf() {
                return self.pump_raw();
            }
            return false;
        }
        let mut work = self.pump_raw();
        let timed = self.cfg.faults.is_some() || self.cfg.detect.is_some();
        let now = if timed { self.now_ns() } else { 0 };
        if let Some(plan) = &self.plan {
            work |= self.flush_aged(plan);
            work |= self.link_tick(now);
        }
        if self.cfg.detect.is_some() {
            work |= self.detect_tick(now);
        }
        work
    }

    // --- The per-peer data links (coalescing or fault plan armed) ---------

    /// Pack one outbound data frame into the link buffer toward `dst_node`,
    /// flushing the buffer when a watermark trips. Payloads over the
    /// eligibility cutoff flush what is pending and then travel as their
    /// own single-subframe jumbo, so the whole per-peer data plane stays
    /// one FIFO.
    ///
    /// Buffer take and wire emission run under the link's one outbound
    /// critical section: jumbos must reach the wire (and, with a fault
    /// plan, take their sequence number) in take order, or a racing sender
    /// on the same node could emit a later jumbo first and scatter one
    /// tag's subframes out of FIFO order at the receiver.
    fn link_send(
        &self,
        plan: &CoalescePlan,
        dst_node: usize,
        tag: WireTag,
        head: &[u8],
        payload: &[u8],
    ) {
        let proto = self.proto();
        let mut out = proto.links[dst_node].out.lock();
        let total = head.len() + payload.len();
        self.stats
            .memcpy_bytes
            .fetch_add(total as u64, Ordering::Relaxed);
        let buffered = if total > plan.eligible_max {
            self.take_and_emit(dst_node, &mut out);
            // Oversize: a single-subframe jumbo, gathered straight into a
            // pooled buffer (with seq headroom, like any jumbo).
            let mut solo = proto
                .pool
                .acquire(JUMBO_HEADROOM + SUBFRAME_HEADER_BYTES + total);
            solo.extend_from_slice(&[0u8; JUMBO_HEADROOM]);
            coalesce::pack_subframe_into(&mut solo, tag.encode(), head, payload);
            self.emit_jumbo(dst_node, &mut out.tx, solo);
            false
        } else {
            // The clock is read only where a time is used: to stamp the
            // subframe that opens an empty buffer, and to age a buffer the
            // push left below the count and size watermarks.
            let opens = out.buf.frames == 0;
            let stamp = if opens {
                self.now_ns()
            } else {
                out.buf.first_ns
            };
            out.buf
                .push(&proto.pool, tag.encode(), head, payload, stamp);
            proto.co_pending.fetch_add(1, Ordering::Relaxed);
            if self.cfg.coalesce.is_some() {
                self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            let due =
                out.buf.full(plan) || out.buf.due(plan, if opens { stamp } else { self.now_ns() });
            if due {
                self.take_and_emit(dst_node, &mut out);
            }
            !due
        };
        // This handle now has something buffered toward `dst_node`. The
        // bit is shared by every destination 64 apart, so a flush here
        // proves nothing about the others: only `flush_marked`, which
        // looks at the buffers, clears marks.
        if buffered {
            self.sent
                .0
                .fetch_or(SentMark::bit(dst_node), Ordering::Relaxed);
        }
    }

    /// Take `out`'s pending jumbo, if any, and transmit it. The caller holds
    /// the link's outbound lock.
    fn take_and_emit(&self, dst_node: usize, out: &mut LinkOut) -> bool {
        let frames = out.buf.frames;
        let Some(jumbo) = out.buf.take() else {
            return false;
        };
        self.proto()
            .co_pending
            .fetch_sub(frames as u64, Ordering::Relaxed);
        self.emit_jumbo(dst_node, &mut out.tx, jumbo);
        true
    }

    /// Transmit one jumbo frame on the link toward `dst_node`, whose
    /// outbound lock the caller holds (so emission order equals take order;
    /// deadlock-free, as `perturb` and the backend below never take a link
    /// lock).
    ///
    /// `jumbo` arrives as an unfrozen buffer carrying [`JUMBO_HEADROOM`]
    /// zeroed front bytes: with a fault plan the reliable sequence number
    /// is patched into them in place (no re-framing copy) and the
    /// retransmit queue keeps a refcount on the slab; without one the frame
    /// is frozen and sliced past them, so the wire bytes are headerless.
    fn emit_jumbo(&self, dst_node: usize, tx: &mut TxState, jumbo: FrameBuf) {
        if self.cfg.coalesce.is_some() {
            self.stats.coalesce_flushes.fetch_add(1, Ordering::Relaxed);
        }
        let frame = if self.cfg.faults.is_some() {
            tx.stage(jumbo, self.now_ns())
        } else {
            jumbo.freeze().slice_from(JUMBO_HEADROOM)
        };
        self.raw_send(dst_node, WireTag::coalesce(), frame);
    }

    /// Flush every non-empty link buffer `pick` selects. With nothing
    /// buffered on the node this is one relaxed load.
    fn flush_bufs(&self, mut pick: impl FnMut(usize, &CoalesceBuf) -> bool) -> bool {
        let proto = self.proto();
        if proto.co_pending.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let mut work = false;
        for dst in self.peers() {
            let mut out = proto.links[dst].out.lock();
            if out.buf.frames > 0 && pick(dst, &out.buf) {
                work |= self.take_and_emit(dst, &mut out);
            }
        }
        work
    }

    /// Flush link buffers whose age watermark has tripped — the progress
    /// tick's backstop for subframes whose sender neither filled the buffer
    /// nor blocked.
    fn flush_aged(&self, plan: &CoalescePlan) -> bool {
        // The clock is read once, and only if some buffer holds a subframe.
        let mut now = None;
        self.flush_bufs(|_, buf| buf.due(plan, *now.get_or_insert_with(|| self.now_ns())))
    }

    /// Flush the subframes *this handle* buffered and has not seen go out:
    /// what a rank calls whenever it polls for something and finds nothing,
    /// because a sender that starts waiting has nothing more to add to the
    /// batch. [`NodeEndpoint::try_recv`] does it on every miss; blocking
    /// waits that poll something else (an intra-node queue, a request) call
    /// it from their fruitless polls.
    ///
    /// A marked buffer goes out at the first such call that finds its oldest
    /// subframe `BLOCKED_LINGER_NS` old (or `flush_ns` old, if that is
    /// less); until then the mark stays and the caller keeps polling.
    ///
    /// A handle that has buffered nothing since its last flush pays one
    /// relaxed load — no lock — and leaves a neighbour rank's half-filled
    /// buffers toward other nodes alone, so one rank's wait does not cut
    /// another's burst short. Returns whether a jumbo went out.
    #[inline]
    pub fn flush_sent(&self) -> bool {
        self.sent.0.load(Ordering::Relaxed) != 0 && self.flush_marked()
    }

    /// The slow half of [`NodeEndpoint::flush_sent`]: something is marked.
    /// Recomputes the mark from the buffers, so one that went out some
    /// other way (a watermark, another rank's flush) drops out of it here.
    fn flush_marked(&self) -> bool {
        let Some(plan) = &self.plan else {
            return false;
        };
        let linger = plan.flush_ns.min(BLOCKED_LINGER_NS);
        let mine = self.sent.0.load(Ordering::Relaxed);
        let mut now = None;
        let mut lingering = 0;
        let work = self.flush_bufs(|dst, buf| {
            let bit = SentMark::bit(dst);
            if mine & bit == 0 {
                return false;
            }
            let now = *now.get_or_insert_with(|| self.now_ns());
            let ripe = now.saturating_sub(buf.first_ns) >= linger;
            if !ripe {
                lingering |= bit;
            }
            ripe
        });
        self.sent.0.store(lingering, Ordering::Relaxed);
        work
    }

    /// Force-flush every pending link buffer on this node, watermarks or
    /// not — the end-of-run path, so no subframe is stranded.
    pub fn flush_coalesced(&self) {
        self.sent.0.store(0, Ordering::Relaxed);
        self.flush_bufs(|_, _| true);
    }

    /// Sort one jumbo's subframes into the match store in arrival order.
    /// Each subframe is handed over as a zero-copy subslice of the jumbo's
    /// pooled slab; the slab recycles once every receiver has consumed its
    /// slice.
    fn scatter_jumbo(&self, src: usize, jumbo: &FrameSlice) {
        for (enc, range) in coalesce::unpack_subframe_ranges(jumbo) {
            self.stats.frames_borrowed.fetch_add(1, Ordering::Relaxed);
            self.raw().push_local(src, enc, jumbo.slice(range));
        }
    }

    /// The link half of a progress tick, one walk over the peers: with a
    /// fault plan, flush held fault-injected frames, then per link drain
    /// the peer's ACKs and retransmit an overdue frame (outbound half);
    /// unpack every arrived jumbo — through dedup/reorder first when
    /// reliable — and scatter its subframes into the match store under
    /// their original tags, then answer with a batched ACK (inbound half).
    ///
    /// Popping a jumbo and scattering it is one critical section under the
    /// link's inbound lock: several threads tick one node — its ranks, the
    /// helper — and if one could pop jumbo *n* and stall while another
    /// popped and scattered *n + 1*, a tag's subframes would match out of
    /// FIFO order. Frames come from the match store only — the tick's one
    /// pump already ran — and wire traffic (retransmits, ACKs) leaves from
    /// under the link lock, which nothing below it takes.
    fn link_tick(&self, now: u64) -> bool {
        let proto = self.proto();
        let reliable = self.cfg.faults.is_some();
        let mut work = reliable && self.flush_perturbed();
        let jumbo = WireTag::coalesce();
        let ack = WireTag::ack_for(jumbo);
        let (jumbo_enc, ack_enc) = (jumbo.encode(), ack.encode());
        for peer in self.peers() {
            // A condemned peer's link was reset; nothing of its is served.
            if self.peer_dead(peer).is_some() {
                continue;
            }
            let link = &proto.links[peer];
            if reliable {
                let mut out = link.out.lock();
                while let Some(a) = self.raw().recv_frame(peer, ack_enc) {
                    work = true;
                    if let Ok(hdr) = <[u8; 8]>::try_from(&a[..]) {
                        out.tx.on_ack(u64::from_le_bytes(hdr));
                    }
                }
                if let Some(f) = out.tx.due_retransmit(now) {
                    work = true;
                    self.stats.retransmits.fetch_add(1, Ordering::Relaxed);
                    self.raw_send(peer, jumbo, f);
                }
            }
            let mut inb = link.inb.lock();
            let mut saw_dup = false;
            while let Some(f) = self.raw().recv_frame(peer, jumbo_enc) {
                work = true;
                if reliable {
                    let (seq, payload) = deframe(&f);
                    saw_dup |= !inb.rx.accept(seq, payload);
                    while let Some(j) = inb.rx.pop_ready() {
                        self.scatter_jumbo(peer, &j);
                    }
                } else {
                    self.scatter_jumbo(peer, &f);
                }
            }
            // The ACK decision runs every tick, arrivals or not, so a
            // batched ACK still flushes on its age watermark.
            if reliable {
                if let Some((upto, newly)) = inb.rx.ack_due(now, saw_dup) {
                    work = true;
                    self.stats
                        .acks_batched
                        .fetch_add(newly.saturating_sub(1), Ordering::Relaxed);
                    self.stats.acks.fetch_add(1, Ordering::Relaxed);
                    let f = proto.pool.pooled(&upto.to_le_bytes());
                    self.raw_send(peer, ack, f);
                }
            }
        }
        work
    }

    // --- Failure detector (detection mode only) ---------------------------

    /// One failure-detector tick, peer by peer: drain heartbeat frames,
    /// adopt the cluster failure view, evaluate the phi-style threshold,
    /// emit a heartbeat on an idle link, and garbage-collect a newly
    /// condemned peer's link state so nothing retries into the void
    /// forever. Wire traffic and link GC happen outside the link lock the
    /// verdict is reached under.
    fn detect_tick(&self, now: u64) -> bool {
        let Some(plan) = self.cfg.detect else {
            return false;
        };
        let hb = WireTag::heartbeat();
        let hb_enc = hb.encode();
        let mut work = false;
        for peer in self.peers() {
            let mut hb_seen = false;
            while self.raw().recv_frame(peer, hb_enc).is_some() {
                hb_seen = true;
            }
            let (died, beat) = {
                let mut inb = self.proto().links[peer].inb.lock();
                let h = inb.health.get_or_insert_with(|| PeerHealth::new(now));
                if hb_seen && h.saw_alive(now) {
                    self.stats.false_suspects.fetch_add(1, Ordering::Relaxed);
                }
                // Adopt a condemnation another node's detector published,
                // without double-counting the suspicion.
                let adopted = match self.peer_dead(peer) {
                    Some(epoch) if !h.dead => {
                        h.dead = true;
                        h.epoch = epoch;
                        true
                    }
                    _ => false,
                };
                let condemned = h.condemn(now, &plan);
                if condemned {
                    self.stats.suspicions.fetch_add(1, Ordering::Relaxed);
                    self.health.publish(peer, h.epoch);
                }
                let beat = !h.dead && now.saturating_sub(h.last_tx_ns) >= plan.hb_interval_ns;
                if beat {
                    h.last_tx_ns = now;
                }
                (adopted || condemned, beat)
            };
            work |= hb_seen || died || beat;
            if beat {
                self.stats.heartbeats.fetch_add(1, Ordering::Relaxed);
                // Heartbeats are empty: the poolless empty slice costs nothing.
                self.raw_send(peer, hb, FrameSlice::empty());
            }
            if died {
                self.gc_dead_peer(peer);
            }
        }
        work
    }

    /// Garbage-collect this node's state toward a condemned peer: its link
    /// is reset (the retransmit queue stops retrying into the void, inbound
    /// reorder state and any buffered subframes are dropped), held
    /// fault-injected frames toward it are discarded, and the backend sheds
    /// buffered IO toward it. This is what lets the finalize linger drain
    /// instead of spinning on frames a dead peer will never ACK.
    fn gc_dead_peer(&self, peer: usize) {
        let proto = self.proto();
        proto.reset_link(peer);
        {
            let mut pt = proto.perturb.lock();
            pt.stash.retain(|f| f.dst != peer);
            pt.delayed.retain(|(_, f)| f.dst != peer);
        }
        self.raw().drop_peer(peer);
    }

    /// The death epoch of `node`, if any detector has condemned it.
    pub fn peer_dead(&self, node: usize) -> Option<u64> {
        self.health.epoch_of(node)
    }

    /// The cluster-global failure view: condemned nodes and their epochs,
    /// in node order.
    pub fn dead_nodes(&self) -> Vec<(usize, u64)> {
        self.health.condemned().collect()
    }

    /// The lowest condemned node other than this one, with its epoch — the
    /// fast check blocked waits poll to unwind in bounded time.
    pub fn any_dead_peer(&self) -> Option<(usize, u64)> {
        self.health.condemned().find(|&(n, _)| n != self.me)
    }

    /// Bytes the raw transport has accepted but not yet put on the wire.
    /// Always zero for the simulated fabric; on TCP this is the outbound
    /// backlog the finalize linger must drain before the socket closes, or
    /// a blocked remote receiver waits forever on frames nobody flushes.
    pub fn transport_unflushed(&self) -> usize {
        self.raw().unflushed_bytes()
    }

    /// Gracefully close this node's raw transport: flush what can be
    /// flushed and (on socket backends) shut down the write halves so
    /// peers observe EOF instead of a stall. Idempotent.
    pub fn finalize_transport(&self) {
        self.raw().finalize();
    }

    /// Render every locally-known node's progress-engine state for hang
    /// dumps: a line of backend state per node, then one line per peer
    /// whose link holds anything — subframes buffered toward it, the
    /// retransmit backlog, jumbos stashed out of order — or that the
    /// detector has a record of (liveness age, phi interval, epoch, the
    /// DEAD verdict). Watchdog-safe: `try_lock` only; a link half a wedged
    /// rank holds is reported as `<locked>`.
    pub fn progress_debug(&self) -> String {
        use std::fmt::Write as _;
        let now = self.now_ns();
        let mut out = String::new();
        for (i, proto, raw) in self.known() {
            let silent = if self.node_silent(i) { " SILENT" } else { "" };
            let _ = writeln!(out, "  net node {i}{silent}: {}", raw.debug_line());
            for (p, link) in proto.links.iter().enumerate().filter(|&(p, _)| p != i) {
                let outbound = link
                    .out
                    .try_lock()
                    .map(|o| (o.buf.frames, o.tx.outstanding.len()));
                let inbound = link.inb.try_lock().map(|i| (i.rx.stashed(), i.health));
                if outbound == Some((0, 0)) && matches!(inbound, Some((0, None))) {
                    continue; // an idle link says nothing
                }
                let _ = write!(out, "    peer {p}: ");
                let _ = match outbound {
                    Some((buffered, unacked)) => {
                        write!(out, "{buffered} buffered, retx backlog {unacked} frames, ")
                    }
                    None => write!(out, "outbound <locked>, "),
                };
                let Some((stashed, health)) = inbound else {
                    let _ = writeln!(out, "inbound <locked>");
                    continue;
                };
                let _ = write!(out, "jumbo-rx {stashed} stashed");
                let _ = match health {
                    Some(h) if h.dead => writeln!(
                        out,
                        "; DEAD epoch {} (posthumous frames {})",
                        h.epoch, h.posthumous
                    ),
                    Some(h) => writeln!(
                        out,
                        "; last-ack/liveness age {:.1} ms, mean interval {:.1} ms, epoch {}",
                        now.saturating_sub(h.last_seen_ns) as f64 / 1e6,
                        h.mean_interval_ns as f64 / 1e6,
                        h.epoch
                    ),
                    None => writeln!(out),
                };
            }
        }
        out
    }

    /// Unacknowledged reliable frames outstanding across every node whose
    /// state lives in this process, excluding links that can never drain
    /// because one side is dead: a silent node's own staged frames, and any
    /// node's frames staged toward a condemned peer. Zero means every frame
    /// a *live* peer still depends on has been confirmed delivered — the
    /// condition the runtime's end-of-run linger waits for.
    pub fn reliable_outstanding(&self) -> usize {
        // A silent node's own staged frames can never drain (its engine
        // processes no ACKs) and no survivor depends on them. Links *toward*
        // a peer are excused only once a detector has actually condemned it
        // — before that, the survivor has no way to know its frames are
        // doomed, and the linger honestly waits (bounded by detection).
        let live = |node: usize| self.peer_dead(node).is_none();
        self.known()
            .filter(|&(i, _, _)| !self.node_silent(i) && live(i))
            .flat_map(|(_, proto, _)| proto.links.iter().enumerate())
            .filter(|&(dst, _)| live(dst))
            .map(|(_, link)| link.out.lock().tx.outstanding.len())
            .sum()
    }

    /// Subframes buffered for coalescing but not yet flushed, across every
    /// node whose state lives in this process. Zero (together with
    /// [`NodeEndpoint::reliable_outstanding`]) means no payload is still
    /// parked inside the transport.
    pub fn coalesce_pending(&self) -> usize {
        self.known()
            .map(|(_, proto, _)| proto.co_pending.load(Ordering::Relaxed) as usize)
            .sum()
    }

    /// Merged frame-pool counters across every node whose state lives in
    /// this process.
    pub fn pool_snapshot(&self) -> PoolStats {
        let mut merged = PoolStats::default();
        for (_, proto, _) in self.known() {
            merged.merge(&proto.pool.snapshot());
        }
        merged
    }

    /// Total payload bytes memcpy'd on the wire path: the protocol layer's
    /// gather copies plus each backend's serialize/parse copies, across
    /// every node whose state lives in this process.
    pub fn memcpy_bytes(&self) -> u64 {
        self.stats.memcpy_bytes.load(Ordering::Relaxed)
            + self
                .known()
                .map(|(_, _, raw)| raw.memcpy_bytes())
                .sum::<u64>()
    }

    /// Drop every frame still parked in the wire stack — every link's
    /// buffer, retransmit queue and reorder stash, fault-injection holding
    /// areas, match stores and inbound queues — returning their slabs to
    /// the pools. Teardown only (after every rank has exited): afterwards
    /// the pool snapshot must balance, `acquired() == released()`, or a
    /// slab was leaked or double-freed.
    pub fn purge_pooled(&self) {
        for (_, proto, raw) in self.known() {
            for peer in 0..proto.links.len() {
                proto.reset_link(peer);
            }
            {
                let mut pt = proto.perturb.lock();
                pt.stash.clear();
                pt.delayed.clear();
            }
            raw.purge();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn stats_count_traffic() {
        let c = Cluster::new(2, NetConfig::default());
        let a = c.endpoint(0);
        a.send(1, WireTag::p2p(0, 0, 0), &[0u8; 100]);
        a.send(1, WireTag::p2p(0, 0, 1), &[0u8; 28]);
        assert_eq!(c.stats().snapshot(), (2, 128));
    }

    /// Satellite regression: `progress()` reports whether the tick actually
    /// moved anything, so cooperative callers can back off on idle engines
    /// instead of busy-spinning a real socket.
    #[test]
    fn progress_reports_whether_it_did_work() {
        let c = Cluster::new(2, NetConfig::default());
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        assert!(!b.progress(), "an idle engine has no work");
        a.send(1, WireTag::p2p(0, 0, 1), &[7]);
        assert!(b.progress(), "ingesting an arrived frame is work");
        assert!(!b.progress(), "drained engine goes idle again");
        assert_eq!(b.try_recv(0, WireTag::p2p(0, 0, 1)).unwrap(), vec![7]);
    }

    /// The reliable sublayer must deliver every frame exactly once, in
    /// order, despite heavy injected loss/duplication/reordering — by
    /// retransmitting on backoff until acknowledged.
    #[test]
    fn reliable_delivery_survives_chaos_faults() {
        for seed in 0..4 {
            let mut plan = crate::FaultPlan::chaos(seed);
            plan.drop_pm = 200; // 20% drops: exercises the retry path hard
            plan.extra_delay_ns = 20_000;
            let c = Cluster::new(2, NetConfig::default().with_faults(plan));
            let a = c.endpoint(0);
            let b = c.endpoint(1);
            let tag = WireTag::p2p(0, 0, 5);
            const N: u8 = 50;
            for i in 0..N {
                a.send(1, tag, &[i, i.wrapping_mul(3)]);
            }
            let start = Instant::now();
            let mut got = Vec::new();
            while got.len() < N as usize {
                a.progress(); // the sender's side must keep retransmitting
                if let Some(p) = b.try_recv(0, tag) {
                    got.push(p);
                }
                assert!(
                    start.elapsed().as_secs() < 10,
                    "seed {seed}: stuck at {} of {N} frames",
                    got.len()
                );
                thread::yield_now();
            }
            for (i, p) in got.iter().enumerate() {
                let i = i as u8;
                assert_eq!(p[..], [i, i.wrapping_mul(3)], "seed {seed}: frame {i}");
            }
            assert_eq!(b.try_recv(0, tag), None, "no duplicates may surface");
            // Let the final ACKs land so the links drain.
            let t0 = Instant::now();
            while a.reliable_outstanding() > 0 {
                a.progress();
                b.progress();
                assert!(t0.elapsed().as_secs() < 10, "links never drained");
                thread::yield_now();
            }
        }
    }

    /// 16 small messages under an 8-frame watermark must travel as exactly
    /// 2 wire frames, arrive byte-exact in order, and show up in the
    /// coalescing counters.
    #[test]
    fn coalescing_packs_small_messages_into_jumbos() {
        let c = Cluster::new(
            2,
            NetConfig::default().with_coalescing(CoalescePlan::default()),
        );
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(0, 0, 3);
        for i in 0..16u8 {
            a.send(1, tag, &[i, i ^ 0x5A]);
        }
        assert_eq!(a.coalesce_pending(), 0, "both watermark flushes fired");
        for i in 0..16u8 {
            let p = b.try_recv(0, tag).expect("subframe must be matchable");
            assert_eq!(p, vec![i, i ^ 0x5A]);
        }
        assert_eq!(b.try_recv(0, tag), None);
        assert_eq!(c.stats().frames.load(Ordering::Relaxed), 2);
        let (coalesced, flushes, _, _) = c.stats().coalesce_snapshot();
        assert_eq!((coalesced, flushes), (16, 2));
    }

    /// An oversized payload must not overtake (or be overtaken by) buffered
    /// small frames on the same link: the split into solo jumbos preserves
    /// per-peer FIFO.
    #[test]
    fn coalescing_preserves_fifo_across_the_size_split() {
        let plan = CoalescePlan {
            max_bytes: 1 << 20,
            max_frames: 100,
            flush_ns: u64::MAX,
            eligible_max: 8,
        };
        let c = Cluster::new(2, NetConfig::default().with_coalescing(plan));
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(0, 0, 1);
        a.send(1, tag, &[1]); // buffered
        a.send(1, tag, &[2u8; 64]); // oversize: flushes [1], then goes solo
        a.send(1, tag, &[3]); // buffered again
        assert_eq!(a.coalesce_pending(), 1);
        a.flush_coalesced();
        assert_eq!(a.coalesce_pending(), 0);
        assert_eq!(b.try_recv(0, tag).unwrap(), vec![1]);
        assert_eq!(b.try_recv(0, tag).unwrap(), vec![2u8; 64]);
        assert_eq!(b.try_recv(0, tag).unwrap(), vec![3]);
        assert_eq!(c.stats().frames.load(Ordering::Relaxed), 3);
    }

    /// What every several-ranks-one-link test ends on: without a coalescing
    /// plan the coalescing counters stay at zero, and once the wire stack is
    /// purged every pooled slab is back.
    fn assert_counters_and_pool_balance(c: &Cluster, cfg: &NetConfig) {
        if cfg.coalesce.is_none() {
            let (coalesced, flushes, _, _) = c.stats().coalesce_snapshot();
            assert_eq!((coalesced, flushes), (0, 0), "no plan, nothing coalesced");
        }
        c.purge_pooled();
        assert_eq!(c.pool_snapshot().outstanding(), 0, "slabs leaked: {cfg:?}");
    }

    /// Regression (take→emit atomicity): two rank threads on one node share
    /// the pair's one link. If one thread could take a jumbo holding the
    /// other's frames (or, on a reliable link, take a sequence number) and
    /// be preempted before emitting it, a later jumbo would reach the wire
    /// first and break per-tag FIFO at the receiver. Emission happens under
    /// the link's outbound lock, so this must never reorder — with a
    /// coalescing plan, and with only a fault plan, where every message is
    /// its own jumbo on the shared reliable link.
    #[test]
    fn concurrent_senders_keep_per_tag_fifo_under_coalescing() {
        let plan = CoalescePlan {
            max_bytes: 1 << 20,
            max_frames: 4,
            flush_ns: u64::MAX,
            eligible_max: 1024,
        };
        for cfg in [
            NetConfig::default().with_coalescing(plan),
            NetConfig::default().with_faults(crate::FaultPlan::chaos(3)),
            NetConfig::default().with_faults(crate::FaultPlan::drops(3, 0)),
        ] {
            let c = Cluster::new(2, cfg);
            let (a, b) = (c.endpoint(0), c.endpoint(1));
            const N: u32 = 2000;
            let mut handles = Vec::new();
            for t in 0..2usize {
                let a = c.endpoint(0);
                handles.push(thread::spawn(move || {
                    let tag = WireTag::p2p(t, 0, 1);
                    for i in 0..N {
                        a.send(1, tag, &i.to_le_bytes());
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            a.flush_coalesced();
            let start = Instant::now();
            for t in 0..2usize {
                let tag = WireTag::p2p(t, 0, 1);
                for i in 0..N {
                    let p = loop {
                        if let Some(p) = b.try_recv(0, tag) {
                            break p;
                        }
                        a.progress(); // a lossy link needs its retransmits
                        assert!(
                            start.elapsed().as_secs() < 30,
                            "{cfg:?}: tag {t}: subframe {i} missing"
                        );
                    };
                    assert_eq!(
                        u32::from_le_bytes((&p[..]).try_into().unwrap()),
                        i,
                        "{cfg:?}: tag {t}: subframes reordered"
                    );
                }
                assert_eq!(b.try_recv(0, tag), None);
            }
            assert_counters_and_pool_balance(&c, &cfg);
        }
    }

    /// Flush-when-blocked, with the age watermark out of reach: a handle's
    /// `try_recv` miss puts what *that handle* buffered on the wire and
    /// nothing else — a handle that buffered nothing takes no lock and
    /// leaves its neighbours' half-filled buffers alone.
    #[test]
    fn a_miss_flushes_what_the_handle_itself_buffered_and_nothing_else() {
        let plan = CoalescePlan {
            flush_ns: u64::MAX,
            ..CoalescePlan::default()
        };
        let c = Cluster::new(3, NetConfig::default().with_coalescing(plan));
        // Three ranks' handles on node 0.
        let (mine, neighbour, idle) = (c.endpoint(0), c.endpoint(0), c.endpoint(0));
        let (n1, n2) = (c.endpoint(1), c.endpoint(2));
        let tag = WireTag::p2p(0, 0, 1);
        mine.send(1, tag, b"mine");
        neighbour.send(2, tag, b"neighbour's");
        assert_eq!(idle.try_recv(1, tag), None);
        assert!(!idle.flush_sent());
        assert_eq!(
            c.endpoint(0).coalesce_pending(),
            2,
            "idle polls flush nothing"
        );
        // This rank would block: it keeps missing, and once its subframe
        // has lingered the next miss flushes it.
        while c.endpoint(0).coalesce_pending() == 2 {
            assert_eq!(mine.try_recv(1, tag), None);
        }
        assert_eq!(
            c.endpoint(0).coalesce_pending(),
            1,
            "only its own subframe left"
        );
        assert_eq!(n1.try_recv(0, tag).as_deref(), Some(&b"mine"[..]));
        assert_eq!(n2.try_recv(0, tag), None);
        while !neighbour.flush_sent() {}
        assert_eq!(n2.try_recv(0, tag).as_deref(), Some(&b"neighbour's"[..]));
        // A burst that leaves by the count watermark leaves no mark behind.
        for i in 0..8u8 {
            mine.send(1, tag, &[i]);
        }
        assert!(!mine.flush_sent(), "nothing of this handle's is buffered");
        let (coalesced, flushes, _, _) = c.stats().coalesce_snapshot();
        assert_eq!((coalesced, flushes), (10, 3));
    }

    /// Destinations 64 apart share a mark bit. A watermark flush toward one
    /// of them must not un-mark what the handle still has buffered toward
    /// the other, or the rank that then blocks never flushes it (with the
    /// age watermark out of reach, as here, it would sit there for good).
    #[test]
    fn a_flush_toward_one_node_keeps_the_mark_of_a_node_64_apart() {
        let plan = CoalescePlan {
            flush_ns: u64::MAX,
            ..CoalescePlan::default()
        };
        let c = Cluster::new(66, NetConfig::default().with_coalescing(plan));
        let mine = c.endpoint(0);
        let tag = WireTag::p2p(0, 0, 1);
        mine.send(1, tag, b"lone");
        for i in 0..8u8 {
            mine.send(65, tag, &[i]); // leaves by the count watermark
        }
        assert_eq!(mine.coalesce_pending(), 1);
        // The rank blocks: its fruitless polls flush the lone subframe once
        // it has lingered.
        let start = Instant::now();
        while mine.coalesce_pending() == 1 {
            mine.flush_sent();
            assert!(
                start.elapsed().as_secs() < 2,
                "the subframe toward node 1 lost its mark"
            );
        }
        assert_eq!(
            c.endpoint(1).try_recv(0, tag).as_deref(),
            Some(&b"lone"[..])
        );
        assert_eq!(c.endpoint(65).try_recv(0, tag).as_deref(), Some(&[0][..]));
    }

    /// One backend pump per progress tick, whatever is armed and whatever
    /// the tick finds: no sublayer pumps on its own.
    #[test]
    fn a_progress_tick_pumps_the_backend_exactly_once() {
        let detect = crate::DetectPlan {
            hb_interval_ns: 20_000,
            suspect_after_ns: 10_000_000_000,
            phi: 8,
        };
        let c = Cluster::new(
            2,
            NetConfig::default()
                .with_faults(crate::FaultPlan::chaos(5))
                .with_coalescing(CoalescePlan::default())
                .with_detection(detect),
        );
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(0, 0, 2);
        let start = Instant::now();
        for i in 0..200u8 {
            a.send(1, tag, &[i]);
            while b.try_recv(0, tag).is_none() {
                a.progress();
                assert!(start.elapsed().as_secs() < 10, "stuck at message {i}");
            }
        }
        let polls = c.stats().progress_polls.load(Ordering::Relaxed);
        assert!(polls >= 200);
        assert_eq!(c.stats().pumps.load(Ordering::Relaxed), polls);
    }

    /// Several threads tick one node (its ranks' receive polls, the helper
    /// thread). Pop-and-scatter of an arrived jumbo is atomic per link, so
    /// however their ticks interleave — more tickers than cores here, so
    /// they get preempted mid-tick — each tag's subframes reach the match
    /// store in send order: coalesced, coalesced over the reliable link, and
    /// with only a fault plan (lossless and lossy), where each message is a
    /// jumbo of its own.
    #[test]
    fn concurrent_tickers_keep_per_tag_fifo_when_scattering_jumbos() {
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let pairs = NetConfig::default().with_coalescing(CoalescePlan {
            max_frames: 2,
            ..CoalescePlan::default()
        });
        for (cfg, n) in [
            (pairs, 20_000u32),
            (pairs.with_faults(crate::FaultPlan::drops(1, 0)), 20_000),
            (
                NetConfig::default().with_faults(crate::FaultPlan::drops(1, 0)),
                20_000,
            ),
            (
                NetConfig::default().with_faults(crate::FaultPlan::chaos(1)),
                5_000,
            ),
        ] {
            let c = Cluster::new(2, cfg);
            let tag = WireTag::p2p(0, 0, 1);
            let stop = AtomicBool::new(false);
            thread::scope(|s| {
                // Also on a failed assertion below, or the scope never joins.
                let _stop = StopOnDrop(&stop);
                for _ in 0..3 {
                    let ticker = c.endpoint(1);
                    let stop = &stop;
                    s.spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            ticker.progress();
                        }
                    });
                }
                let a = c.endpoint(0);
                let stop = &stop;
                s.spawn(move || {
                    for i in 0..n {
                        a.send(1, tag, &i.to_le_bytes());
                        a.progress(); // ACKs in, so the retransmit queue drains
                    }
                    a.flush_coalesced();
                    // A lossy link needs its sender until the last ACK.
                    while a.reliable_outstanding() > 0 && !stop.load(Ordering::Relaxed) {
                        a.progress();
                    }
                });
                let b = c.endpoint(1);
                let start = Instant::now();
                let mut next = 0;
                while next < n {
                    match b.try_recv(0, tag) {
                        Some(p) => {
                            let got = u32::from_le_bytes((&p[..]).try_into().unwrap());
                            assert_eq!(got, next, "{cfg:?}: subframes reordered");
                            next += 1;
                        }
                        None => thread::yield_now(),
                    }
                    assert!(start.elapsed().as_secs() < 30, "{cfg:?}: stuck at {next}");
                }
            });
            assert_counters_and_pool_balance(&c, &cfg);
        }
    }

    /// Coalescing over the faulty transport: jumbos ride the reliable
    /// sublayer, so every subframe still arrives exactly once, in order,
    /// with batched ACKs keeping the links drained.
    #[test]
    fn coalescing_composes_with_chaos_faults() {
        for seed in 0..3 {
            let mut plan = crate::FaultPlan::chaos(seed);
            plan.drop_pm = 150;
            let c = Cluster::new(
                2,
                NetConfig::default()
                    .with_faults(plan)
                    .with_coalescing(CoalescePlan::default()),
            );
            let a = c.endpoint(0);
            let b = c.endpoint(1);
            let tag = WireTag::p2p(0, 0, 5);
            const N: u8 = 40;
            for i in 0..N {
                a.send(1, tag, &[i, i.wrapping_mul(7)]);
            }
            a.flush_coalesced();
            let start = Instant::now();
            let mut got = Vec::new();
            while got.len() < N as usize {
                a.progress(); // sender keeps retransmitting lost jumbos
                if let Some(p) = b.try_recv(0, tag) {
                    got.push(p);
                }
                assert!(
                    start.elapsed().as_secs() < 10,
                    "seed {seed}: stuck at {} of {N} subframes",
                    got.len()
                );
                thread::yield_now();
            }
            for (i, p) in got.iter().enumerate() {
                let i = i as u8;
                assert_eq!(p[..], [i, i.wrapping_mul(7)], "seed {seed}: subframe {i}");
            }
            assert_eq!(b.try_recv(0, tag), None, "no duplicates may surface");
            let t0 = Instant::now();
            while a.reliable_outstanding() > 0 || a.coalesce_pending() > 0 {
                a.progress();
                b.progress();
                assert!(t0.elapsed().as_secs() < 10, "links never drained");
                thread::yield_now();
            }
        }
    }

    /// A crash-stopped peer must be condemned by the phi detector, its
    /// retransmit state garbage-collected (so the linger condition drains),
    /// and any frame it left in flight fenced by epoch instead of
    /// dispatched.
    #[test]
    fn detector_condemns_silent_peer_and_drains_links() {
        let detect = crate::DetectPlan {
            hb_interval_ns: 100_000,     // 100 µs
            suspect_after_ns: 5_000_000, // 5 ms: fast for the test
            phi: 4,
        };
        let c = Cluster::new(
            2,
            NetConfig::default()
                .with_faults(crate::FaultPlan::drops(3, 0))
                .with_detection(detect),
        );
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(0, 0, 9);
        // Some live traffic both ways, then node 1 crashes.
        a.send(1, tag, b"ping");
        b.send(0, tag, b"pong");
        assert_eq!(b.try_recv(0, tag).as_deref(), Some(&b"ping"[..]));
        assert_eq!(a.try_recv(1, tag).as_deref(), Some(&b"pong"[..]));
        b.silence();
        // A send into the void: staged, never to be ACKed.
        a.send(1, tag, b"doomed");
        assert!(a.reliable_outstanding() > 0 || a.peer_dead(1).is_some());
        let t0 = Instant::now();
        while a.peer_dead(1).is_none() {
            a.progress();
            assert!(
                t0.elapsed().as_secs() < 10,
                "detector never condemned the silent peer"
            );
            thread::yield_now();
        }
        let (_, suspicions, _) = c.stats().health_snapshot();
        assert!(suspicions >= 1, "a condemnation counts as a suspicion");
        assert_eq!(
            a.reliable_outstanding(),
            0,
            "links toward the corpse must be garbage-collected"
        );
        assert_eq!(a.any_dead_peer(), Some((1, 1)));
        // Post-condemnation sends are swallowed, not staged.
        a.send(1, tag, b"late");
        assert_eq!(a.reliable_outstanding(), 0);
        let dump = c.progress_debug();
        assert!(
            dump.contains("DEAD epoch 1"),
            "dump must show the verdict:\n{dump}"
        );
    }

    /// Heartbeats keep an idle link's liveness evidence flowing, and a live
    /// pair never gets condemned.
    #[test]
    fn heartbeats_prevent_suspicion_on_idle_links() {
        // The floor is far above a scheduling stall of this one ticking
        // thread (a 10 ms floor lost to the stress tests running beside it).
        let detect = crate::DetectPlan {
            hb_interval_ns: 50_000,       // 50 µs
            suspect_after_ns: 50_000_000, // 50 ms
            phi: 8,
        };
        let c = Cluster::new(2, NetConfig::default().with_detection(detect));
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let t0 = Instant::now();
        // Idle for 3× the suspicion floor, both engines ticking.
        while t0.elapsed().as_millis() < 150 {
            a.progress();
            b.progress();
            thread::yield_now();
        }
        assert_eq!(a.any_dead_peer(), None, "live peers must not be condemned");
        assert_eq!(b.any_dead_peer(), None);
        let (hb, suspicions, _) = c.stats().health_snapshot();
        assert!(hb > 0, "idle links must carry heartbeats");
        assert_eq!(suspicions, 0);
    }

    /// The seeded endpoint fault trips on its own, without runtime help:
    /// crash-at-frame-N delivers exactly N raw frames and then goes dark.
    #[test]
    fn endpoint_fault_trips_at_the_seeded_frame() {
        let plan = crate::EndpointFaultPlan {
            node: 0,
            kind: crate::EndpointFaultKind::CrashAtFrame(3),
        };
        let c = Cluster::new(2, NetConfig::default().with_endpoint_fault(plan));
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(0, 0, 1);
        for i in 0..10u8 {
            a.send(1, tag, &[i]);
        }
        for i in 0..3u8 {
            assert_eq!(
                b.try_recv(0, tag).unwrap(),
                vec![i],
                "pre-trip frames deliver"
            );
        }
        assert_eq!(
            b.try_recv(0, tag),
            None,
            "post-trip frames never leave the node"
        );
    }

    /// The pooled wire path balances: after draining traffic and purging,
    /// every acquired slab has been released, and the steady state is
    /// served from the free lists (hits dominate misses).
    #[test]
    fn pooled_wire_path_recycles_slabs() {
        let c = Cluster::new(
            2,
            NetConfig::default().with_coalescing(CoalescePlan::default()),
        );
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(0, 0, 4);
        for round in 0..50u8 {
            a.send(1, tag, &[round, 1, 2, 3]);
            a.flush_coalesced();
            assert_eq!(b.try_recv(0, tag).unwrap(), [round, 1, 2, 3]);
        }
        let st = c.pool_snapshot();
        assert!(st.hits > st.misses, "steady state must reuse slabs: {st:?}");
        c.purge_pooled();
        assert_eq!(
            c.pool_snapshot().outstanding(),
            0,
            "every slab must return to its pool"
        );
    }

    /// `send_parts` concatenates header + body into one pooled frame; the
    /// receiver sees exactly the concatenation, on both the plain and the
    /// coalesced path.
    #[test]
    fn send_parts_matches_concatenated_send() {
        for cfg in [
            NetConfig::default(),
            NetConfig::default().with_coalescing(CoalescePlan::default()),
        ] {
            let c = Cluster::new(2, cfg);
            let a = c.endpoint(0);
            let b = c.endpoint(1);
            let tag = WireTag::p2p(0, 0, 2);
            a.send_parts(1, tag, &[0xAB], b"payload");
            a.flush_coalesced();
            assert_eq!(b.try_recv(0, tag).unwrap(), b"\xabpayload"[..]);
        }
    }

    /// Without faults the wire format is unchanged: no sequence headers, no
    /// ACK traffic, identical stats.
    #[test]
    fn fault_free_mode_has_zero_overhead() {
        let c = Cluster::new(2, NetConfig::default());
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        a.send(1, WireTag::p2p(0, 0, 0), &[9u8; 10]);
        assert_eq!(b.try_recv(0, WireTag::p2p(0, 0, 0)).unwrap(), [9u8; 10]);
        assert_eq!(c.stats().snapshot(), (1, 10), "no ACKs, no headers");
        assert_eq!(c.stats().fault_snapshot(), (0, 0, 0));
        assert_eq!(a.reliable_outstanding(), 0);
    }
}
