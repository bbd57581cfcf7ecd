//! The node-to-node wire stack, split into two layers:
//!
//! * a **raw frame plane** behind the [`Transport`] trait — tagged frames,
//!   a per-node match store, and a `pump()` tick that ingests arrivals.
//!   Two backends implement it: the in-process simulated fabric (α–β
//!   latency model) and [`crate::tcp::TcpTransport`] (real nonblocking
//!   TCP sockets); and
//! * a **protocol layer** ([`NodeEndpoint`]) that runs unchanged above any
//!   backend: seeded fault injection, the sequence-numbered reliable
//!   delivery sublayer, outbound frame coalescing, and the crash-stop
//!   failure detector.
//!
//! Fault injection sits *above* the raw plane (frames are dropped, held
//! for reordering, or parked on a delay queue before `send_frame`), so the
//! chaos suites exercise identical decision streams over every backend.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::coalesce::{self, CoalesceBuf, CoalescePlan, JUMBO_HEADROOM, SUBFRAME_HEADER_BYTES};
use crate::faults::{DetectPlan, EndpointFaultPlan, FaultPlan, PeerHealth};
use crate::pool::{FrameBuf, FramePool, FrameSlice, PoolStats};
use crate::reliable::{deframe, RxState, TxState, SEQ_HEADER_BYTES};
use crate::tag::{WireTag, CLASS_COALESCE};

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
    /// Seeded fault injection. `Some` switches every internode data frame
    /// onto the reliable (sequence + ACK + retransmit) sublayer; `None` is
    /// the ideal, overhead-free transport.
    pub faults: Option<FaultPlan>,
    /// Outbound frame coalescing. `Some` routes every internode data frame
    /// through the progress engine's per-destination jumbo buffers; `None`
    /// sends frame-per-message.
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
    /// Copying-path ablation: reintroduce the pre-pool deep copies (a
    /// serialize copy per wire frame on send, a fresh buffer per subframe
    /// on scatter) so benchmarks can measure what zero-copy saves. All the
    /// extra traffic is charged to [`NetStats::memcpy_bytes`]. Never set
    /// outside benches.
    pub copy_wire: bool,
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
            copy_wire: false,
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

    /// Enable the copying-path ablation (builder style; benches only).
    pub fn with_copying_wire(mut self) -> Self {
        self.copy_wire = true;
        self
    }
}

/// Match-store key: (source node, encoded wire tag).
pub(crate) type MatchKey = (usize, u64);

struct InFlight {
    key: MatchKey,
    payload: FrameSlice,
    /// Nanoseconds-since-cluster-birth at which this message may be matched.
    deliver_at_ns: u64,
}

/// Reliable-sublayer link key: `(peer node, encoded data wire tag)` — the
/// same unit the raw transport preserves FIFO for.
type LinkKey = (usize, u64);

/// Match-store shard count (power of two). Receivers on unrelated tags hash
/// to different shards and stop serializing on one store lock.
const STORE_SHARDS: usize = 8;

/// Which store shard a match key lives in.
fn shard_of(key: &MatchKey) -> usize {
    let h = (key.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ key.1.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    (h >> 61) as usize & (STORE_SHARDS - 1)
}

/// One node's matchable frames, keyed for receiver lookup and sharded by
/// key hash (see [`shard_of`]). Shared by every backend.
#[derive(Default)]
pub(crate) struct MatchStore {
    shards: [Mutex<HashMap<MatchKey, VecDeque<FrameSlice>>>; STORE_SHARDS],
}

impl MatchStore {
    pub(crate) fn push(&self, key: MatchKey, payload: FrameSlice) {
        let mut shard = self.shards[shard_of(&key)].lock();
        shard.entry(key).or_default().push_back(payload);
    }

    /// Pop the oldest payload under `key`. A drained queue stays in the map
    /// *warm*: removing it would re-allocate the entry on the next push,
    /// breaking the steady-state zero-allocations-per-message budget.
    pub(crate) fn pop(&self, key: &MatchKey) -> Option<FrameSlice> {
        let mut shard = self.shards[shard_of(key)].lock();
        shard.get_mut(key)?.pop_front()
    }

    /// Drop every matchable payload, releasing their slabs (teardown only).
    pub(crate) fn purge(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
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
    /// made matchable. Cooperative-mode callers use this to back off.
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

// --- Simulated backend -----------------------------------------------------

#[derive(Default)]
struct SimNode {
    /// Freshly arrived messages, not yet sorted into the match store.
    inbox: Mutex<VecDeque<InFlight>>,
    store: MatchStore,
}

/// The in-process fabric shared by every [`SimTransport`] of one cluster.
struct SimFabric {
    nodes: Vec<SimNode>,
    birth: Instant,
    alpha_ns: u64,
    beta_ps_per_byte: u64,
}

impl SimFabric {
    fn mesh(n: usize, cfg: &NetConfig, birth: Instant) -> Vec<Arc<dyn Transport>> {
        let fabric = Arc::new(SimFabric {
            nodes: (0..n).map(|_| SimNode::default()).collect(),
            birth,
            alpha_ns: cfg.alpha_ns,
            beta_ps_per_byte: cfg.beta_ps_per_byte,
        });
        (0..n)
            .map(|me| {
                Arc::new(SimTransport {
                    me,
                    fabric: Arc::clone(&fabric),
                }) as Arc<dyn Transport>
            })
            .collect()
    }

    fn now_ns(&self) -> u64 {
        self.birth.elapsed().as_nanos() as u64
    }

    fn delay_ns(&self, bytes: usize) -> u64 {
        self.alpha_ns + (bytes as u64 * self.beta_ps_per_byte) / 1000
    }
}

/// One node's handle onto the simulated fabric.
struct SimTransport {
    me: usize,
    fabric: Arc<SimFabric>,
}

impl Transport for SimTransport {
    fn node(&self) -> usize {
        self.me
    }

    fn n_nodes(&self) -> usize {
        self.fabric.nodes.len()
    }

    fn send_frame(&self, dst: usize, tag_enc: u64, frame: FrameSlice) {
        let deliver_at_ns = self.fabric.now_ns() + self.fabric.delay_ns(frame.len());
        self.fabric.nodes[dst].inbox.lock().push_back(InFlight {
            key: (self.me, tag_enc),
            payload: frame,
            deliver_at_ns,
        });
    }

    fn recv_frame(&self, src: usize, tag_enc: u64) -> Option<FrameSlice> {
        self.fabric.nodes[self.me].store.pop(&(src, tag_enc))
    }

    fn push_local(&self, src: usize, tag_enc: u64, payload: FrameSlice) {
        self.fabric.nodes[self.me]
            .store
            .push((src, tag_enc), payload);
    }

    /// Drain every deliverable message from the inbox into the match store.
    /// A not-yet-deliverable message *blocks* later same-key messages (even
    /// small ones whose modeled latency has elapsed), preserving FIFO per
    /// channel — the ordering guarantee MPI gives per (src, dst, tag). The
    /// store push happens under the inbox lock so two concurrent pumps
    /// cannot interleave one channel's frames out of order.
    fn pump(&self, fenced: &dyn Fn(usize) -> bool) -> PumpOutcome {
        let sh = &self.fabric.nodes[self.me];
        let now = self.fabric.now_ns();
        let mut out = PumpOutcome::default();
        let mut inbox = sh.inbox.lock();
        let mut blocked: Vec<MatchKey> = Vec::new();
        let mut i = 0;
        while i < inbox.len() {
            let m = &inbox[i];
            if m.deliver_at_ns <= now && !blocked.contains(&m.key) {
                let m = inbox.remove(i).unwrap_or_else(|| {
                    crate::die_invariant("inbox index out of bounds while draining")
                });
                out.did_work = true;
                let src = m.key.0;
                out.arrivals.insert(src);
                if !fenced(src) {
                    sh.store.push(m.key, m.payload);
                }
            } else {
                blocked.push(m.key);
                i += 1;
            }
        }
        out
    }

    fn purge(&self) {
        let sh = &self.fabric.nodes[self.me];
        sh.inbox.lock().clear();
        sh.store.purge();
    }

    fn debug_line(&self) -> String {
        let inbox = self.fabric.nodes[self.me]
            .inbox
            .try_lock()
            .map(|q| q.len().to_string())
            .unwrap_or_else(|| "<locked>".into());
        format!("inbox {inbox}")
    }
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

/// One node's protocol-layer state: everything above the raw frame plane.
struct NodeProto {
    /// The node's slab pool: every outbound frame is built in (and every
    /// inbound socket frame parsed into) a buffer acquired here. Shared
    /// with the node's raw transport on backends that parse.
    pool: Arc<FramePool>,
    /// Reliable sender links originating at this node (fault mode only).
    rel_tx: Mutex<HashMap<LinkKey, TxState>>,
    /// Reliable receiver links terminating at this node (fault mode only).
    rel_rx: Mutex<HashMap<LinkKey, RxState>>,
    /// Pending outbound coalescing buffers, destination node → buffer
    /// (coalescing mode only).
    co_tx: Mutex<HashMap<usize, CoalesceBuf>>,
    /// Subframes buffered across `co_tx`, maintained under its lock. Read
    /// relaxed by the flush paths, so a tick on a node with nothing buffered
    /// costs one load — no lock, no clock.
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
    /// Failure-detector state per peer node (detection mode only). Held
    /// while acquiring nothing but the cluster failure view.
    health: Mutex<HashMap<usize, PeerHealth>>,
}

impl NodeProto {
    /// Protocol state of node `me` in an `n`-node cluster running `cfg`.
    fn new(pool: Arc<FramePool>, me: usize, n: usize, cfg: &NetConfig) -> Self {
        // Coalesced traffic over the reliable sublayer arrives on one jumbo
        // link per peer. Those links exist from the start, so the reliable
        // tick's walk over known rx links is all the inbound jumbo handling
        // there is.
        let mut rel_rx = HashMap::new();
        if cfg.coalesce.is_some() && cfg.faults.is_some() {
            let jumbo = WireTag::coalesce().encode();
            rel_rx.extend(
                (0..n)
                    .filter(|&src| src != me)
                    .map(|src| ((src, jumbo), RxState::default())),
            );
        }
        Self {
            pool,
            rel_tx: Mutex::default(),
            rel_rx: Mutex::new(rel_rx),
            co_tx: Mutex::default(),
            co_pending: AtomicU64::new(0),
            perturb: Mutex::default(),
            sent_frames: AtomicU64::new(0),
            silenced: AtomicBool::new(false),
            health: Mutex::default(),
        }
    }
}

/// Cluster-global failure view: the set of condemned nodes and their death
/// epochs. In a real deployment this is the failure-broadcast service layered
/// on the detector; netsim compresses that into a shared table so every
/// surviving node observes a condemnation as soon as any detector fires —
/// which is what makes `agree()` upstairs launch-consistent. A multi-process
/// TCP cluster gets one table per process: each survivor's own detector is
/// its failure-broadcast source.
#[derive(Default)]
struct ClusterHealth {
    /// Condemned nodes → epoch at condemnation.
    dead: Mutex<BTreeMap<usize, u64>>,
    /// Fast-path mirror of `dead.len()` so the hot paths pay one relaxed
    /// load while nobody has died.
    dead_count: AtomicU64,
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
    /// Progress-engine polls (cooperative SSW ticks, helper-thread loops,
    /// and receive-miss polls).
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
    /// Protocol-layer payload memcpy bytes: the user→wire gather copy, plus
    /// every ablation copy when [`NetConfig::copy_wire`] is on. Backend
    /// serialize/parse copies are counted by the backend itself (see
    /// [`Transport::memcpy_bytes`]); control traffic (ACKs, heartbeats) is
    /// not charged.
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
            .enumerate()
            .map(|(me, p)| Arc::new(NodeProto::new(p, me, n_nodes, &cfg)))
            .collect();
        Self {
            raws: raws.into(),
            protos: protos.into(),
            cfg,
            birth,
            stats: Arc::new(NetStats::default()),
            health: Arc::new(ClusterHealth::default()),
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
            birth: self.birth,
            stats: Arc::clone(&self.stats),
            health: Arc::clone(&self.health),
            sent: SentMark::default(),
        }
    }

    /// Render per-node progress-engine state (backend state, inbound jumbo
    /// queue, retransmit backlog, heartbeat/suspicion table) for hang dumps.
    /// Watchdog-safe: uses `try_lock` throughout and reports `<locked>` for
    /// anything a wedged rank is holding.
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
    /// ablation copies + backend serialize/parse), across the cluster.
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

/// Which destinations hold subframes this handle buffered and has not seen
/// flushed: bit `dst % 64`. Per handle, not per node — every rank owns its
/// handle ([`Cluster::endpoint`]), so the mark says what *this rank* still
/// has sitting in the node's coalescing buffers, and a rank that blocks
/// flushes exactly that ([`NodeEndpoint::flush_sent`]). Relaxed atomics only
/// keep the handle `Sync`; one rank reads and writes it.
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
            protos: vec![Arc::new(NodeProto::new(pool, me, n, &cfg))].into(),
            cfg,
            birth: Instant::now(),
            stats: Arc::new(NetStats::default()),
            health: Arc::new(ClusterHealth::default()),
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

    /// Send `payload` to `dst_node`, matchable there under `(self.node, tag)`
    /// once it arrives.
    ///
    /// With a coalescing plan configured every data frame rides the
    /// progress engine's per-destination jumbo buffers; with a fault plan
    /// configured the (possibly jumbo) payload is sequence-framed and kept
    /// for retransmission until acknowledged; with neither this is the
    /// familiar fire-and-forget path, byte for byte.
    pub fn send(&self, dst_node: usize, tag: WireTag, payload: &[u8]) {
        self.send_parts(dst_node, tag, &[], payload);
    }

    /// [`NodeEndpoint::send`] with the payload in two pieces: a protocol
    /// header and a body, written back to back into one pooled frame. This
    /// is how `pure-core`'s eager path prepends its frame-kind byte without
    /// an intermediate concatenation `Vec`.
    pub fn send_parts(&self, dst_node: usize, tag: WireTag, head: &[u8], payload: &[u8]) {
        // Sends toward a condemned peer go nowhere: staging them would regrow
        // the reliable-link state the detector just garbage-collected.
        if self.cfg.detect.is_some() && self.peer_dead(dst_node).is_some() {
            return;
        }
        if self.cfg.coalesce.is_some() && !tag.is_ack() && tag.class != CLASS_COALESCE {
            self.coalesce_send(dst_node, tag, head, payload);
        } else if self.cfg.faults.is_some() && !tag.is_ack() {
            self.reliable_send(dst_node, tag, head, payload);
        } else {
            let frame = self.pooled_parts(0, head, payload);
            self.raw_send(dst_node, tag, frame.freeze());
        }
    }

    /// Gather `head` + `body` into a pooled frame with `headroom` zeroed
    /// front bytes, charging the one user→wire copy to `memcpy_bytes`.
    fn pooled_parts(&self, headroom: usize, head: &[u8], body: &[u8]) -> FrameBuf {
        debug_assert!(headroom <= SEQ_HEADER_BYTES);
        let mut b = self
            .proto()
            .pool
            .acquire(headroom + head.len() + body.len());
        b.extend_from_slice(&[0u8; SEQ_HEADER_BYTES][..headroom]);
        b.extend_from_slice(head);
        b.extend_from_slice(body);
        self.stats
            .memcpy_bytes
            .fetch_add((head.len() + body.len()) as u64, Ordering::Relaxed);
        b
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
        // Copying-path ablation: emulate a per-frame serialize copy.
        let payload = if self.cfg.copy_wire {
            self.stats
                .memcpy_bytes
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            self.proto().pool.pooled(&payload)
        } else {
            payload
        };
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
    /// backend, and in fault mode the reliable sublayer's retransmits and
    /// ACKs) as a side effect, exactly as an MPI progress engine does on
    /// every receive poll.
    ///
    /// The returned [`FrameSlice`] is a zero-copy view of the pooled wire
    /// frame (for coalesced traffic, a subslice of the arrived jumbo);
    /// dropping it recycles the slab. Copying into a user buffer is the
    /// receiver's single wire→user copy.
    pub fn try_recv(&self, src_node: usize, tag: WireTag) -> Option<FrameSlice> {
        if self.self_deaf() {
            return None; // a crashed node receives nothing
        }
        // Fault mode without coalescing wraps this very tag in a reliable
        // link. With coalescing the reliable sublayer wraps the jumbo link
        // instead, and the progress engine scatters subframes into the
        // match store — the only place to look.
        if self.cfg.faults.is_some() && self.cfg.coalesce.is_none() && !tag.is_ack() {
            return self.reliable_try_recv(src_node, tag);
        }
        // Fast path: already matched.
        let enc = tag.encode();
        if let Some(p) = self.raw().recv_frame(src_node, enc) {
            return Some(p);
        }
        // A miss is a fruitless poll: whatever this rank still has in the
        // coalescing buffers goes out before it waits any longer.
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
        let detect = self.cfg.detect.is_some();
        let health = &self.health;
        // Epoch fence: frames from a condemned peer are dropped before they
        // reach the match store — the suspicion-vs-late-frame race resolves
        // in favour of the suspicion. They still count as arrivals below.
        let fenced = |src: usize| {
            detect
                && health.dead_count.load(Ordering::Relaxed) > 0
                && health.dead.lock().contains_key(&src)
        };
        let out = self.raw().pump(&fenced);
        if detect && !out.arrivals.is_empty() {
            let now = self.now_ns();
            let mut health = self.proto().health.lock();
            for src in out.arrivals.iter() {
                let h = health.entry(src).or_insert_with(|| PeerHealth::new(now));
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
    /// mid-tick is the next tick's): in coalescing mode flush aged outbound
    /// buffers and unpack arrived jumbos; in fault mode run the reliable
    /// sublayer (ACK drain, due retransmits, inbound links); in detection
    /// mode run the failure detector. The steady-state tick allocates
    /// nothing, reads the clock once above the backend, and with nothing
    /// buffered takes neither `co_tx` nor the clock for coalescing.
    ///
    /// Locks, in the only order any path nests them: `co_tx` → `rel_tx` |
    /// `rel_rx` → `perturb` → backend (connection or inbox → match-store
    /// shard), with the frame pool's free lists, `health` and the cluster
    /// failure view as leaves (`health` → failure view when a condemnation
    /// is published).
    ///
    /// Returns whether the tick did any work — frames moved, buffers
    /// flushed, retransmits or ACKs or heartbeats sent. Cooperative-mode
    /// callers use a `false` streak to back off instead of busy-spinning
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
        if self.cfg.coalesce.is_some() {
            work |= self.flush_aged_coalesce();
        }
        let timed = self.cfg.faults.is_some() || self.cfg.detect.is_some();
        let now = if timed { self.now_ns() } else { 0 };
        if self.cfg.faults.is_some() {
            // Jumbos ride reliable links here; the tick scatters them.
            work |= self.reliable_tick(now);
        } else if self.cfg.coalesce.is_some() {
            work |= self.scatter_arrived_jumbos();
        }
        if self.cfg.detect.is_some() {
            work |= self.detect_tick(now);
        }
        work
    }

    // --- Coalescing progress engine (coalescing mode only) ----------------

    /// Buffer one outbound data frame for `dst_node`, flushing the buffer
    /// when a watermark trips. Payloads over the eligibility cutoff flush
    /// what is pending and then travel as their own single-subframe jumbo,
    /// so the whole per-peer data plane stays one FIFO.
    ///
    /// `take()` and `emit_jumbo` run under one `co_tx` critical section:
    /// jumbos must reach the wire (and, in fault mode, take their reliable
    /// sequence number) in take order, or a racing sender on the same node
    /// could emit a later jumbo first and scatter one tag's subframes out
    /// of FIFO order at the receiver.
    fn coalesce_send(&self, dst_node: usize, tag: WireTag, head: &[u8], payload: &[u8]) {
        let Some(plan) = self.cfg.coalesce else {
            crate::die_invariant("coalesce_send without a coalescing plan")
        };
        let proto = self.proto();
        let mut com = proto.co_tx.lock();
        let buf = com.entry(dst_node).or_default();
        let total = head.len() + payload.len();
        let flushed = if total > plan.eligible_max {
            self.take_and_emit(dst_node, buf);
            // Oversize: a single-subframe jumbo, gathered straight into a
            // pooled buffer (with seq headroom, like any jumbo).
            let mut solo = proto
                .pool
                .acquire(JUMBO_HEADROOM + SUBFRAME_HEADER_BYTES + total);
            solo.extend_from_slice(&[0u8; JUMBO_HEADROOM]);
            coalesce::pack_subframe_into(&mut solo, tag.encode(), head, payload);
            self.stats
                .memcpy_bytes
                .fetch_add(total as u64, Ordering::Relaxed);
            self.emit_jumbo(dst_node, solo);
            true
        } else {
            // The clock is read only where a time is used: to stamp the
            // subframe that opens an empty buffer, and to age a buffer the
            // push left below the count and size watermarks.
            let opens = buf.frames == 0;
            let stamp = if opens { self.now_ns() } else { buf.first_ns };
            let copied = buf.push(&proto.pool, tag.encode(), head, payload, stamp);
            proto.co_pending.fetch_add(1, Ordering::Relaxed);
            self.stats
                .memcpy_bytes
                .fetch_add(copied as u64, Ordering::Relaxed);
            self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            let due = buf.full(&plan) || buf.due(&plan, if opens { stamp } else { self.now_ns() });
            if due {
                self.take_and_emit(dst_node, buf);
            }
            due
        };
        // What this handle still has buffered toward `dst_node`.
        let bit = SentMark::bit(dst_node);
        if flushed {
            self.sent.0.fetch_and(!bit, Ordering::Relaxed);
        } else {
            self.sent.0.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Take `buf`'s pending jumbo, if any, and transmit it. The caller holds
    /// the `co_tx` lock that guards `buf` (see [`NodeEndpoint::emit_jumbo`]).
    fn take_and_emit(&self, dst_node: usize, buf: &mut CoalesceBuf) -> bool {
        let frames = buf.frames;
        let Some(jumbo) = buf.take() else {
            return false;
        };
        self.proto()
            .co_pending
            .fetch_sub(frames as u64, Ordering::Relaxed);
        self.emit_jumbo(dst_node, jumbo);
        true
    }

    /// Transmit one jumbo frame on the per-peer coalesce link (reliable in
    /// fault mode, raw otherwise).
    ///
    /// Callers hold the node's `co_tx` lock across the `CoalesceBuf::take`
    /// that produced `jumbo` and this call, so emission order equals take
    /// order. That is deadlock-free: the locks taken below (`rel_tx`, the
    /// backend, store shards) are never held while acquiring `co_tx`.
    ///
    /// `jumbo` arrives as an unfrozen buffer carrying [`JUMBO_HEADROOM`]
    /// zeroed front bytes: fault mode patches the reliable sequence number
    /// into them in place (no re-framing copy); fault-free mode freezes and
    /// slices past them, so the wire bytes are headerless either way.
    fn emit_jumbo(&self, dst_node: usize, jumbo: FrameBuf) {
        self.stats.coalesce_flushes.fetch_add(1, Ordering::Relaxed);
        if self.cfg.faults.is_some() {
            self.reliable_send_buf(dst_node, WireTag::coalesce(), jumbo);
        } else {
            let frame = jumbo.freeze().slice_from(JUMBO_HEADROOM);
            self.raw_send(dst_node, WireTag::coalesce(), frame);
        }
    }

    /// Flush every non-empty outbound buffer `pick` selects. With nothing
    /// buffered on the node this is one relaxed load.
    fn flush_bufs(&self, mut pick: impl FnMut(usize, &CoalesceBuf) -> bool) -> bool {
        let proto = self.proto();
        if proto.co_pending.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let mut work = false;
        let mut com = proto.co_tx.lock();
        for (&dst, buf) in com.iter_mut() {
            if buf.frames > 0 && pick(dst, buf) {
                work |= self.take_and_emit(dst, buf);
            }
        }
        work
    }

    /// Flush outbound buffers whose age watermark has tripped — the
    /// progress tick's backstop for subframes whose sender neither filled
    /// the buffer nor blocked.
    fn flush_aged_coalesce(&self) -> bool {
        let Some(plan) = self.cfg.coalesce else {
            return false;
        };
        // The clock is read once, and only if some buffer holds a subframe.
        let mut now = None;
        self.flush_bufs(|_, buf| buf.due(&plan, *now.get_or_insert_with(|| self.now_ns())))
    }

    /// Flush the subframes *this handle* buffered and has not seen go out:
    /// what a rank calls whenever it polls for something and finds nothing,
    /// because a sender that starts waiting has nothing more to add to the
    /// batch. [`NodeEndpoint::try_recv`] does it on every miss; blocking
    /// waits that poll something else (an intra-node queue, a request) call
    /// it from their fruitless polls.
    ///
    /// A marked buffer goes out at the first such call that finds its oldest
    /// subframe [`BLOCKED_LINGER_NS`] old (or `flush_ns` old, if that is
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
    fn flush_marked(&self) -> bool {
        let Some(plan) = self.cfg.coalesce else {
            return false;
        };
        let linger = plan.flush_ns.min(BLOCKED_LINGER_NS);
        let mine = self.sent.0.load(Ordering::Relaxed);
        let now = self.now_ns();
        // Buffers flushed by someone else drop out of the mark here too.
        let mut lingering = 0;
        let work = self.flush_bufs(|dst, buf| {
            let bit = SentMark::bit(dst);
            let ripe = now.saturating_sub(buf.first_ns) >= linger;
            if mine & bit != 0 && !ripe {
                lingering |= bit;
            }
            mine & bit != 0 && ripe
        });
        self.sent.0.store(lingering, Ordering::Relaxed);
        work
    }

    /// Force-flush every pending outbound buffer on this node, watermarks
    /// or not — the end-of-run path, so no subframe is stranded.
    pub fn flush_coalesced(&self) {
        self.sent.0.store(0, Ordering::Relaxed);
        self.flush_bufs(|_, _| true);
    }

    /// Unpack every arrived jumbo frame and scatter its subframes into the
    /// match store under their original tags (fault-free coalescing; in
    /// fault mode jumbos ride reliable links and
    /// [`NodeEndpoint::reliable_tick`] scatters them in sequence order).
    ///
    /// Popping a jumbo and scattering it is one critical section under the
    /// inbound link-table lock (which the reliable tick holds for the same
    /// steps): several threads tick one node — its ranks, the helper — and
    /// if one could pop jumbo *n* and stall while another popped and
    /// scattered *n + 1*, a tag's subframes would match out of FIFO order.
    fn scatter_arrived_jumbos(&self) -> bool {
        let jumbo = WireTag::coalesce().encode();
        let mut work = false;
        let _dispatch = self.proto().rel_rx.lock();
        for src in (0..self.n).filter(|&src| src != self.me) {
            while let Some(j) = self.raw().recv_frame(src, jumbo) {
                work = true;
                self.scatter_jumbo(src, &j);
            }
        }
        work
    }

    /// Sort one jumbo's subframes into the match store in arrival order.
    /// Each subframe is handed over as a zero-copy subslice of the jumbo's
    /// pooled slab; the slab recycles once every receiver has consumed its
    /// slice. The `copy_wire` ablation reinstates the per-subframe copy.
    fn scatter_jumbo(&self, src: usize, jumbo: &FrameSlice) {
        if self.cfg.copy_wire {
            for (enc, range) in coalesce::unpack_subframe_ranges(jumbo) {
                self.stats
                    .memcpy_bytes
                    .fetch_add(range.len() as u64, Ordering::Relaxed);
                let copy = self.proto().pool.pooled(&jumbo[range]);
                self.raw().push_local(src, enc, copy);
            }
        } else {
            for (enc, range) in coalesce::unpack_subframe_ranges(jumbo) {
                self.stats.frames_borrowed.fetch_add(1, Ordering::Relaxed);
                self.raw().push_local(src, enc, jumbo.slice(range));
            }
        }
    }

    // --- Reliable sublayer (fault mode only) -----------------------------

    /// Gather `head` + `payload` into a pooled frame (with sequence
    /// headroom), stage it on this node's tx link and transmit it (lossy).
    fn reliable_send(&self, dst_node: usize, tag: WireTag, head: &[u8], payload: &[u8]) {
        let buf = self.pooled_parts(SEQ_HEADER_BYTES, head, payload);
        self.reliable_send_buf(dst_node, tag, buf);
    }

    /// Stage an already-gathered frame (its [`SEQ_HEADER_BYTES`] of front
    /// headroom get the sequence number patched in place) and transmit it.
    /// The retransmit queue keeps a refcount on the same slab.
    fn reliable_send_buf(&self, dst_node: usize, tag: WireTag, buf: FrameBuf) {
        let framed = {
            let mut txm = self.proto().rel_tx.lock();
            let st = txm.entry((dst_node, tag.encode())).or_default();
            st.stage(buf, self.now_ns())
        };
        self.raw_send(dst_node, tag, framed);
    }

    /// Reliable-plane receive: the next in-order payload of this link, or
    /// after a miss one progress tick — whose reliable sublayer moves the
    /// link's arrived frames through dedup/reorder and ACKs them — and a
    /// second look.
    fn reliable_try_recv(&self, src_node: usize, tag: WireTag) -> Option<FrameSlice> {
        let key = (src_node, tag.encode());
        // The first receive on a link creates it; from then on every tick
        // serves it, blocked receiver or not.
        let pop = || {
            self.proto()
                .rel_rx
                .lock()
                .entry(key)
                .or_default()
                .pop_ready()
        };
        if let Some(p) = pop() {
            return Some(p);
        }
        self.progress();
        pop()
    }

    /// One reliable-sublayer tick for this node: flush held fault-injected
    /// frames, drain ACKs into tx links, retransmit overdue frames, and
    /// move every known rx link's arrived frames through dedup/reorder and
    /// ACK them (so retransmitted frames are consumed even when no rank is
    /// currently blocked in `try_recv` on that tag). Jumbo links have no
    /// blocked receiver to pop them: their in-order payloads go straight to
    /// the scatter path.
    ///
    /// Frames come from the match store only — the tick's one pump already
    /// ran — and wire traffic (retransmits, ACKs, scattered subframes)
    /// leaves from under the link-table lock, which nothing below it takes.
    fn reliable_tick(&self, now: u64) -> bool {
        let proto = self.proto();
        let mut work = self.flush_perturbed();
        for (&(dst, enc), st) in proto.rel_tx.lock().iter_mut() {
            let data_tag = WireTag::decode(enc);
            let ack_enc = WireTag::ack_for(data_tag).encode();
            while let Some(a) = self.raw().recv_frame(dst, ack_enc) {
                work = true;
                if let Ok(hdr) = <[u8; 8]>::try_from(&a[..]) {
                    st.on_ack(u64::from_le_bytes(hdr));
                }
            }
            if let Some(f) = st.due_retransmit(now) {
                work = true;
                self.stats.retransmits.fetch_add(1, Ordering::Relaxed);
                self.raw_send(dst, data_tag, f);
            }
        }
        for (&(src, enc), st) in proto.rel_rx.lock().iter_mut() {
            let tag = WireTag::decode(enc);
            let mut saw_dup = false;
            while let Some(f) = self.raw().recv_frame(src, enc) {
                work = true;
                let (seq, payload) = deframe(&f);
                saw_dup |= !st.accept(seq, payload);
            }
            if tag.class == CLASS_COALESCE {
                while let Some(j) = st.pop_ready() {
                    work = true;
                    self.scatter_jumbo(src, &j);
                }
            }
            // The ACK decision runs every tick, arrivals or not, so a
            // batched ACK still flushes on its age watermark.
            if let Some((ack, newly)) = st.ack_due(now, saw_dup) {
                work = true;
                self.stats
                    .acks_batched
                    .fetch_add(newly.saturating_sub(1), Ordering::Relaxed);
                self.stats.acks.fetch_add(1, Ordering::Relaxed);
                let f = proto.pool.pooled(&ack.to_le_bytes());
                self.raw_send(src, WireTag::ack_for(tag), f);
            }
        }
        work
    }

    // --- Failure detector (detection mode only) ---------------------------

    /// One failure-detector tick: drain heartbeat frames, adopt the cluster
    /// failure view, evaluate the phi-style threshold per peer, emit
    /// heartbeats on idle links, and garbage-collect a newly condemned
    /// peer's link state so nothing retries into the void forever.
    fn detect_tick(&self, now: u64) -> bool {
        let Some(plan) = self.cfg.detect else {
            return false;
        };
        let hb = WireTag::heartbeat();
        let hb_enc = hb.encode();
        let mut work = false;
        // Phase 1 — heartbeat evidence from the match store. Peer sets are
        // bitmasks ([`ArrivalSet`]): the tick must not allocate.
        let mut hb_seen = ArrivalSet::default();
        for peer in (0..self.n).filter(|&p| p != self.me) {
            while self.raw().recv_frame(peer, hb_enc).is_some() {
                hb_seen.insert(peer);
                work = true;
            }
        }
        // Phase 2 — under the health lock: apply evidence, adopt the
        // cluster-global failure view, condemn, and pace heartbeats.
        let mut newly_dead: Vec<usize> = Vec::new(); // allocates on a death only
        let mut send_hb = ArrivalSet::default();
        {
            let any_dead = self.health.dead_count.load(Ordering::Relaxed) > 0;
            let mut health = self.proto().health.lock();
            for peer in (0..self.n).filter(|&p| p != self.me) {
                let h = health.entry(peer).or_insert_with(|| PeerHealth::new(now));
                if hb_seen.contains(peer) && h.saw_alive(now) {
                    self.stats.false_suspects.fetch_add(1, Ordering::Relaxed);
                }
                // Adopt a condemnation another node's detector published,
                // without double-counting the suspicion.
                if any_dead && !h.dead {
                    if let Some(&epoch) = self.health.dead.lock().get(&peer) {
                        h.dead = true;
                        h.epoch = epoch;
                        newly_dead.push(peer);
                    }
                }
                if h.condemn(now, &plan) {
                    self.stats.suspicions.fetch_add(1, Ordering::Relaxed);
                    self.publish_dead(peer, h.epoch);
                    newly_dead.push(peer);
                } else if !h.dead && now.saturating_sub(h.last_tx_ns) >= plan.hb_interval_ns {
                    h.last_tx_ns = now;
                    send_hb.insert(peer);
                }
            }
        }
        // Phase 3 — outside the health lock: wire traffic and link GC.
        work |= !send_hb.is_empty() || !newly_dead.is_empty();
        for peer in send_hb.iter() {
            self.stats.heartbeats.fetch_add(1, Ordering::Relaxed);
            // Heartbeats are empty: the poolless empty slice costs nothing.
            self.raw_send(peer, hb, FrameSlice::empty());
        }
        for peer in newly_dead {
            self.gc_dead_peer(peer);
        }
        work
    }

    /// Publish a condemnation to the cluster-global failure view.
    fn publish_dead(&self, node: usize, epoch: u64) {
        let mut dead = self.health.dead.lock();
        dead.entry(node).or_insert(epoch);
        self.health
            .dead_count
            .store(dead.len() as u64, Ordering::Relaxed);
    }

    /// Garbage-collect this node's link state toward a condemned peer:
    /// retransmit queues stop retrying into the void, inbound reorder state
    /// is dropped, any coalescing buffer destined for the corpse is
    /// discarded, and the backend sheds buffered IO toward it. This is what
    /// lets the finalize linger drain instead of spinning on frames a dead
    /// peer will never ACK.
    fn gc_dead_peer(&self, peer: usize) {
        let proto = self.proto();
        proto.rel_tx.lock().retain(|&(dst, _), _| dst != peer);
        proto.rel_rx.lock().retain(|&(src, _), _| src != peer);
        if let Some(buf) = proto.co_tx.lock().remove(&peer) {
            proto
                .co_pending
                .fetch_sub(buf.frames as u64, Ordering::Relaxed);
        }
        {
            let mut pt = proto.perturb.lock();
            pt.stash.retain(|f| f.dst != peer);
            pt.delayed.retain(|(_, f)| f.dst != peer);
        }
        self.raw().drop_peer(peer);
    }

    /// The death epoch of `node`, if any detector has condemned it.
    pub fn peer_dead(&self, node: usize) -> Option<u64> {
        if self.health.dead_count.load(Ordering::Relaxed) == 0 {
            return None;
        }
        self.health.dead.lock().get(&node).copied()
    }

    /// The cluster-global failure view: condemned nodes and their epochs,
    /// in node order.
    pub fn dead_nodes(&self) -> Vec<(usize, u64)> {
        if self.health.dead_count.load(Ordering::Relaxed) == 0 {
            return Vec::new();
        }
        self.health
            .dead
            .lock()
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// The lowest condemned node other than this one, with its epoch — the
    /// fast check blocked waits poll to unwind in bounded time.
    pub fn any_dead_peer(&self) -> Option<(usize, u64)> {
        if self.health.dead_count.load(Ordering::Relaxed) == 0 {
            return None;
        }
        self.health
            .dead
            .lock()
            .iter()
            .map(|(&k, &v)| (k, v))
            .find(|&(n, _)| n != self.me)
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
    /// dumps: backend state, inbound jumbo queue, retransmit backlog, and
    /// the heartbeat / suspicion table. Watchdog-safe: `try_lock` only.
    pub fn progress_debug(&self) -> String {
        use std::fmt::Write as _;
        let now = self.now_ns();
        let jumbo = WireTag::coalesce().encode();
        let mut out = String::new();
        for (i, proto, raw) in self.known() {
            let (retx_frames, retx_links) = proto
                .rel_tx
                .try_lock()
                .map(|m| {
                    let frames: usize = m.values().map(|st| st.outstanding.len()).sum();
                    let links = m.values().filter(|st| !st.outstanding.is_empty()).count();
                    (frames.to_string(), links.to_string())
                })
                .unwrap_or_else(|| ("<locked>".into(), "?".into()));
            let jumbo_rx = proto
                .rel_rx
                .try_lock()
                .map(|m| {
                    let (ready, stashed) = m
                        .iter()
                        .filter(|(&(_, enc), _)| enc == jumbo)
                        .fold((0, 0), |(r, s), (_, st)| {
                            (r + st.ready_len(), s + st.stashed())
                        });
                    format!("{ready} ready / {stashed} stashed")
                })
                .unwrap_or_else(|| "<locked>".into());
            let silent = if self.node_silent(i) { " SILENT" } else { "" };
            let _ = writeln!(
                out,
                "  net node {i}{silent}: {}, jumbo-rx {jumbo_rx}, \
                 retx backlog {retx_frames} frames on {retx_links} links",
                raw.debug_line()
            );
            if let Some(health) = proto.health.try_lock() {
                let mut peers: Vec<_> = health.iter().collect();
                peers.sort_by_key(|(&p, _)| p);
                for (&p, h) in peers {
                    if h.dead {
                        let _ = writeln!(
                            out,
                            "    peer {p}: DEAD epoch {} (posthumous frames {})",
                            h.epoch, h.posthumous
                        );
                    } else {
                        let _ = writeln!(
                            out,
                            "    peer {p}: last-ack/liveness age {:.1} ms, mean interval {:.1} ms, epoch {}",
                            now.saturating_sub(h.last_seen_ns) as f64 / 1e6,
                            h.mean_interval_ns as f64 / 1e6,
                            h.epoch
                        );
                    }
                }
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
        let condemned: Vec<usize> = self.dead_nodes().iter().map(|&(n, _)| n).collect();
        self.known()
            .filter(|&(i, _, _)| !self.node_silent(i) && !condemned.contains(&i))
            .map(|(_, proto, _)| {
                proto
                    .rel_tx
                    .lock()
                    .iter()
                    .filter(|(&(dst, _), _)| !condemned.contains(&dst))
                    .map(|(_, st)| st.outstanding.len())
                    .sum::<usize>()
            })
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
    /// gather (and ablation) copies plus each backend's serialize/parse
    /// copies, across every node whose state lives in this process.
    pub fn memcpy_bytes(&self) -> u64 {
        self.stats.memcpy_bytes.load(Ordering::Relaxed)
            + self
                .known()
                .map(|(_, _, raw)| raw.memcpy_bytes())
                .sum::<u64>()
    }

    /// Drop every frame still parked in the wire stack — retransmit queues,
    /// reorder stashes, coalescing buffers, fault-injection holding areas,
    /// match stores and inbound queues — returning their slabs to the
    /// pools. Teardown only (after every rank has exited): afterwards the
    /// pool snapshot must balance, `acquired() == released()`, or a slab
    /// was leaked or double-freed.
    pub fn purge_pooled(&self) {
        for (_, proto, raw) in self.known() {
            proto.rel_tx.lock().clear();
            // Links stay (the jumbo links exist for the cluster's lifetime);
            // what they hold goes.
            proto.rel_rx.lock().values_mut().for_each(RxState::purge);
            {
                let mut com = proto.co_tx.lock();
                com.clear();
                proto.co_pending.store(0, Ordering::Relaxed);
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
    fn send_then_recv_same_payload() {
        let c = Cluster::new(2, NetConfig::default());
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(0, 0, 7);
        a.send(1, tag, b"hello");
        assert_eq!(b.try_recv(0, tag).as_deref(), Some(&b"hello"[..]));
        assert_eq!(b.try_recv(0, tag), None);
    }

    #[test]
    fn fifo_per_key() {
        let c = Cluster::new(2, NetConfig::default());
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(0, 0, 1);
        for i in 0..16u8 {
            a.send(1, tag, &[i]);
        }
        for i in 0..16u8 {
            assert_eq!(b.try_recv(0, tag).unwrap(), vec![i]);
        }
    }

    #[test]
    fn tags_do_not_cross_match() {
        let c = Cluster::new(2, NetConfig::default());
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        a.send(1, WireTag::p2p(0, 1, 9), b"to-thread-1");
        assert_eq!(b.try_recv(0, WireTag::p2p(0, 0, 9)), None);
        assert_eq!(
            b.try_recv(0, WireTag::p2p(0, 1, 9)).as_deref(),
            Some(&b"to-thread-1"[..])
        );
    }

    #[test]
    fn latency_defers_delivery() {
        let c = Cluster::new(
            2,
            NetConfig {
                alpha_ns: 50_000_000,
                ..NetConfig::default()
            },
        );
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(0, 0, 0);
        a.send(1, tag, b"slow");
        assert_eq!(b.try_recv(0, tag), None, "50 ms has not elapsed yet");
        let start = Instant::now();
        loop {
            if let Some(p) = b.try_recv(0, tag) {
                assert_eq!(p, b"slow");
                break;
            }
            assert!(start.elapsed().as_secs() < 5, "message never delivered");
            thread::yield_now();
        }
        assert!(start.elapsed().as_millis() >= 30, "delivered way too early");
    }

    #[test]
    fn cross_thread_traffic() {
        let c = Cluster::new(2, NetConfig::default());
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(2, 3, 42);
        let h = thread::spawn(move || {
            a.send(1, tag, &[1, 2, 3]);
        });
        h.join().unwrap();
        let mut got = None;
        for _ in 0..1000 {
            got = b.try_recv(0, tag);
            if got.is_some() {
                break;
            }
            thread::yield_now();
        }
        assert_eq!(got.unwrap(), vec![1, 2, 3]);
    }

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

    /// Regression (take→emit atomicity): two rank threads on one node share
    /// the per-peer jumbo buffer. If one thread could take a jumbo holding
    /// the other's frames and be preempted before emitting it, a later
    /// jumbo would reach the wire first and break per-tag FIFO at the
    /// receiver. Emission happens under the buffer lock, so this must never
    /// reorder.
    #[test]
    fn concurrent_senders_keep_per_tag_fifo_under_coalescing() {
        let plan = CoalescePlan {
            max_bytes: 1 << 20,
            max_frames: 4,
            flush_ns: u64::MAX,
            eligible_max: 1024,
        };
        let c = Cluster::new(2, NetConfig::default().with_coalescing(plan));
        let b = c.endpoint(1);
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
        c.endpoint(0).flush_coalesced();
        for t in 0..2usize {
            let tag = WireTag::p2p(t, 0, 1);
            for i in 0..N {
                let p = b
                    .try_recv(0, tag)
                    .unwrap_or_else(|| panic!("tag {t}: subframe {i} missing"));
                assert_eq!(
                    u32::from_le_bytes((&p[..]).try_into().unwrap()),
                    i,
                    "tag {t}: subframes reordered"
                );
            }
            assert_eq!(b.try_recv(0, tag), None);
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
    /// thread). Pop-and-scatter of an arrived jumbo is atomic per node, so
    /// however their ticks interleave — more tickers than cores here, so
    /// they get preempted mid-tick — each tag's subframes reach the match
    /// store in send order, with or without the reliable sublayer.
    #[test]
    fn concurrent_tickers_keep_per_tag_fifo_when_scattering_jumbos() {
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        for faults in [false, true] {
            let mut cfg = NetConfig::default().with_coalescing(CoalescePlan {
                max_frames: 2,
                ..CoalescePlan::default()
            });
            if faults {
                cfg = cfg.with_faults(crate::FaultPlan::drops(1, 0));
            }
            let c = Cluster::new(2, cfg);
            const N: u32 = 20_000;
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
                s.spawn(move || {
                    for i in 0..N {
                        a.send(1, tag, &i.to_le_bytes());
                        a.progress(); // ACKs in, so the retransmit queue drains
                    }
                    a.flush_coalesced();
                });
                let b = c.endpoint(1);
                let start = Instant::now();
                let mut next = 0;
                while next < N {
                    match b.try_recv(0, tag) {
                        Some(p) => {
                            let got = u32::from_le_bytes((&p[..]).try_into().unwrap());
                            assert_eq!(got, next, "faults={faults}: subframes reordered");
                            next += 1;
                        }
                        None => thread::yield_now(),
                    }
                    assert!(start.elapsed().as_secs() < 30, "stuck at {next}");
                }
            });
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
        let detect = crate::DetectPlan {
            hb_interval_ns: 50_000,       // 50 µs
            suspect_after_ns: 10_000_000, // 10 ms
            phi: 8,
        };
        let c = Cluster::new(2, NetConfig::default().with_detection(detect));
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let t0 = Instant::now();
        // Idle for 3× the suspicion floor, both engines ticking.
        while t0.elapsed().as_millis() < 30 {
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

    /// The copying-path ablation pays the pre-pool copies (serialize on
    /// send, per-subframe scatter) and the zero-copy path does not — the
    /// measured gap fig6b reports.
    #[test]
    fn copying_wire_ablation_counts_extra_memcpys() {
        let run = |cfg: NetConfig| {
            let c = Cluster::new(2, cfg.with_coalescing(CoalescePlan::default()));
            let a = c.endpoint(0);
            let b = c.endpoint(1);
            let tag = WireTag::p2p(0, 0, 6);
            for i in 0..32u8 {
                a.send(1, tag, &[i; 16]);
            }
            a.flush_coalesced();
            for i in 0..32u8 {
                assert_eq!(b.try_recv(0, tag).unwrap(), [i; 16]);
            }
            (c.memcpy_bytes(), c.stats().copy_snapshot().1)
        };
        let (zc_bytes, zc_borrowed) = run(NetConfig::default());
        let (cp_bytes, cp_borrowed) = run(NetConfig::default().with_copying_wire());
        assert_eq!(zc_borrowed, 32, "every subframe scatters as a borrow");
        assert_eq!(cp_borrowed, 0, "the ablation copies instead of borrowing");
        assert!(
            cp_bytes >= 2 * zc_bytes,
            "copying path must pay at least the serialize + scatter copies \
             on top of the gather: zero-copy {zc_bytes} B, copying {cp_bytes} B"
        );
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
