//! Cross-node collective phases (§4.2): what Pure does with MPI between
//! nodes, we do with `netsim` between simulated nodes. Only node-group
//! *leaders* participate; while they wait for network messages they run the
//! SSW-Loop like any other rank (so a leader blocked in a cross-node
//! reduction still steals task chunks).
//!
//! Algorithms come in two families, selected per communicator by
//! [`InternodeAlgo`]:
//!
//! * **Flat** — the textbook MPICH shapes: recursive doubling for
//!   all-reduce (with the non-power-of-two fold-in pre/post phases),
//!   binomial trees for broadcast and reduce, and the dissemination
//!   algorithm for barrier.
//! * **Hierarchical** — a k-ary combine/distribute tree with tunable
//!   fan-in ([`InternodeAlgo::Kary`], the MPI+MPI / POSH shape: fewer
//!   α-latency levels than recursive doubling at scale, NUMA-staged at
//!   the leader), and a bandwidth-optimal ring
//!   reduce-scatter + allgather ([`InternodeAlgo::Ring`]) for payloads
//!   large enough that recursive doubling's full-vector-per-round
//!   traffic dominates.
//!
//! Both families run above the `Transport` seam — they see only
//! `NodeEndpoint` send/recv, so the Sim and TCP backends execute them
//! unchanged.

use netsim::{FrameSlice, WireTag};

use crate::datatype::{as_bytes, as_bytes_mut, PureDatatype, ReduceOp, Reducible};
use crate::error::{die_invariant, PureError, PureResult};
use crate::runtime::{RankLocal, WaitOp};

/// Inter-node algorithm family for the leader phase of one communicator.
///
/// Chosen statically with `Config::with_collective_fanin` /
/// `with_collective_ring`, or per-collective by the auto-tuner
/// (`Config::with_collective_autotune`). Every leader of a
/// communicator must run the same algorithm for a given collective — the
/// tuner therefore decides from inputs identical at every rank (group
/// shape + payload size), never from rank-local state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InternodeAlgo {
    /// Recursive doubling / binomial / dissemination (the flat MPICH
    /// shapes over node leaders).
    #[default]
    Flat,
    /// k-ary combine/distribute tree with fan-in `k` (≥ 2), rooted at
    /// position 0 (rooted ops re-root at the caller's root).
    Kary(usize),
    /// Ring reduce-scatter + allgather for all-reduce (bandwidth
    /// optimal); rooted ops and barrier fall back to a binary tree.
    Ring,
}

impl InternodeAlgo {
    /// Effective fan-in: 0 for flat, `k` for k-ary, 2 for ring fallbacks.
    pub fn fanin(self) -> usize {
        match self {
            InternodeAlgo::Flat => 0,
            InternodeAlgo::Kary(k) => k,
            InternodeAlgo::Ring => 2,
        }
    }
}

/// Levels of a `p`-node BFS-ordered k-ary tree: rounds a payload needs
/// from the deepest leaf to the root (0 when `p <= 1`).
pub fn tree_depth(p: usize, k: usize) -> usize {
    debug_assert!(k >= 2);
    let mut d = 0;
    let mut r = p.saturating_sub(1);
    while r > 0 {
        r = (r - 1) / k;
        d += 1;
    }
    d
}

// Wire phases of the hierarchical algorithms — a band disjoint from the
// flat reductions (0..=31), flat bcast/reduce (32/33), dissemination
// barrier (40..) and survivor agreement (200). Each (src-node, dst-node, phase) stream is FIFO, so one phase
// per traversal direction suffices even for multi-step rings.
const PH_KARY_UP: u32 = 52; // k-ary all-reduce combine toward pos 0
const PH_KARY_DOWN: u32 = 53; // k-ary all-reduce result distribution
const PH_RING_RS: u32 = 54; // ring reduce-scatter steps
const PH_RING_AG: u32 = 55; // ring allgather steps
const PH_KARY_BCAST: u32 = 56; // rooted k-ary broadcast
const PH_KARY_REDUCE: u32 = 57; // rooted k-ary reduce
const PH_TREE_GATHER: u32 = 58; // tree barrier: arrival wave
const PH_TREE_RELEASE: u32 = 59; // tree barrier: release wave

/// A participating node of a communicator: its netsim node id and the
/// within-node thread index of its leader (needed for wire-tag routing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaderInfo {
    /// Simulated node id.
    pub node: usize,
    /// Leader's local thread index on that node.
    pub leader_local: usize,
    /// Leader's world rank (error context: timeouts and truncations name
    /// the peer *rank*, matching the intra-node error shape).
    pub leader_world: usize,
}

/// Magic prefix of a wire rendezvous header, used by the point-to-point
/// `RemoteChannel` path. There, whether a channel chunks is fixed
/// out-of-band at channel creation (`rdv_chunk`): every message of a
/// chunked channel is header-then-body, so the magic is a sanity check
/// against protocol bugs, never a discriminator against user bytes. The
/// leader-collective path cannot make that assumption — any bit pattern is
/// a legal eager payload on its tags — so it disambiguates in-band with a
/// per-payload kind byte ([`FRAME_EAGER`]/[`FRAME_RDV`]) instead.
const RDV_MAGIC: [u8; 8] = *b"PURERDV1";

/// Bytes of a wire rendezvous header: magic + little-endian u64 body length.
const RDV_HEADER_BYTES: usize = 16;

/// First byte of a leader-collective frame carrying an eager payload (the
/// user bytes follow).
const FRAME_EAGER: u8 = 0x00;

/// First byte of a leader-collective rendezvous header (little-endian u64
/// body length follows). Payloads larger than
/// [`LeaderGroup::wire_eager_max`] are not sent as one giant frame: the
/// sender ships this 9-byte header and then streams the body in eager-sized
/// chunks (raw, no kind byte — after a header, exactly the announced body
/// bytes follow on the tag's FIFO). The receiver SSW-waits per chunk, so a
/// leader blocked in a large cross-node exchange keeps stealing task chunks
/// between arrivals — and the coalescing layer never sees a frame it must
/// treat as oversize.
const FRAME_RDV: u8 = 0x01;

/// One logical payload off the leader-collective wire: either a borrowed
/// view of the pooled eager frame (dropping it recycles the slab) or the
/// owned reassembly of a rendezvous chunk stream.
enum WirePayload {
    Eager(FrameSlice),
    Rdv(Vec<u8>),
}

impl std::ops::Deref for WirePayload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            WirePayload::Eager(f) => f,
            WirePayload::Rdv(v) => v,
        }
    }
}

impl WirePayload {
    /// Take ownership of the bytes (copies the borrowed eager case).
    fn into_vec(self) -> Vec<u8> {
        match self {
            WirePayload::Eager(f) => f.to_vec(),
            WirePayload::Rdv(v) => v,
        }
    }
}

/// Build the rendezvous header announcing `total` body bytes.
pub(crate) fn rdv_header(total: usize) -> [u8; RDV_HEADER_BYTES] {
    let mut h = [0u8; RDV_HEADER_BYTES];
    h[..8].copy_from_slice(&RDV_MAGIC);
    h[8..].copy_from_slice(&(total as u64).to_le_bytes());
    h
}

/// Parse a frame as a rendezvous header; `None` means an eager payload.
pub(crate) fn rdv_parse(frame: &[u8]) -> Option<usize> {
    if frame.len() == RDV_HEADER_BYTES && frame[..8] == RDV_MAGIC {
        let mut b = [0u8; 8];
        b.copy_from_slice(&frame[8..]);
        Some(u64::from_le_bytes(b) as usize)
    } else {
        None
    }
}

/// A leader's view of the cross-node phase of one communicator.
pub struct LeaderGroup<'a> {
    /// All member nodes, in a globally agreed order.
    pub nodes: &'a [LeaderInfo],
    /// Index of this node in `nodes`.
    pub my_pos: usize,
    /// Communicator-unique tag namespace base.
    pub tag_base: u32,
    /// The leader rank driving this view: its endpoint carries the frames,
    /// its SSW wait blocks for them, and fatal wire errors go through its
    /// abort protocol so every other rank unwinds too.
    pub(crate) local: &'a RankLocal,
    /// Largest payload sent as a single eager frame; larger ones go through
    /// the header-then-chunks wire rendezvous (see `RDV_MAGIC`).
    pub wire_eager_max: usize,
    /// Inter-node algorithm family for this group's collectives.
    pub algo: InternodeAlgo,
}

impl LeaderGroup<'_> {
    fn send_t<T: PureDatatype>(&self, dst_pos: usize, phase: u32, data: &[T]) {
        let dst = self.nodes[dst_pos];
        let me = self.nodes[self.my_pos];
        let tag = WireTag::collective(me.leader_local, dst.leader_local, self.tag_base + phase);
        let bytes = as_bytes(data);
        let ep = &self.local.ep;
        if bytes.len() <= self.wire_eager_max {
            // One kind byte ahead of the payload: user bytes can never be
            // mistaken for a rendezvous header, whatever their content.
            // `send_parts` gathers both parts straight into a pooled wire
            // buffer — no intermediate framed Vec.
            ep.send_parts(dst.node, tag, &[FRAME_EAGER], bytes);
            return;
        }
        // Wire rendezvous: announce the size, then stream eager-sized
        // chunks. FIFO per wire tag makes the reassembly trivial.
        let mut hdr = [0u8; 9];
        hdr[0] = FRAME_RDV;
        hdr[1..].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
        ep.send(dst.node, tag, &hdr);
        for chunk in bytes.chunks(self.wire_eager_max.max(1)) {
            ep.send(dst.node, tag, chunk);
        }
    }

    /// SSW-wait for one frame from `src.node`. Polling `try_recv` also
    /// drives the transport's progress engine (a miss flushes what this
    /// leader itself has buffered for coalescing, then ticks ACKs and
    /// retransmits), so leader waits survive dropped internode frames with
    /// no extra code here. The wait is the leader rank's
    /// [`RankLocal::ssw_wait`]: watchdog-visible, progressing its pending
    /// sends, and carrying the crash-stop interrupt probe, so a leader
    /// blocked on a *dead* peer's frame mid-collective unwinds with a
    /// structured verdict in bounded time — followers are never stranded by
    /// a dead leader.
    fn recv_frame(&self, src: LeaderInfo, tag: WireTag, what: WaitOp) -> FrameSlice {
        self.recv_frame_result(src, tag, what)
            .unwrap_or_else(|e| self.local.escalate(e))
    }

    /// Fallible body of [`LeaderGroup::recv_frame`]: timeout, peer-death
    /// and revocation verdicts are *returned* (the survivor-agreement
    /// protocol retries on them); a peer abort still unwinds as an echo.
    fn recv_frame_result(
        &self,
        src: LeaderInfo,
        tag: WireTag,
        what: WaitOp,
    ) -> PureResult<FrameSlice> {
        let l = self.local;
        l.ssw_wait(
            what,
            Some(src.leader_world),
            None,
            l.shared.cfg.progress_deadline,
            || l.ep.try_recv(src.node, tag),
        )
    }

    /// Receive one logical payload from `src.node`: a single eager frame,
    /// or — when the first frame's kind byte marks a rendezvous header —
    /// the reassembled chunk stream. Each chunk gets its own SSW wait (and
    /// its own deadline window), so large transfers keep the receiver
    /// stealing throughout.
    ///
    /// Eager payloads come back as a borrowed view of the pooled wire
    /// frame — the caller's copy into the user buffer is the only
    /// wire→user copy. Rendezvous bodies are reassembled into an owned
    /// `Vec` (the large, already-chunked path).
    fn recv_wire(&self, src: LeaderInfo, tag: WireTag, what: WaitOp) -> WirePayload {
        let first = self.recv_frame(src, tag, what);
        match first.first() {
            Some(&FRAME_EAGER) => WirePayload::Eager(first.slice_from(1)),
            Some(&FRAME_RDV) if first.len() == 9 => {
                let total = u64::from_le_bytes((&first[1..]).try_into().unwrap()) as usize;
                let mut body = Vec::with_capacity(total);
                while body.len() < total {
                    let chunk = self.recv_frame(src, tag, what);
                    body.extend_from_slice(&chunk);
                }
                if body.len() != total {
                    die_invariant("wire rendezvous chunks overran the announced length");
                }
                WirePayload::Rdv(body)
            }
            _ => die_invariant("leader-collective frame with an unknown kind byte"),
        }
    }

    fn recv_t<T: PureDatatype>(&self, src_pos: usize, phase: u32, out: &mut [T]) {
        let src = self.nodes[src_pos];
        let me = self.nodes[self.my_pos];
        let tag = WireTag::collective(src.leader_local, me.leader_local, self.tag_base + phase);
        let payload = self.recv_wire(src, tag, WaitOp::LeaderCollective);
        let ob = as_bytes_mut(out);
        if payload.len() != ob.len() {
            self.local.escalate(PureError::Truncation {
                rank: self.local.rank,
                op: "leader collective",
                peer: Some(src.leader_world),
                sent: payload.len(),
                capacity: ob.len(),
                tag: None,
            });
        }
        ob.copy_from_slice(&payload);
    }

    /// Raw byte send to another leader on dedicated `phase` (variable-size
    /// payloads such as survivor-agreement tokens).
    pub fn send_bytes(&self, dst_pos: usize, phase: u32, data: &[u8]) {
        self.send_t(dst_pos, phase, data);
    }

    /// Raw byte receive from another leader (SSW-waits).
    pub fn recv_bytes(&self, src_pos: usize, phase: u32) -> Vec<u8> {
        let src = self.nodes[src_pos];
        let me = self.nodes[self.my_pos];
        let tag = WireTag::collective(src.leader_local, me.leader_local, self.tag_base + phase);
        self.recv_wire(src, tag, WaitOp::LeaderBlockExchange)
            .into_vec()
    }

    /// Fallible single-eager-frame receive for the survivor-agreement
    /// protocol: a timeout, a condemned source or a revocation is returned
    /// so the caller can restart with a fresh failure view instead of
    /// escalating. Only eager frames are expected (agreement tokens are a
    /// few bytes).
    pub(crate) fn try_recv_token(&self, src_pos: usize, phase: u32) -> Result<Vec<u8>, PureError> {
        let src = self.nodes[src_pos];
        let me = self.nodes[self.my_pos];
        let tag = WireTag::collective(src.leader_local, me.leader_local, self.tag_base + phase);
        let frame = self.recv_frame_result(src, tag, WaitOp::SurvivorAgreement)?;
        match frame.first() {
            // Cold path (tokens are rare and tiny): own the bytes so the
            // agreement protocol can hold them across retries.
            Some(&FRAME_EAGER) => Ok(frame.slice_from(1).to_vec()),
            _ => die_invariant("agreement token was not an eager frame"),
        }
    }

    /// Record one hierarchical traversal in the rank's telemetry: the
    /// number of tree/ring rounds it took and the fan-in that drove it.
    fn note_hier(&self, rounds: usize) {
        crate::telemetry::count_by(crate::telemetry::Counter::CollTreeRounds, rounds as u64);
        crate::telemetry::count_by(
            crate::telemetry::Counter::CollFaninChosen,
            self.algo.fanin() as u64,
        );
    }

    /// All-reduce `data` across the member nodes. Every leader ends with
    /// the full reduction in `data`, bit-identical on all nodes (the
    /// hierarchical variants reduce at one place and distribute the
    /// result verbatim; recursive doubling folds in a globally agreed
    /// order).
    pub fn allreduce<T: Reducible>(&self, data: &mut [T], op: ReduceOp) {
        let p = self.nodes.len();
        if p <= 1 {
            return;
        }
        match self.algo {
            InternodeAlgo::Flat => self.allreduce_rd(data, op),
            InternodeAlgo::Kary(k) => {
                self.kary_reduce(0, data, op, k, PH_KARY_UP);
                self.kary_bcast(0, data, k, PH_KARY_DOWN);
                self.note_hier(2 * tree_depth(p, k));
            }
            InternodeAlgo::Ring => {
                self.ring_allreduce(data, op);
                self.note_hier(2 * (p - 1));
            }
        }
    }

    /// Recursive-doubling all-reduce with the non-power-of-two fold-in
    /// pre/post phases (the flat MPICH shape).
    fn allreduce_rd<T: Reducible>(&self, data: &mut [T], op: ReduceOp) {
        let p = self.nodes.len();
        let mut tmp = vec![T::identity(op); data.len()];
        let pof2 = prev_power_of_two(p);
        let rem = p - pof2;
        let me = self.my_pos;

        // Fold the `rem` excess nodes into their even partners.
        let newrank = if me < 2 * rem {
            if me % 2 == 1 {
                self.send_t(me - 1, 0, data);
                usize::MAX // sits out the main phase
            } else {
                self.recv_t(me + 1, 0, &mut tmp);
                T::reduce_assign(op, data, &tmp);
                me / 2
            }
        } else {
            me - rem
        };

        if newrank != usize::MAX {
            let mut mask = 1usize;
            let mut phase = 1u32;
            while mask < pof2 {
                let partner_new = newrank ^ mask;
                let partner = if partner_new < rem {
                    partner_new * 2
                } else {
                    partner_new + rem
                };
                self.send_t(partner, phase, data);
                self.recv_t(partner, phase, &mut tmp);
                T::reduce_assign(op, data, &tmp);
                mask <<= 1;
                phase += 1;
            }
        }

        // Ship results back to the folded-in odd nodes.
        if me < 2 * rem {
            if me % 2 == 1 {
                self.recv_t(me - 1, 31, data);
            } else {
                self.send_t(me + 1, 31, data);
            }
        }
    }

    /// Broadcast `data` from the node at position `root_pos` (binomial
    /// tree when flat, k-ary tree when hierarchical).
    pub fn bcast<T: PureDatatype>(&self, root_pos: usize, data: &mut [T]) {
        let p = self.nodes.len();
        match self.algo {
            InternodeAlgo::Flat => self.bcast_phase(root_pos, data, 32),
            InternodeAlgo::Kary(k) => {
                self.kary_bcast(root_pos, data, k, PH_KARY_BCAST);
                self.note_hier(tree_depth(p, k));
            }
            InternodeAlgo::Ring => {
                self.kary_bcast(root_pos, data, 2, PH_KARY_BCAST);
                self.note_hier(tree_depth(p, 2));
            }
        }
    }

    /// Binomial-tree broadcast on wire phase `phase`.
    fn bcast_phase<T: PureDatatype>(&self, root_pos: usize, data: &mut [T], phase: u32) {
        let p = self.nodes.len();
        if p <= 1 {
            return;
        }
        let rel = (self.my_pos + p - root_pos) % p;
        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                let src = (self.my_pos + p - mask) % p;
                self.recv_t(src, phase, data);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if rel + mask < p {
                let dst = (self.my_pos + mask) % p;
                self.send_t(dst, phase, data);
            }
            mask >>= 1;
        }
    }

    /// Reduce `data` to the node at position `root_pos` (binomial tree
    /// when flat, k-ary tree when hierarchical; operators are
    /// commutative). Non-root leaders' `data` is clobbered.
    pub fn reduce<T: Reducible>(&self, root_pos: usize, data: &mut [T], op: ReduceOp) {
        let p = self.nodes.len();
        if p <= 1 {
            return;
        }
        match self.algo {
            InternodeAlgo::Flat => self.reduce_binomial(root_pos, data, op),
            InternodeAlgo::Kary(k) => {
                self.kary_reduce(root_pos, data, op, k, PH_KARY_REDUCE);
                self.note_hier(tree_depth(p, k));
            }
            InternodeAlgo::Ring => {
                self.kary_reduce(root_pos, data, op, 2, PH_KARY_REDUCE);
                self.note_hier(tree_depth(p, 2));
            }
        }
    }

    /// Binomial-tree reduce toward `root_pos` (the flat MPICH shape).
    fn reduce_binomial<T: Reducible>(&self, root_pos: usize, data: &mut [T], op: ReduceOp) {
        let p = self.nodes.len();
        let rel = (self.my_pos + p - root_pos) % p;
        let mut tmp = vec![T::identity(op); data.len()];
        let mut mask = 1usize;
        while mask < p {
            if rel & mask == 0 {
                let src_rel = rel | mask;
                if src_rel < p {
                    let src = (src_rel + root_pos) % p;
                    self.recv_t(src, 33, &mut tmp);
                    T::reduce_assign(op, data, &tmp);
                }
            } else {
                let dst_rel = rel & !mask;
                let dst = (dst_rel + root_pos) % p;
                self.send_t(dst, 33, data);
                break;
            }
            mask <<= 1;
        }
    }

    /// Barrier across the member nodes (dissemination when flat,
    /// gather-up/release-down tree when hierarchical).
    pub fn barrier(&self) {
        let p = self.nodes.len();
        if p <= 1 {
            return;
        }
        match self.algo {
            InternodeAlgo::Flat => {
                let mut k = 1usize;
                let mut phase = 40u32;
                while k < p {
                    let to = (self.my_pos + k) % p;
                    let from = (self.my_pos + p - k) % p;
                    self.send_t::<u8>(to, phase, &[1]);
                    let mut token = [0u8; 1];
                    self.recv_t(from, phase, &mut token);
                    k <<= 1;
                    phase += 1;
                }
            }
            InternodeAlgo::Kary(k) => {
                self.tree_barrier(k);
                self.note_hier(2 * tree_depth(p, k));
            }
            InternodeAlgo::Ring => {
                self.tree_barrier(2);
                self.note_hier(2 * tree_depth(p, 2));
            }
        }
    }

    // --- Hierarchical algorithm bodies -----------------------------------

    /// k-ary-tree reduce toward `root_pos`: children (BFS order relative
    /// to the root) are folded in ascending-position order — the order is
    /// globally agreed, so the root's result is deterministic. Non-root
    /// leaders' `data` holds their subtree's partial sum afterwards.
    fn kary_reduce<T: Reducible>(
        &self,
        root_pos: usize,
        data: &mut [T],
        op: ReduceOp,
        k: usize,
        phase: u32,
    ) {
        let p = self.nodes.len();
        if p <= 1 {
            return;
        }
        debug_assert!(k >= 2, "k-ary fan-in must be at least 2");
        let rel = (self.my_pos + p - root_pos) % p;
        let abs = |r: usize| (r + root_pos) % p;
        let mut tmp = vec![T::identity(op); data.len()];
        for c in 0..k {
            let child_rel = k * rel + 1 + c;
            if child_rel >= p {
                break;
            }
            self.recv_t(abs(child_rel), phase, &mut tmp);
            T::reduce_assign(op, data, &tmp);
        }
        if rel > 0 {
            self.send_t(abs((rel - 1) / k), phase, data);
        }
    }

    /// k-ary-tree broadcast from `root_pos`: receive from the parent,
    /// forward to children in ascending-position order.
    fn kary_bcast<T: PureDatatype>(&self, root_pos: usize, data: &mut [T], k: usize, phase: u32) {
        let p = self.nodes.len();
        if p <= 1 {
            return;
        }
        debug_assert!(k >= 2, "k-ary fan-in must be at least 2");
        let rel = (self.my_pos + p - root_pos) % p;
        let abs = |r: usize| (r + root_pos) % p;
        if rel > 0 {
            self.recv_t(abs((rel - 1) / k), phase, data);
        }
        for c in 0..k {
            let child_rel = k * rel + 1 + c;
            if child_rel >= p {
                break;
            }
            self.send_t(abs(child_rel), phase, data);
        }
    }

    /// Ring all-reduce: reduce-scatter (each node ends owning one fully
    /// reduced contiguous chunk) then allgather (the reduced chunks
    /// circulate verbatim). Bandwidth optimal — each node moves
    /// `2·(p-1)/p` of the vector instead of recursive doubling's
    /// `log2(p)` full copies — at the cost of `2·(p-1)` α latencies, so
    /// the tuner only picks it for large payloads. Chunks are balanced
    /// element ranges; short vectors degrade gracefully to (correct)
    /// empty-chunk exchanges.
    fn ring_allreduce<T: Reducible>(&self, data: &mut [T], op: ReduceOp) {
        let p = self.nodes.len();
        if p <= 1 {
            return;
        }
        let len = data.len();
        let right = (self.my_pos + 1) % p;
        let left = (self.my_pos + p - 1) % p;
        let bounds = |c: usize| (c * len / p, (c + 1) * len / p);
        let max_chunk = len / p + usize::from(len % p != 0);
        let mut tmp = vec![T::identity(op); max_chunk];
        // Reduce-scatter: step s ships chunk (me - s) and folds chunk
        // (me - s - 1); after p-1 steps this node owns the full
        // reduction of chunk (me + 1) mod p.
        for s in 0..p - 1 {
            let (sa, sb) = bounds((self.my_pos + p - s) % p);
            self.send_t(right, PH_RING_RS, &data[sa..sb]);
            let (ra, rb) = bounds((self.my_pos + 2 * p - s - 1) % p);
            self.recv_t(left, PH_RING_RS, &mut tmp[..rb - ra]);
            T::reduce_assign(op, &mut data[ra..rb], &tmp[..rb - ra]);
        }
        // Allgather: circulate the finished chunks, received verbatim so
        // every node ends with bit-identical contents.
        for s in 0..p - 1 {
            let (sa, sb) = bounds((self.my_pos + 1 + p - s) % p);
            self.send_t(right, PH_RING_AG, &data[sa..sb]);
            let (ra, rb) = bounds((self.my_pos + p - s) % p);
            self.recv_t(left, PH_RING_AG, &mut data[ra..rb]);
        }
    }

    /// Tree barrier: an arrival wave gathers tokens up a k-ary tree to
    /// position 0, a release wave broadcasts the go-token back down.
    fn tree_barrier(&self, k: usize) {
        let p = self.nodes.len();
        debug_assert!(k >= 2, "k-ary fan-in must be at least 2");
        let rel = self.my_pos;
        let mut token = [0u8; 1];
        for c in 0..k {
            let child = k * rel + 1 + c;
            if child >= p {
                break;
            }
            self.recv_t(child, PH_TREE_GATHER, &mut token);
        }
        if rel > 0 {
            self.send_t::<u8>((rel - 1) / k, PH_TREE_GATHER, &[1]);
            self.recv_t((rel - 1) / k, PH_TREE_RELEASE, &mut token);
        }
        for c in 0..k {
            let child = k * rel + 1 + c;
            if child >= p {
                break;
            }
            self.send_t::<u8>(child, PH_TREE_RELEASE, &[1]);
        }
    }
}

fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{launch_map, Config};

    #[test]
    fn prev_pow2() {
        assert_eq!(prev_power_of_two(1), 1);
        assert_eq!(prev_power_of_two(2), 2);
        assert_eq!(prev_power_of_two(3), 2);
        assert_eq!(prev_power_of_two(5), 4);
        assert_eq!(prev_power_of_two(8), 8);
        assert_eq!(prev_power_of_two(63), 32);
    }

    /// Drive an n-node leader collective: a launch of one rank per node,
    /// each running `f` on the leader view of its world communicator,
    /// forcing the wire rendezvous for payloads above `eager_max` and
    /// running the `algo` inter-node family.
    fn run_leaders_cfg<R: Send>(
        n: usize,
        eager_max: usize,
        algo: InternodeAlgo,
        f: impl Fn(LeaderGroup<'_>) -> R + Sync,
    ) -> Vec<R> {
        let cfg = Config::new(n).with_ranks_per_node(1);
        let (_, results) = launch_map(cfg, |ctx| {
            let mut g = ctx.world().leader_group();
            g.wire_eager_max = eager_max;
            g.algo = algo;
            f(g)
        });
        results
    }

    /// As [`run_leaders_cfg`] with the flat algorithms.
    fn run_leaders_with<R: Send>(
        n: usize,
        eager_max: usize,
        f: impl Fn(LeaderGroup<'_>) -> R + Sync,
    ) -> Vec<R> {
        run_leaders_cfg(n, eager_max, InternodeAlgo::Flat, f)
    }

    /// As [`run_leaders_with`] with every payload eager (the classic path).
    fn run_leaders<R: Send>(n: usize, f: impl Fn(LeaderGroup<'_>) -> R + Sync) -> Vec<R> {
        run_leaders_with(n, usize::MAX, f)
    }

    fn check_allreduce(n: usize) {
        let results = run_leaders(n, move |g| {
            let mut data = vec![(g.my_pos + 1) as f64, (g.my_pos as f64) * 10.0];
            g.allreduce(&mut data, ReduceOp::Sum);
            data
        });
        let exp0: f64 = (1..=n).map(|x| x as f64).sum();
        let exp1: f64 = (0..n).map(|x| (x as f64) * 10.0).sum();
        for r in results {
            assert_eq!(r, vec![exp0, exp1], "allreduce wrong for n={n}");
        }
    }

    #[test]
    fn allreduce_various_node_counts() {
        for n in [1, 2, 3, 4, 5, 7, 8] {
            check_allreduce(n);
        }
    }

    #[test]
    fn allreduce_min_max() {
        let results = run_leaders(5, move |g| {
            let mut lo = vec![g.my_pos as i64];
            let mut hi = vec![g.my_pos as i64];
            g.allreduce(&mut lo, ReduceOp::Min);
            g.allreduce(&mut hi, ReduceOp::Max);
            (lo[0], hi[0])
        });
        for (lo, hi) in results {
            assert_eq!((lo, hi), (0, 4));
        }
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..4 {
            let results = run_leaders(4, move |g| {
                let mut data = if g.my_pos == root {
                    vec![7u32, 8, 9]
                } else {
                    vec![0u32, 0, 0]
                };
                g.bcast(root, &mut data);
                data
            });
            for r in results {
                assert_eq!(r, vec![7, 8, 9], "bcast wrong for root={root}");
            }
        }
    }

    #[test]
    fn reduce_lands_at_root_only() {
        for root in [0usize, 2] {
            let results = run_leaders(6, move |g| {
                let mut data = vec![1u64 << g.my_pos];
                g.reduce(root, &mut data, ReduceOp::Sum);
                data[0]
            });
            assert_eq!(results[root], 0b111111, "root sum wrong for root={root}");
        }
    }

    #[test]
    fn rdv_header_roundtrip_and_eager_passthrough() {
        let h = rdv_header(123_456);
        assert_eq!(rdv_parse(&h), Some(123_456));
        assert_eq!(rdv_parse(b"plain payload"), None);
        assert_eq!(rdv_parse(&h[..15]), None, "short frame is eager");
    }

    /// Adversarial regression: an eager user payload that is byte-for-byte
    /// a `RemoteChannel` rendezvous header must round-trip as plain data —
    /// the leader path's kind byte disambiguates — instead of stranding the
    /// receiver waiting for a phantom body.
    #[test]
    fn eager_payload_matching_rdv_header_bytes_is_not_misparsed() {
        let adversarial = rdv_header(usize::MAX >> 1).to_vec();
        let results = run_leaders(2, move |g| {
            let adv = rdv_header(usize::MAX >> 1);
            if g.my_pos == 0 {
                g.send_bytes(1, 0, &adv);
                Vec::new()
            } else {
                g.recv_bytes(0, 0)
            }
        });
        assert_eq!(results[1], adversarial);
    }

    #[test]
    fn large_payloads_stream_chunked_over_the_wire() {
        // 4000-byte payloads over a 64-byte eager ceiling: every collective
        // exchange becomes header + 63 chunks, reassembled in FIFO order.
        let n = 3;
        let results = run_leaders_with(n, 64, move |g| {
            let mut data: Vec<u32> = if g.my_pos == 0 {
                (0..1000).collect()
            } else {
                vec![0; 1000]
            };
            g.bcast(0, &mut data);
            let mut sum = vec![g.my_pos as u64];
            g.allreduce(&mut sum, ReduceOp::Sum); // small: still eager
            (data, sum[0])
        });
        for (data, sum) in results {
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
            assert_eq!(sum, (0..n as u64).sum::<u64>());
        }
    }

    #[test]
    fn barrier_completes_for_odd_counts() {
        for n in [2usize, 3, 5, 8] {
            let results = run_leaders(n, |g| {
                g.barrier();
                g.barrier();
                true
            });
            assert!(results.into_iter().all(|x| x));
        }
    }

    #[test]
    fn tree_depth_shapes() {
        assert_eq!(tree_depth(1, 2), 0);
        assert_eq!(tree_depth(2, 2), 1);
        assert_eq!(tree_depth(3, 2), 1);
        assert_eq!(tree_depth(4, 2), 2);
        assert_eq!(tree_depth(7, 2), 2);
        assert_eq!(tree_depth(8, 2), 3);
        assert_eq!(tree_depth(9, 8), 1);
        assert_eq!(tree_depth(10, 8), 2);
        assert_eq!(tree_depth(64, 4), 3);
        assert_eq!(tree_depth(1024, 8), 4);
    }

    #[test]
    fn kary_allreduce_matches_flat_for_all_shapes() {
        for n in [1usize, 2, 3, 4, 5, 7, 9] {
            for k in [2usize, 3, 8] {
                let results = run_leaders_cfg(n, usize::MAX, InternodeAlgo::Kary(k), move |g| {
                    let mut data = vec![(g.my_pos + 1) as u64, g.my_pos as u64 * 10];
                    g.allreduce(&mut data, ReduceOp::Sum);
                    data
                });
                let exp = vec![
                    (1..=n as u64).sum::<u64>(),
                    (0..n as u64).map(|x| x * 10).sum(),
                ];
                for r in results {
                    assert_eq!(r, exp, "kary allreduce wrong for n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn ring_allreduce_handles_uneven_and_short_vectors() {
        // Lengths that do not divide by the node count, including shorter
        // than it (empty-chunk exchanges must still line up).
        for n in [2usize, 3, 5] {
            for len in [1usize, 2, 7, 16] {
                let results = run_leaders_cfg(n, usize::MAX, InternodeAlgo::Ring, move |g| {
                    let mut data: Vec<i64> =
                        (0..len).map(|i| (g.my_pos * 100 + i) as i64).collect();
                    g.allreduce(&mut data, ReduceOp::Sum);
                    data
                });
                let exp: Vec<i64> = (0..len)
                    .map(|i| (0..n).map(|p| (p * 100 + i) as i64).sum())
                    .collect();
                for r in results {
                    assert_eq!(r, exp, "ring allreduce wrong for n={n} len={len}");
                }
            }
        }
    }

    #[test]
    fn ring_allreduce_streams_rdv_chunks() {
        // Large enough that ring chunks exceed the eager ceiling: the ring
        // steps ride the wire rendezvous.
        let n = 4;
        let results = run_leaders_cfg(n, 64, InternodeAlgo::Ring, move |g| {
            let mut data: Vec<u32> = (0..1000).map(|i| i + g.my_pos as u32).collect();
            g.allreduce(&mut data, ReduceOp::Sum);
            data
        });
        let exp: Vec<u32> = (0..1000u32)
            .map(|i| (0..n as u32).map(|p| i + p).sum())
            .collect();
        for r in results {
            assert_eq!(r, exp);
        }
    }

    #[test]
    fn kary_bcast_and_reduce_from_every_root() {
        for algo in [InternodeAlgo::Kary(3), InternodeAlgo::Ring] {
            for root in 0..5usize {
                let results = run_leaders_cfg(5, usize::MAX, algo, move |g| {
                    let mut data = if g.my_pos == root {
                        vec![41u32, 42]
                    } else {
                        vec![0u32, 0]
                    };
                    g.bcast(root, &mut data);
                    let mut sum = vec![1u64 << g.my_pos];
                    g.reduce(root, &mut sum, ReduceOp::Sum);
                    (data, sum[0])
                });
                for (pos, (data, _)) in results.iter().enumerate() {
                    assert_eq!(data, &vec![41, 42], "bcast wrong at pos {pos} root {root}");
                }
                assert_eq!(results[root].1, 0b11111, "reduce sum wrong for root {root}");
            }
        }
    }

    #[test]
    fn tree_barrier_completes_for_odd_counts_and_fanins() {
        for n in [2usize, 3, 5, 9] {
            for algo in [
                InternodeAlgo::Kary(2),
                InternodeAlgo::Kary(4),
                InternodeAlgo::Ring,
            ] {
                let results = run_leaders_cfg(n, usize::MAX, algo, |g| {
                    g.barrier();
                    g.barrier();
                    true
                });
                assert!(results.into_iter().all(|x| x));
            }
        }
    }

    /// The k-ary and ring all-reduce must leave bit-identical float
    /// results on every node (the acceptance criterion behind the
    /// differential oracle's hierarchical legs): reduction happens at a
    /// single owner per element, and the result is distributed verbatim.
    #[test]
    fn hierarchical_float_allreduce_is_bit_identical_across_nodes() {
        for algo in [
            InternodeAlgo::Kary(2),
            InternodeAlgo::Kary(3),
            InternodeAlgo::Ring,
        ] {
            let results = run_leaders_cfg(7, usize::MAX, algo, move |g| {
                let mut data: Vec<f64> = (0..33)
                    .map(|i| 0.1 * (i as f64) + g.my_pos as f64 * 1e-7)
                    .collect();
                g.allreduce(&mut data, ReduceOp::Sum);
                data.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
            });
            for r in &results[1..] {
                assert_eq!(r, &results[0], "divergent float bits under {algo:?}");
            }
        }
    }
}
