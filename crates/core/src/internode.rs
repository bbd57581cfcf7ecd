//! Cross-node collective phases (§4.2): what Pure does with MPI between
//! nodes, we do with `netsim` between simulated nodes. Only node-group
//! *leaders* participate; while they wait for network messages they run the
//! SSW-Loop like any other rank (so a leader blocked in a cross-node
//! reduction still steals task chunks).
//!
//! The leader phase runs the shapes an MPI library gives Pure's leaders:
//! recursive doubling for all-reduce (with the non-power-of-two fold-in
//! pre/post phases), binomial trees for broadcast and reduce, and the
//! dissemination algorithm for barrier. They run above the `Transport`
//! seam — they see only `NodeEndpoint` send/recv, so the Sim and TCP
//! backends execute them unchanged. Tree and ring shapes at paper scale
//! are modeled only in `cluster-sim` (`NetCollAlgo`).
//!
//! Wire phases, offsets from a communicator's tag base: 0 (fold-in), 1..
//! (one per recursive-doubling round) and 31 (fold-out) for all-reduce, 32
//! for broadcast, 33 for reduce, 40.. (one per barrier round) and 200 for
//! survivor agreement (`comm.rs`).

use netsim::{FrameSlice, WireTag};

use crate::datatype::{as_bytes, as_bytes_mut, PureDatatype, ReduceOp, Reducible};
use crate::error::{die_invariant, PureError, PureResult};
use crate::runtime::{RankLocal, WaitOp};

/// A participating node of a communicator: its netsim node id and the
/// within-node thread index of its leader (needed for wire-tag routing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LeaderInfo {
    /// Simulated node id.
    pub(crate) node: usize,
    /// Leader's local thread index on that node.
    pub(crate) leader_local: usize,
    /// Leader's world rank (error context: timeouts and truncations name
    /// the peer *rank*, matching the intra-node error shape).
    pub(crate) leader_world: usize,
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
pub(crate) struct LeaderGroup<'a> {
    /// All member nodes, in a globally agreed order.
    pub(crate) nodes: &'a [LeaderInfo],
    /// Index of this node in `nodes`.
    pub(crate) my_pos: usize,
    /// Communicator-unique tag namespace base.
    pub(crate) tag_base: u32,
    /// The leader rank driving this view: its endpoint carries the frames,
    /// its SSW wait blocks for them, and fatal wire errors go through its
    /// abort protocol so every other rank unwinds too.
    pub(crate) local: &'a RankLocal,
    /// Largest payload sent as a single eager frame; larger ones go through
    /// the header-then-chunks wire rendezvous (see `RDV_MAGIC`).
    pub(crate) wire_eager_max: usize,
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
    pub(crate) fn send_bytes(&self, dst_pos: usize, phase: u32, data: &[u8]) {
        self.send_t(dst_pos, phase, data);
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

    /// All-reduce `data` across the member nodes: recursive doubling with
    /// the non-power-of-two fold-in pre/post phases (the flat MPICH shape).
    /// Every leader ends with the full reduction in `data`, bit-identical
    /// on all nodes: each exchange combines the same two operands on both
    /// sides, and the folded-in nodes receive the result verbatim.
    pub(crate) fn allreduce<T: Reducible>(&self, data: &mut [T], op: ReduceOp) {
        let p = self.nodes.len();
        if p <= 1 {
            return;
        }
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

    /// Broadcast `data` from the node at position `root_pos` over a
    /// binomial tree.
    pub(crate) fn bcast<T: PureDatatype>(&self, root_pos: usize, data: &mut [T]) {
        let p = self.nodes.len();
        if p <= 1 {
            return;
        }
        let rel = (self.my_pos + p - root_pos) % p;
        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                let src = (self.my_pos + p - mask) % p;
                self.recv_t(src, 32, data);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if rel + mask < p {
                let dst = (self.my_pos + mask) % p;
                self.send_t(dst, 32, data);
            }
            mask >>= 1;
        }
    }

    /// Reduce `data` to the node at position `root_pos` over a binomial
    /// tree (operators are commutative). Non-root leaders' `data` is
    /// clobbered.
    pub(crate) fn reduce<T: Reducible>(&self, root_pos: usize, data: &mut [T], op: ReduceOp) {
        let p = self.nodes.len();
        if p <= 1 {
            return;
        }
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

    /// Barrier across the member nodes (dissemination).
    pub(crate) fn barrier(&self) {
        let p = self.nodes.len();
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
    /// forcing the wire rendezvous for payloads above `eager_max`.
    fn run_leaders_with<R: Send>(
        n: usize,
        eager_max: usize,
        f: impl Fn(LeaderGroup<'_>) -> R + Sync,
    ) -> Vec<R> {
        let cfg = Config::new(n).with_ranks_per_node(1);
        let (_, results) = launch_map(cfg, |ctx| {
            let mut g = ctx.world().leader_group();
            g.wire_eager_max = eager_max;
            f(g)
        });
        results
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
            let mut got = [0u8; 16];
            if g.my_pos == 0 {
                g.send_bytes(1, 0, &adv);
            } else {
                g.recv_t(0, 0, &mut got);
            }
            got.to_vec()
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
    fn large_allreduce_and_reduce_stream_rdv_chunks() {
        // 4000-byte payloads over a 64-byte eager ceiling: every recursive-
        // doubling exchange (fold-in and fold-out included) and every
        // binomial reduce edge rides the wire rendezvous.
        for n in [3usize, 5] {
            let results = run_leaders_with(n, 64, move |g| {
                let mut all: Vec<u32> = (0..1000).map(|i| i + g.my_pos as u32).collect();
                g.allreduce(&mut all, ReduceOp::Sum);
                let roots: Vec<Vec<u32>> = (0..n)
                    .map(|root| {
                        let mut part: Vec<u32> = (0..1000)
                            .map(|i| i * (root as u32 + 1) + g.my_pos as u32)
                            .collect();
                        g.reduce(root, &mut part, ReduceOp::Sum);
                        part
                    })
                    .collect();
                (all, roots)
            });
            let ranks_sum: u32 = (0..n as u32).sum();
            let exp: Vec<u32> = (0..1000u32).map(|i| n as u32 * i + ranks_sum).collect();
            for (pos, (all, roots)) in results.iter().enumerate() {
                assert_eq!(all, &exp, "allreduce wrong at pos {pos} of {n}");
                let exp_root: Vec<u32> = (0..1000u32)
                    .map(|i| n as u32 * i * (pos as u32 + 1) + ranks_sum)
                    .collect();
                assert_eq!(roots[pos], exp_root, "reduce wrong at root {pos} of {n}");
            }
        }
    }

    /// Recursive doubling with the non-power-of-two fold-in must leave
    /// bit-identical float results on every node (the property behind the
    /// differential oracle's multi-node legs): both sides of an exchange
    /// combine the same two operands, and folded-in nodes receive the
    /// result verbatim.
    #[test]
    fn float_allreduce_is_bit_identical_across_nodes() {
        for n in [3usize, 5, 6, 7] {
            let results = run_leaders(n, move |g| {
                let mut data: Vec<f64> = (0..33)
                    .map(|i| 0.1 * (i as f64) + g.my_pos as f64 * 1e-7)
                    .collect();
                g.allreduce(&mut data, ReduceOp::Sum);
                data.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
            });
            for r in &results[1..] {
                assert_eq!(r, &results[0], "divergent float bits at {n} nodes");
            }
        }
    }

    #[test]
    fn allreduce_handles_empty_and_short_vectors() {
        // Vectors shorter than the node count, and empty ones, still go
        // through every recursive-doubling and fold-in exchange.
        for n in [3usize, 5, 6, 7] {
            for len in [0usize, 1, 2] {
                let results = run_leaders(n, move |g| {
                    let mut data: Vec<u64> = (0..len).map(|i| (g.my_pos * 10 + i) as u64).collect();
                    g.allreduce(&mut data, ReduceOp::Sum);
                    data
                });
                let exp: Vec<u64> = (0..len)
                    .map(|i| (0..n).map(|p| (p * 10 + i) as u64).sum())
                    .collect();
                for r in results {
                    assert_eq!(r, exp, "allreduce wrong for n={n} len={len}");
                }
            }
        }
    }

    #[test]
    fn bcast_and_reduce_from_every_root_on_non_pow2_counts() {
        // The binomial trees are rooted by rotating positions; every root
        // of every non-power-of-two count must see the whole group.
        for n in [3usize, 5, 6, 7] {
            for root in 0..n {
                let results = run_leaders(n, move |g| {
                    let mut data = if g.my_pos == root {
                        vec![root as u32 + 1, 42]
                    } else {
                        vec![0, 0]
                    };
                    g.bcast(root, &mut data);
                    let mut bits = vec![1u64 << g.my_pos];
                    g.reduce(root, &mut bits, ReduceOp::Sum);
                    (data, bits[0])
                });
                for (data, _) in &results {
                    assert_eq!(data, &vec![root as u32 + 1, 42], "bcast n={n} root={root}");
                }
                assert_eq!(results[root].1, (1u64 << n) - 1, "reduce n={n} root={root}");
            }
        }
    }

    #[test]
    fn barrier_holds_every_leader_until_all_arrive() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for n in [2usize, 3, 5, 7] {
            let arrived = AtomicUsize::new(0);
            let results = run_leaders(n, |g| {
                (0..3)
                    .map(|round| {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        g.barrier();
                        arrived.load(Ordering::SeqCst) >= (round + 1) * n
                    })
                    .collect::<Vec<bool>>()
            });
            for (pos, r) in results.iter().enumerate() {
                assert!(
                    r.iter().all(|&ok| ok),
                    "leader {pos} of {n} left a barrier early"
                );
            }
        }
    }

    #[test]
    fn allreduce_prod_and_bit_ops_match_a_sequential_fold() {
        for n in [3usize, 6] {
            let results = run_leaders(n, move |g| {
                let mut prod = vec![(g.my_pos + 1) as i64];
                g.allreduce(&mut prod, ReduceOp::Prod);
                let mut and = vec![!(1u64 << g.my_pos)];
                g.allreduce(&mut and, ReduceOp::BitAnd);
                let mut or = vec![1u64 << (2 * g.my_pos)];
                g.allreduce(&mut or, ReduceOp::BitOr);
                (prod[0], and[0], or[0])
            });
            let prod: i64 = (1..=n as i64).product();
            let and = (0..n).fold(u64::MAX, |acc, p| acc & !(1u64 << p));
            let or = (0..n).fold(0u64, |acc, p| acc | 1u64 << (2 * p));
            for r in results {
                assert_eq!(r, (prod, and, or), "n={n}");
            }
        }
    }

    #[test]
    fn back_to_back_collectives_keep_their_payloads_apart() {
        // No barrier between rounds: a fast leader runs ahead into the next
        // collective while a slow one still drains the last, with every
        // other round's payloads large enough to ride the wire rendezvous.
        let n = 5;
        let results = run_leaders_with(n, 64, move |g| {
            let mut seen = Vec::new();
            for round in 0..8usize {
                let len = if round % 2 == 0 { 3 } else { 100 };
                let mut sum: Vec<u64> = vec![(round * 100 + g.my_pos) as u64; len];
                g.allreduce(&mut sum, ReduceOp::Sum);
                let root = round % n;
                let mut data: Vec<u64> = if g.my_pos == root {
                    (0..len as u64).map(|i| i + round as u64).collect()
                } else {
                    vec![0; len]
                };
                g.bcast(root, &mut data);
                let mut red = vec![round as u64 + g.my_pos as u64; len];
                g.reduce(root, &mut red, ReduceOp::Max);
                seen.push((sum, data, (g.my_pos == root).then_some(red)));
            }
            seen
        });
        for (pos, seen) in results.iter().enumerate() {
            for (round, (sum, data, red)) in seen.iter().enumerate() {
                let len = if round % 2 == 0 { 3 } else { 100 };
                let exp_sum = (0..n).map(|p| (round * 100 + p) as u64).sum::<u64>();
                assert_eq!(
                    sum,
                    &vec![exp_sum; len],
                    "allreduce pos={pos} round={round}"
                );
                let exp_data: Vec<u64> = (0..len as u64).map(|i| i + round as u64).collect();
                assert_eq!(data, &exp_data, "bcast pos={pos} round={round}");
                if let Some(red) = red {
                    let exp_red = vec![(round + n - 1) as u64; len];
                    assert_eq!(red, &exp_red, "reduce pos={pos} round={round}");
                }
            }
        }
    }

    #[test]
    fn large_bcast_from_every_root_streams_rdv_chunks() {
        // 4000-byte bcasts over a 64-byte eager ceiling from each root: the
        // rotated binomial tree forwards every chunked payload intact.
        for n in [3usize, 5] {
            for root in 0..n {
                let results = run_leaders_with(n, 64, move |g| {
                    let mut data: Vec<u32> = if g.my_pos == root {
                        (0..1000).map(|i| i * 7 + root as u32).collect()
                    } else {
                        vec![0; 1000]
                    };
                    g.bcast(root, &mut data);
                    data
                });
                let exp: Vec<u32> = (0..1000).map(|i| i * 7 + root as u32).collect();
                for (pos, r) in results.iter().enumerate() {
                    assert_eq!(r, &exp, "bcast n={n} root={root} pos={pos}");
                }
            }
        }
    }
}
