//! Channels and the Channel Manager (§4.1).
//!
//! Every point-to-point message in Pure travels over a *persistent channel*
//! selected by the message arguments: `(communicator, sender world rank,
//! receiver world rank, tag, message bytes)`. Including the byte count in the
//! key makes protocol selection (PBQ vs rendezvous) consistent on both sides
//! and lets the PBQ size its slots exactly. Channels are created on demand
//! and cached per rank, exactly as the paper's Channel Manager does.
//!
//! Three channel kinds implement the three §4.1 strategies:
//! * [`SmallChannel`] — intra-node, ≤ `small_msg_max` bytes: lock-free PBQ,
//!   two copies;
//! * [`LargeChannel`] — intra-node, larger: lock-free rendezvous, one copy;
//! * [`RemoteChannel`] — inter-node: the netsim transport (standing in for
//!   MPI), with thread ids encoded in the wire tag.
//!
//! Each side of a channel owns an ordered in-flight queue so that
//! non-blocking operations complete in post order (MPI's matching rule) even
//! when `wait` is called out of order.

pub mod envelope;
pub mod pbq;

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::die_invariant;
use crate::internode::{rdv_header, rdv_parse};
use crate::util::side::SideCell;
use envelope::EnvelopeQueue;
use netsim::{NodeEndpoint, WireTag};
use pbq::PureBufferQueue;

/// Identifies a persistent channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChannelKey {
    /// Communicator id (world == 0).
    pub comm_id: u64,
    /// Sender world rank.
    pub src: u32,
    /// Receiver world rank.
    pub dst: u32,
    /// Application tag.
    pub tag: u32,
    /// Message payload size in bytes (count × element size).
    pub bytes: u64,
}

/// The hasher of a rank's channel cache: FxHash's multiply-rotate fold of
/// the key's five words. SipHash's flood resistance buys nothing for keys
/// a rank makes up itself, and costs more than the PBQ handoff it guards.
pub(crate) type KeyHasher = BuildHasherDefault<KeyFold>;

/// The [`Hasher`] behind [`KeyHasher`].
#[derive(Default)]
pub(crate) struct KeyFold(u64);

impl KeyFold {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyFold {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b.into());
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

/// One side's ordered in-flight bookkeeping.
struct InFlight<P> {
    /// Sequence number the next posted operation receives.
    next_seq: u64,
    /// Sequence number up to which operations have completed (exclusive).
    completed: u64,
    /// Posted-but-incomplete operations, oldest first.
    pending: VecDeque<P>,
}

impl<P> Default for InFlight<P> {
    fn default() -> Self {
        Self {
            next_seq: 0,
            completed: 0,
            pending: VecDeque::new(),
        }
    }
}

struct PendingSend {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the pointers are plain addresses; all dereferences happen on the
// owning side's thread under the `post_send`/`post_recv` validity contracts.
unsafe impl Send for PendingSend {}

struct PendingRecv {
    ptr: *mut u8,
    cap: usize,
    /// For rendezvous: the envelope ticket once the post has been pushed into
    /// the queue (posting can be deferred when all envelopes are in flight).
    ticket: Option<u64>,
    /// For chunked remote rendezvous: body length announced by the wire
    /// header (`None` until the header arrives).
    total: Option<usize>,
    /// For chunked remote rendezvous: body bytes received so far.
    filled: usize,
}

// SAFETY: as for `PendingSend`.
unsafe impl Send for PendingRecv {}

/// Intra-node short-message channel (PBQ, two-copy buffered mode).
pub struct SmallChannel {
    pbq: PureBufferQueue,
    send: SideCell<InFlight<PendingSend>>,
    recv: SideCell<InFlight<PendingRecv>>,
}

/// Intra-node large-message channel (rendezvous, single-copy).
pub struct LargeChannel {
    env: EnvelopeQueue,
    send: SideCell<InFlight<PendingSend>>,
    recv: SideCell<InFlight<PendingRecv>>,
}

/// Inter-node channel over the simulated interconnect.
pub struct RemoteChannel {
    /// Receiver-side endpoint (sender uses its own rank-local endpoint).
    src_node: usize,
    dst_node: usize,
    wire: WireTag,
    /// `Some(chunk)` extends the eager/rendezvous split to the wire: the
    /// payload (every message of this channel is `key.bytes` long, above the
    /// eager ceiling) travels as a rendezvous header followed by
    /// `chunk`-sized frames, so the receiver SSW-waits per chunk and the
    /// coalescing layer never sees an oversize frame. `None` = one eager
    /// frame per message.
    rdv_chunk: Option<usize>,
    recv: SideCell<InFlight<PendingRecv>>,
    /// Chunk frames of a withdrawn mid-stream rendezvous receive still in
    /// flight on the wire (receiver-side state). They are drained and
    /// discarded before any later message on this tag is matched — a stale
    /// chunk must never complete a fresh post (see
    /// [`Channel::try_cancel_recv`]).
    skip: SideCell<usize>,
}

impl RemoteChannel {
    /// Ship one logical payload: a single eager frame, or header + chunks
    /// when this channel runs the wire rendezvous. The transport is FIFO per
    /// wire tag, so no per-chunk sequencing is needed.
    fn wire_send(&self, ep: &NodeEndpoint, payload: &[u8]) {
        match self.rdv_chunk {
            None => ep.send(self.dst_node, self.wire, payload),
            Some(chunk) => {
                ep.send(self.dst_node, self.wire, &rdv_header(payload.len()));
                for c in payload.chunks(chunk.max(1)) {
                    ep.send(self.dst_node, self.wire, c);
                }
            }
        }
    }
}

/// A receive-side size mismatch detected inside the channel layer: the wire
/// delivered (or a rendezvous header announced) more bytes than the posted
/// buffer holds. Possible only on remote channels — the wire tag does not
/// encode the byte count, so a mismatched sender shares the tag — whereas
/// intra-node channels agree on sizes by construction (the byte count is
/// part of the channel key). The channel has no rank identity; callers wrap
/// this into [`crate::error::PureError::Truncation`] and escalate through
/// the abort protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvOverrun {
    /// Bytes the sender delivered or announced.
    pub sent: usize,
    /// Bytes the posted receive buffer can hold.
    pub capacity: usize,
}

/// What happened to an in-flight operation a caller tried to cancel (the
/// recovery path of `send_timeout`/`recv_timeout`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The operation was withdrawn; it is as if it was never posted.
    Canceled,
    /// The operation had already completed; the caller owns its effects.
    Completed,
    /// The operation is mid-transfer (or older posts precede it) and can
    /// neither be withdrawn nor is it done; the caller must keep waiting.
    InFlight,
}

/// A persistent channel of one of the three kinds.
// Channels are allocated once behind an `Arc` and live for the run; the
// size skew (the PBQ's cache-padded index cells) costs nothing there,
// while boxing `SmallChannel` would add a pointer chase to the hot path.
#[allow(clippy::large_enum_variant)]
pub enum Channel {
    /// PBQ-backed short-message channel.
    Small(SmallChannel),
    /// Rendezvous large-message channel.
    Large(LargeChannel),
    /// Cross-node channel.
    Remote(RemoteChannel),
}

impl Channel {
    /// Post a send of `len` bytes at `ptr`, returning its sequence number.
    /// The bytes are flushed opportunistically; completion is polled with
    /// [`Channel::try_flush_sends`].
    ///
    /// # Safety
    /// Caller must be the channel's sender thread, and `ptr..ptr+len` must
    /// remain valid and unmodified until the returned sequence completes.
    pub unsafe fn post_send(&self, ep: &NodeEndpoint, ptr: *const u8, len: usize) -> u64 {
        match self {
            Channel::Small(c) => {
                // SAFETY: sender-side cell, caller is the sender thread.
                let seq = unsafe {
                    c.send.with(|s| {
                        let q = s.next_seq;
                        s.next_seq += 1;
                        s.pending.push_back(PendingSend { ptr, len });
                        q
                    })
                };
                self.try_flush_sends(ep, seq + 1);
                seq
            }
            Channel::Large(c) => {
                // SAFETY: as above.
                let seq = unsafe {
                    c.send.with(|s| {
                        let q = s.next_seq;
                        s.next_seq += 1;
                        s.pending.push_back(PendingSend { ptr, len });
                        q
                    })
                };
                self.try_flush_sends(ep, seq + 1);
                seq
            }
            Channel::Remote(c) => {
                // The transport buffers internally; a remote send completes
                // immediately (like an MPI eager send over the NIC).
                // SAFETY: ptr/len valid per caller contract; read-only here.
                let payload = unsafe { std::slice::from_raw_parts(ptr, len) };
                c.wire_send(ep, payload);
                0
            }
        }
    }

    /// Blocking-path fast send: when no sends are pending on this channel,
    /// move the payload straight into the transport, bypassing the in-flight
    /// queue entirely. Returns `true` on success; on `false` the caller must
    /// fall back to `post_send` + `try_flush_sends`.
    ///
    /// # Safety
    /// Caller must be the channel's sender thread; `ptr..ptr+len` is read
    /// synchronously during the call only.
    pub unsafe fn try_send_now(&self, ep: &NodeEndpoint, ptr: *const u8, len: usize) -> bool {
        match self {
            // SAFETY (both arms): sender-side cell, sender thread per the
            // caller contract; ordering with queued sends is preserved by
            // the pending-empty check.
            Channel::Small(c) => unsafe {
                c.send.with(|s| {
                    let payload = std::slice::from_raw_parts(ptr, len);
                    if s.pending.is_empty() && c.pbq.try_send(payload) {
                        s.next_seq += 1;
                        s.completed += 1;
                        true
                    } else {
                        false
                    }
                })
            },
            Channel::Large(c) => unsafe {
                c.send.with(|s| {
                    let payload = std::slice::from_raw_parts(ptr, len);
                    if s.pending.is_empty() && c.env.try_fill(payload) {
                        s.next_seq += 1;
                        s.completed += 1;
                        true
                    } else {
                        false
                    }
                })
            },
            Channel::Remote(c) => {
                // SAFETY: ptr/len valid per caller contract; read-only here.
                let payload = unsafe { std::slice::from_raw_parts(ptr, len) };
                c.wire_send(ep, payload);
                true
            }
        }
    }

    /// Blocking-path fast receive into `ptr..ptr+cap`: when no receives are
    /// pending and a message is already waiting, deliver it without touching
    /// the in-flight queue. Returns `Ok(true)` on delivery, `Err` when a
    /// remote frame does not fit the buffer (see [`RecvOverrun`]).
    ///
    /// # Safety
    /// Caller must be the channel's receiver thread; the buffer is written
    /// synchronously during the call only.
    pub unsafe fn try_recv_now(
        &self,
        ep: &NodeEndpoint,
        ptr: *mut u8,
        cap: usize,
    ) -> Result<bool, RecvOverrun> {
        match self {
            // SAFETY (all arms): receiver-side cell, receiver thread.
            Channel::Small(c) => unsafe {
                c.recv.with(|s| {
                    if !s.pending.is_empty() {
                        return Ok(false);
                    }
                    let out = std::slice::from_raw_parts_mut(ptr, cap);
                    if c.pbq.try_recv(out).is_some() {
                        s.next_seq += 1;
                        s.completed += 1;
                        Ok(true)
                    } else {
                        Ok(false)
                    }
                })
            },
            // Rendezvous needs the buffer posted into the envelope queue for
            // the sender to find; no queue-free shortcut exists.
            Channel::Large(_) => Ok(false),
            Channel::Remote(c) => {
                // Chunked rendezvous needs the multi-frame bookkeeping of a
                // posted receive; no queue-free shortcut.
                if c.rdv_chunk.is_some() {
                    return Ok(false);
                }
                unsafe {
                    c.recv.with(|s| {
                        if !s.pending.is_empty() {
                            return Ok(false);
                        }
                        let Some(payload) = ep.try_recv(c.src_node, c.wire) else {
                            return Ok(false);
                        };
                        if payload.len() > cap {
                            return Err(RecvOverrun {
                                sent: payload.len(),
                                capacity: cap,
                            });
                        }
                        // SAFETY: buffer valid per the caller contract.
                        std::ptr::copy_nonoverlapping(payload.as_ptr(), ptr, payload.len());
                        s.next_seq += 1;
                        s.completed += 1;
                        Ok(true)
                    })
                }
            }
        }
    }

    /// Try to flush posted sends so that all sequences `< upto` are complete.
    /// Returns `true` when that is the case.
    ///
    /// Must be called from the sender thread.
    pub fn try_flush_sends(&self, _ep: &NodeEndpoint, upto: u64) -> bool {
        match self {
            // SAFETY (both arms): sender-side cell, sender thread per contract.
            Channel::Small(c) => unsafe {
                c.send.with(|s| {
                    while s.completed < upto && !s.pending.is_empty() {
                        // Drain as many fronts as fit in one acquire/release
                        // pair (one `tail` publication per poll).
                        let sent = c.pbq.try_send_batch(
                            s.pending
                                .iter()
                                // SAFETY: pending pointers valid per the
                                // post_send contract.
                                .map(|p| std::slice::from_raw_parts(p.ptr, p.len)),
                        );
                        if sent == 0 {
                            return false;
                        }
                        s.pending.drain(..sent);
                        s.completed += sent as u64;
                    }
                    s.completed >= upto
                })
            },
            Channel::Large(c) => unsafe {
                c.send.with(|s| {
                    while s.completed < upto {
                        let Some(front) = s.pending.front() else {
                            break;
                        };
                        // SAFETY: pending pointers valid per post_send contract.
                        let payload = std::slice::from_raw_parts(front.ptr, front.len);
                        if !c.env.try_fill(payload) {
                            return false;
                        }
                        s.pending.pop_front();
                        s.completed += 1;
                    }
                    s.completed >= upto
                })
            },
            Channel::Remote(_) => true,
        }
    }

    /// Flush as many pending sends as currently possible (any amount).
    /// Returns `true` when no pending sends remain.
    ///
    /// Must be called from the sender thread.
    pub fn try_flush_all_sends(&self, ep: &NodeEndpoint) -> bool {
        let _ = self.try_flush_sends(ep, u64::MAX);
        !self.has_pending_sends()
    }

    /// True when posted sends are still waiting for queue space / a
    /// rendezvous partner. (Sender thread only.)
    pub fn has_pending_sends(&self) -> bool {
        match self {
            // SAFETY: sender-side cells, called from the sender thread per
            // the method contract.
            Channel::Small(c) => unsafe { c.send.with(|s| !s.pending.is_empty()) },
            Channel::Large(c) => unsafe { c.send.with(|s| !s.pending.is_empty()) },
            Channel::Remote(_) => false,
        }
    }

    /// Post a receive into `ptr..ptr+cap`, returning its sequence number.
    ///
    /// # Safety
    /// Caller must be the channel's receiver thread; the buffer must remain
    /// valid, unaliased and untouched until the returned sequence completes
    /// (another thread may write through `ptr`).
    pub unsafe fn post_recv(&self, ptr: *mut u8, cap: usize) -> u64 {
        let post = |cell: &SideCell<InFlight<PendingRecv>>| {
            // SAFETY: receiver-side cell, caller is the receiver thread.
            unsafe {
                cell.with(|s| {
                    let q = s.next_seq;
                    s.next_seq += 1;
                    s.pending.push_back(PendingRecv {
                        ptr,
                        cap,
                        ticket: None,
                        total: None,
                        filled: 0,
                    });
                    q
                })
            }
        };
        match self {
            Channel::Small(c) => post(&c.recv),
            Channel::Remote(c) => post(&c.recv),
            Channel::Large(c) => {
                let seq = post(&c.recv);
                // Eagerly expose the buffer to the sender (true rendezvous).
                // SAFETY: receiver-side cell on the receiver thread.
                unsafe {
                    c.recv.with(|s| {
                        post_envelopes(&c.env, s);
                    })
                };
                seq
            }
        }
    }

    /// Try to complete posted receives so that all sequences `< upto` are
    /// complete (payload delivered into the posted buffers, in post order).
    /// Returns `Ok(true)` when that is the case; `Err` when a remote frame
    /// (or an announced rendezvous body) does not fit the posted buffer.
    ///
    /// Must be called from the receiver thread.
    pub fn try_complete_recvs(&self, ep: &NodeEndpoint, upto: u64) -> Result<bool, RecvOverrun> {
        match self {
            // SAFETY (all arms): receiver-side cell, receiver thread.
            Channel::Small(c) => unsafe {
                c.recv.with(|s| {
                    while s.completed < upto && !s.pending.is_empty() {
                        // Deliver as many waiting messages as there are
                        // posted buffers in one acquire/release pair (one
                        // `head` publication per poll).
                        let pending = &s.pending;
                        let got = c.pbq.try_recv_batch(pending.len(), |i, bytes| {
                            let front = &pending[i];
                            assert!(
                                bytes.len() <= front.cap,
                                "PBQ message of {} bytes into {} byte buffer",
                                bytes.len(),
                                front.cap
                            );
                            // SAFETY: posted buffer valid per the post_recv
                            // contract; buffers are pairwise distinct.
                            std::ptr::copy_nonoverlapping(bytes.as_ptr(), front.ptr, bytes.len());
                        });
                        if got == 0 {
                            return Ok(false);
                        }
                        s.pending.drain(..got);
                        s.completed += got as u64;
                    }
                    Ok(s.completed >= upto)
                })
            },
            Channel::Large(c) => unsafe {
                c.recv.with(|s| {
                    post_envelopes(&c.env, s);
                    while s.completed < upto {
                        let Some(front) = s.pending.front() else {
                            break;
                        };
                        let Some(t) = front.ticket else {
                            return Ok(false);
                        };
                        if c.env.try_consume(t).is_none() {
                            return Ok(false);
                        }
                        s.pending.pop_front();
                        s.completed += 1;
                        post_envelopes(&c.env, s);
                    }
                    Ok(s.completed >= upto)
                })
            },
            Channel::Remote(c) => unsafe {
                c.recv.with(|s| {
                    // Remains of a withdrawn chunked stream precede any live
                    // message on this FIFO tag: discard them before matching.
                    // SAFETY: receiver-side cell, receiver thread.
                    let drained = c.skip.with(|k| {
                        while *k > 0 {
                            if ep.try_recv(c.src_node, c.wire).is_none() {
                                return false;
                            }
                            *k -= 1;
                        }
                        true
                    });
                    if !drained {
                        return Ok(s.completed >= upto);
                    }
                    while s.completed < upto {
                        let Some(front) = s.pending.front_mut() else {
                            break;
                        };
                        let Some(payload) = ep.try_recv(c.src_node, c.wire) else {
                            return Ok(false);
                        };
                        if c.rdv_chunk.is_some() {
                            // Wire rendezvous: header announces the body,
                            // then FIFO chunks land at increasing offsets.
                            match front.total {
                                None => {
                                    let Some(total) = rdv_parse(&payload) else {
                                        die_invariant(
                                            "chunked remote channel got a non-header frame first",
                                        );
                                    };
                                    if total > front.cap {
                                        return Err(RecvOverrun {
                                            sent: total,
                                            capacity: front.cap,
                                        });
                                    }
                                    front.total = Some(total);
                                }
                                Some(total) => {
                                    if front.filled + payload.len() > total {
                                        die_invariant(
                                            "wire rendezvous chunks overran the announced length",
                                        );
                                    }
                                    // SAFETY: posted buffer valid per the
                                    // post_recv contract; offsets disjoint.
                                    std::ptr::copy_nonoverlapping(
                                        payload.as_ptr(),
                                        front.ptr.add(front.filled),
                                        payload.len(),
                                    );
                                    front.filled += payload.len();
                                }
                            }
                            if front.total != Some(front.filled) {
                                continue; // more chunks to come
                            }
                        } else {
                            if payload.len() > front.cap {
                                return Err(RecvOverrun {
                                    sent: payload.len(),
                                    capacity: front.cap,
                                });
                            }
                            // SAFETY: posted buffer valid per post_recv
                            // contract.
                            std::ptr::copy_nonoverlapping(
                                payload.as_ptr(),
                                front.ptr,
                                payload.len(),
                            );
                        }
                        s.pending.pop_front();
                        s.completed += 1;
                    }
                    Ok(s.completed >= upto)
                })
            },
        }
    }

    /// Try to withdraw the posted send with sequence `seq`. Only the
    /// **newest** posted operation can be withdrawn (cancelling mid-queue
    /// would reorder the stream, breaking MPI matching).
    ///
    /// Must be called from the sender thread.
    pub fn try_cancel_send(&self, seq: u64) -> CancelOutcome {
        let cancel = |cell: &SideCell<InFlight<PendingSend>>| {
            // SAFETY: sender-side cell, sender thread per the contract.
            unsafe {
                cell.with(|s| {
                    if seq < s.completed {
                        return CancelOutcome::Completed;
                    }
                    if seq + 1 == s.next_seq && !s.pending.is_empty() {
                        s.pending.pop_back();
                        s.next_seq -= 1;
                        return CancelOutcome::Canceled;
                    }
                    CancelOutcome::InFlight
                })
            }
        };
        match self {
            Channel::Small(c) => cancel(&c.send),
            Channel::Large(c) => cancel(&c.send),
            // Remote sends complete eagerly at post time.
            Channel::Remote(_) => CancelOutcome::Completed,
        }
    }

    /// Try to withdraw the posted receive with sequence `seq` (newest-only,
    /// as for [`Channel::try_cancel_send`]). For rendezvous channels the
    /// buffer may already be exposed to the sender; the envelope CAS decides
    /// the race, and `InFlight` means the sender won — the caller must
    /// finish the receive normally before reusing the buffer. A chunked
    /// remote receive withdraws cleanly even mid-stream: the rest of its
    /// frame train is discarded from the wire before any later post on the
    /// tag is matched.
    ///
    /// Must be called from the receiver thread.
    pub fn try_cancel_recv(&self, seq: u64) -> CancelOutcome {
        match self {
            // SAFETY (all arms): receiver-side cell, receiver thread.
            Channel::Small(c) => unsafe {
                c.recv.with(|s| {
                    if seq < s.completed {
                        return CancelOutcome::Completed;
                    }
                    if seq + 1 == s.next_seq && !s.pending.is_empty() {
                        s.pending.pop_back();
                        s.next_seq -= 1;
                        return CancelOutcome::Canceled;
                    }
                    CancelOutcome::InFlight
                })
            },
            Channel::Large(c) => unsafe {
                c.recv.with(|s| {
                    if seq < s.completed {
                        return CancelOutcome::Completed;
                    }
                    if seq + 1 != s.next_seq || s.pending.is_empty() {
                        return CancelOutcome::InFlight;
                    }
                    // The newest pending op is ours; if its buffer is in the
                    // envelope queue, race the sender for it.
                    if let Some(t) = s.pending.back().and_then(|p| p.ticket) {
                        if !c.env.try_cancel(t) {
                            return CancelOutcome::InFlight; // sender is filling
                        }
                    }
                    s.pending.pop_back();
                    s.next_seq -= 1;
                    CancelOutcome::Canceled
                })
            },
            Channel::Remote(c) => unsafe {
                c.recv.with(|s| {
                    if seq < s.completed {
                        return CancelOutcome::Completed;
                    }
                    if seq + 1 != s.next_seq || s.pending.is_empty() {
                        return CancelOutcome::InFlight;
                    }
                    let p = s.pending.pop_back().unwrap();
                    s.next_seq -= 1;
                    // A chunked receive whose header already arrived is
                    // mid-stream — the sender committed the whole frame
                    // train eagerly, so the rest of it is on the wire.
                    // Count those frames and arrange for them to be
                    // discarded: a stale chunk matching (and corrupting) a
                    // later post on this tag would be a correctness leak,
                    // and waiting for the train instead would hang forever
                    // when the sender crash-stopped mid-stream.
                    if let (Some(total), Some(chunk)) = (p.total, c.rdv_chunk) {
                        let frames = (total - p.filled).div_ceil(chunk.max(1));
                        // SAFETY: receiver-side cell, receiver thread.
                        c.skip.with(|k| *k += frames);
                    }
                    CancelOutcome::Canceled
                })
            },
        }
    }

    /// Messages currently buffered inside the channel (diagnostics-only;
    /// reads atomics, never the side cells, so it is safe from any thread).
    pub fn occupancy(&self) -> usize {
        match self {
            Channel::Small(c) => c.pbq.occupancy(),
            Channel::Large(c) => c.env.in_flight(),
            Channel::Remote(_) => 0, // buffered in the transport's inbox
        }
    }
}

/// Push as many pending receive buffers as possible into the envelope queue,
/// in order. (Receiver-side helper; called with the recv `InFlight` borrowed.)
fn post_envelopes(env: &EnvelopeQueue, s: &mut InFlight<PendingRecv>) {
    for p in s.pending.iter_mut() {
        if p.ticket.is_some() {
            continue;
        }
        // SAFETY: buffer validity per `Channel::post_recv` contract.
        match unsafe { env.try_post(p.ptr, p.cap) } {
            Some(t) => p.ticket = Some(t),
            None => break, // keep order: later posts must wait too
        }
    }
}

/// Where the runtime decides which channel kind a key needs.
pub struct ChannelFactoryCfg {
    /// PBQ threshold in bytes (paper default 8 KiB).
    pub small_msg_max: usize,
    /// Slots per PBQ.
    pub pbq_slots: usize,
    /// Envelope slots per rendezvous channel.
    pub env_slots: usize,
}

/// The global (per run) channel table: maps keys to live channels.
pub struct ChannelTable {
    map: RwLock<HashMap<ChannelKey, Arc<Channel>>>,
}

impl ChannelTable {
    /// Empty table.
    pub fn new() -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
        }
    }

    /// Fetch the channel for `key`, creating it on demand.
    ///
    /// `src_node`/`dst_node` are the nodes of the endpoint ranks;
    /// `src_local`/`dst_local` their within-node thread indices.
    pub fn get_or_create(
        &self,
        key: ChannelKey,
        cfg: &ChannelFactoryCfg,
        src_node: usize,
        dst_node: usize,
        src_local: usize,
        dst_local: usize,
    ) -> Arc<Channel> {
        if let Some(ch) = self.map.read().get(&key) {
            return Arc::clone(ch);
        }
        let mut w = self.map.write();
        Arc::clone(w.entry(key).or_insert_with(|| {
            Arc::new(if src_node != dst_node {
                Channel::Remote(RemoteChannel {
                    src_node,
                    dst_node,
                    wire: WireTag::p2p(src_local, dst_local, key.tag),
                    rdv_chunk: (key.bytes > cfg.small_msg_max as u64)
                        .then_some(cfg.small_msg_max.max(1)),
                    recv: SideCell::new(InFlight::default()),
                    skip: SideCell::new(0),
                })
            } else if key.bytes <= cfg.small_msg_max as u64 {
                Channel::Small(SmallChannel {
                    pbq: PureBufferQueue::new(cfg.pbq_slots, key.bytes as usize),
                    send: SideCell::new(InFlight::default()),
                    recv: SideCell::new(InFlight::default()),
                })
            } else {
                Channel::Large(LargeChannel {
                    env: EnvelopeQueue::new(cfg.env_slots),
                    send: SideCell::new(InFlight::default()),
                    recv: SideCell::new(InFlight::default()),
                })
            })
        }))
    }

    /// Number of live channels (diagnostics).
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when no channel has been created yet.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// `(channels created, channels with buffered messages)` for the
    /// diagnostic dump. Uses atomics only, so it is safe while ranks are
    /// wedged mid-operation.
    pub fn occupancy_summary(&self) -> (usize, usize) {
        let map = self.map.read();
        let occupied = map.values().filter(|ch| ch.occupancy() > 0).count();
        (map.len(), occupied)
    }
}

impl Default for ChannelTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Cluster, NetConfig};

    fn test_cfg() -> ChannelFactoryCfg {
        ChannelFactoryCfg {
            small_msg_max: 64,
            pbq_slots: 4,
            env_slots: 4,
        }
    }

    fn key(bytes: u64) -> ChannelKey {
        ChannelKey {
            comm_id: 0,
            src: 0,
            dst: 1,
            tag: 5,
            bytes,
        }
    }

    fn ep() -> NodeEndpoint {
        Cluster::new(1, NetConfig::default()).endpoint(0)
    }

    #[test]
    fn factory_selects_protocol_by_size_and_placement() {
        let t = ChannelTable::new();
        let cfg = test_cfg();
        let small = t.get_or_create(key(64), &cfg, 0, 0, 0, 1);
        assert!(matches!(&*small, Channel::Small(_)));
        let large = t.get_or_create(key(65), &cfg, 0, 0, 0, 1);
        assert!(matches!(&*large, Channel::Large(_)));
        let remote = t.get_or_create(key(4), &cfg, 0, 1, 0, 0);
        assert!(matches!(&*remote, Channel::Remote(_)));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn table_returns_same_channel_for_same_key() {
        let t = ChannelTable::new();
        let cfg = test_cfg();
        let a = t.get_or_create(key(8), &cfg, 0, 0, 0, 1);
        let b = t.get_or_create(key(8), &cfg, 0, 0, 0, 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn small_channel_send_recv_in_order() {
        let t = ChannelTable::new();
        let cfg = test_cfg();
        let ch = t.get_or_create(key(4), &cfg, 0, 0, 0, 1);
        let ep = ep();
        let a = 11u32.to_le_bytes();
        let b = 22u32.to_le_bytes();
        // SAFETY: buffers outlive the flush below (single-threaded test).
        unsafe {
            ch.post_send(&ep, a.as_ptr(), 4);
            ch.post_send(&ep, b.as_ptr(), 4);
        }
        assert!(ch.try_flush_sends(&ep, 2));
        let mut ra = [0u8; 4];
        let mut rb = [0u8; 4];
        // SAFETY: buffers outlive completion.
        let (s1, s2) = unsafe {
            (
                ch.post_recv(ra.as_mut_ptr(), 4),
                ch.post_recv(rb.as_mut_ptr(), 4),
            )
        };
        // Waiting for the *second* must deliver the first in order too.
        assert!(ch.try_complete_recvs(&ep, s2 + 1).unwrap());
        assert!(ch.try_complete_recvs(&ep, s1 + 1).unwrap());
        assert_eq!(u32::from_le_bytes(ra), 11);
        assert_eq!(u32::from_le_bytes(rb), 22);
    }

    #[test]
    fn large_channel_rendezvous_single_copy() {
        let t = ChannelTable::new();
        let cfg = test_cfg();
        let ch = t.get_or_create(key(128), &cfg, 0, 0, 0, 1);
        let ep = ep();
        let payload = vec![0xabu8; 128];
        let mut out = vec![0u8; 128];
        // Receiver first (rendezvous): post buffer, then sender fills.
        // SAFETY: buffers outlive completion (single-threaded test).
        let r = unsafe { ch.post_recv(out.as_mut_ptr(), 128) };
        assert!(
            !ch.try_complete_recvs(&ep, r + 1).unwrap(),
            "nothing sent yet"
        );
        // SAFETY: payload outlives flush.
        unsafe { ch.post_send(&ep, payload.as_ptr(), 128) };
        assert!(ch.try_flush_sends(&ep, 1));
        assert!(ch.try_complete_recvs(&ep, r + 1).unwrap());
        assert_eq!(out, payload);
    }

    #[test]
    fn large_channel_sender_first_defers() {
        let t = ChannelTable::new();
        let cfg = test_cfg();
        let ch = t.get_or_create(key(100), &cfg, 0, 0, 0, 1);
        let ep = ep();
        let payload = vec![7u8; 100];
        // SAFETY: payload outlives the flush attempts below.
        unsafe { ch.post_send(&ep, payload.as_ptr(), 100) };
        assert!(
            !ch.try_flush_sends(&ep, 1),
            "no receiver posted: rendezvous waits"
        );
        let mut out = vec![0u8; 100];
        // SAFETY: out outlives completion.
        let r = unsafe { ch.post_recv(out.as_mut_ptr(), 100) };
        assert!(
            ch.try_flush_sends(&ep, 1),
            "receiver arrived: copy proceeds"
        );
        assert!(ch.try_complete_recvs(&ep, r + 1).unwrap());
        assert_eq!(out, payload);
    }

    #[test]
    fn remote_channel_end_to_end() {
        let cluster = Cluster::new(2, NetConfig::default());
        let ep0 = cluster.endpoint(0);
        let ep1 = cluster.endpoint(1);
        let t = ChannelTable::new();
        let cfg = test_cfg();
        let ch = t.get_or_create(key(4), &cfg, 0, 1, 0, 0);
        let data = 99u32.to_le_bytes();
        // SAFETY: remote sends complete immediately (transport copies).
        unsafe { ch.post_send(&ep0, data.as_ptr(), 4) };
        let mut out = [0u8; 4];
        // SAFETY: out outlives completion.
        let r = unsafe { ch.post_recv(out.as_mut_ptr(), 4) };
        assert!(ch.try_complete_recvs(&ep1, r + 1).unwrap());
        assert_eq!(u32::from_le_bytes(out), 99);
    }

    #[test]
    fn remote_channel_chunked_rendezvous_reassembles() {
        let cluster = Cluster::new(2, NetConfig::default());
        let ep0 = cluster.endpoint(0);
        let ep1 = cluster.endpoint(1);
        let t = ChannelTable::new();
        let cfg = test_cfg(); // small_msg_max = 64
        let ch = t.get_or_create(key(1000), &cfg, 0, 1, 0, 0);
        match &*ch {
            Channel::Remote(c) => assert_eq!(c.rdv_chunk, Some(64)),
            _ => panic!("cross-node key must map to a remote channel"),
        }
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let mut out = vec![0u8; 1000];
        // Queue-free shortcut must decline: assembly needs bookkeeping.
        // SAFETY: buffers outlive the calls (single-threaded test).
        unsafe {
            assert!(!ch.try_recv_now(&ep1, out.as_mut_ptr(), 1000).unwrap());
            ch.post_send(&ep0, data.as_ptr(), 1000);
            let r = ch.post_recv(out.as_mut_ptr(), 1000);
            // Header + 16 chunks are already in flight: one call reassembles.
            assert!(ch.try_complete_recvs(&ep1, r + 1).unwrap());
        }
        assert_eq!(out, data);
        // Two back-to-back messages stay ordered (FIFO per wire tag).
        let mut o1 = vec![0u8; 1000];
        let mut o2 = vec![0u8; 1000];
        let rev: Vec<u8> = data.iter().rev().copied().collect();
        // SAFETY: as above.
        unsafe {
            ch.post_send(&ep0, data.as_ptr(), 1000);
            ch.post_send(&ep0, rev.as_ptr(), 1000);
            ch.post_recv(o1.as_mut_ptr(), 1000);
            let r2 = ch.post_recv(o2.as_mut_ptr(), 1000);
            assert!(ch.try_complete_recvs(&ep1, r2 + 1).unwrap());
        }
        assert_eq!(o1, data);
        assert_eq!(o2, rev);
    }

    /// Adversarial cancel-leak regression: withdrawing a chunked remote
    /// receive *mid-stream* (header consumed, body partially landed) must
    /// (a) succeed — a crash-stopped sender would otherwise pin the
    /// receiver in `recv_timeout` forever — and (b) discard the rest of
    /// the stale frame train, so it can never match (and corrupt) a later
    /// post on the same tag.
    #[test]
    fn chunked_cancel_mid_stream_discards_stale_frames() {
        let cluster = Cluster::new(2, NetConfig::default());
        let ep0 = cluster.endpoint(0);
        let ep1 = cluster.endpoint(1);
        let t = ChannelTable::new();
        let cfg = test_cfg(); // small_msg_max = 64 -> 16 frames per 1000 B
        let ch = t.get_or_create(key(1000), &cfg, 0, 1, 0, 0);
        let wire = match &*ch {
            Channel::Remote(c) => c.wire,
            _ => panic!("cross-node key must map to a remote channel"),
        };
        // The adversary ships the header and only 3 of 16 chunks, then
        // goes quiet (a crash-stop mid-stream looks exactly like this).
        let stale: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        ep0.send(1, wire, &rdv_header(1000));
        for c in stale.chunks(64).take(3) {
            ep0.send(1, wire, c);
        }
        let mut out = vec![0u8; 1000];
        // SAFETY: buffers outlive the calls (single-threaded test).
        unsafe {
            let r = ch.post_recv(out.as_mut_ptr(), 1000);
            assert!(
                !ch.try_complete_recvs(&ep1, r + 1).unwrap(),
                "stream is mid-flight: must not complete"
            );
            // Withdraw mid-stream: previously impossible (InFlight), which
            // meant waiting forever on a dead sender.
            assert_eq!(ch.try_cancel_recv(r), CancelOutcome::Canceled);
            // The sender's remaining 13 frames straggle in late...
            for c in stale.chunks(64).skip(3) {
                ep0.send(1, wire, c);
            }
            // ...followed by a fresh message from a healthy sender.
            let fresh: Vec<u8> = (0..1000u32).map(|i| (i % 13) as u8).collect();
            ch.post_send(&ep0, fresh.as_ptr(), 1000);
            let mut out2 = vec![0u8; 1000];
            let r2 = ch.post_recv(out2.as_mut_ptr(), 1000);
            assert!(
                ch.try_complete_recvs(&ep1, r2 + 1).unwrap(),
                "fresh post must complete past the discarded stale train"
            );
            assert_eq!(out2, fresh, "stale chunks bled into a later receive");
        }
    }

    /// A cross-node size mismatch (the wire tag does not encode the byte
    /// count, so a mismatched sender shares it) must surface as a structured
    /// [`RecvOverrun`] the caller can escalate as `PureError::Truncation` —
    /// not as a bare assert.
    #[test]
    fn remote_oversize_reports_overrun_instead_of_asserting() {
        let cluster = Cluster::new(2, NetConfig::default());
        let ep0 = cluster.endpoint(0);
        let ep1 = cluster.endpoint(1);
        let t = ChannelTable::new();
        let cfg = test_cfg(); // small_msg_max = 64
                              // Chunked channel: a header announcing more than the posted cap.
        let ch = t.get_or_create(key(1000), &cfg, 0, 1, 0, 0);
        let wire = match &*ch {
            Channel::Remote(c) => c.wire,
            _ => panic!("cross-node key must map to a remote channel"),
        };
        ep0.send(1, wire, &rdv_header(4096));
        let mut out = vec![0u8; 1000];
        // SAFETY: out outlives the call (single-threaded test).
        let r = unsafe { ch.post_recv(out.as_mut_ptr(), 1000) };
        assert_eq!(
            ch.try_complete_recvs(&ep1, r + 1),
            Err(RecvOverrun {
                sent: 4096,
                capacity: 1000
            })
        );
        // Eager channel: an oversize frame on the fast path.
        let ch2 = t.get_or_create(ChannelKey { tag: 6, ..key(8) }, &cfg, 0, 1, 0, 0);
        let wire2 = match &*ch2 {
            Channel::Remote(c) => c.wire,
            _ => unreachable!(),
        };
        ep0.send(1, wire2, &[0u8; 64]);
        let mut small = [0u8; 8];
        // SAFETY: small outlives the call.
        let got = unsafe { ch2.try_recv_now(&ep1, small.as_mut_ptr(), 8) };
        assert_eq!(
            got,
            Err(RecvOverrun {
                sent: 64,
                capacity: 8
            })
        );
    }

    #[test]
    fn pbq_backpressure_defers_send_completion() {
        let t = ChannelTable::new();
        let cfg = test_cfg(); // 4 PBQ slots
        let ch = t.get_or_create(key(4), &cfg, 0, 0, 0, 1);
        let ep = ep();
        let data = [1u8, 2, 3, 4];
        // 4 sends fill the queue; the 5th must stay pending.
        for _ in 0..5 {
            // SAFETY: data outlives the flush calls in this test.
            unsafe { ch.post_send(&ep, data.as_ptr(), 4) };
        }
        assert!(ch.try_flush_sends(&ep, 4));
        assert!(!ch.try_flush_sends(&ep, 5), "queue full: 5th send pending");
        let mut out = [0u8; 4];
        // SAFETY: out used synchronously below.
        let r = unsafe { ch.post_recv(out.as_mut_ptr(), 4) };
        assert!(ch.try_complete_recvs(&ep, r + 1).unwrap());
        assert!(
            ch.try_flush_sends(&ep, 5),
            "slot freed: pending send flushes"
        );
    }
}
