//! Outbound frame coalescing: packing many small cross-node frames bound
//! for the same peer node into one jumbo frame.
//!
//! Cross-node traffic in Pure is dominated by small leader exchanges
//! (collective phases, envelopes); paying a full per-frame transport cost —
//! and, in fault mode, a full reliable-sublayer sequence slot — for every
//! 8-byte payload is where a real progress engine spends its batching
//! effort (NCCL proxy threads, MPI progress engines). The engine buffers
//! eligible frames per destination node and puts the buffer on the wire as
//! one jumbo frame on the first of four triggers:
//!
//! 1. **count** — [`CoalescePlan::max_frames`] subframes are buffered;
//! 2. **size** — the jumbo payload reached [`CoalescePlan::max_bytes`];
//! 3. **the sender blocks** — the rank that buffered the subframes polls
//!    for something and finds nothing (a `try_recv` miss, a fruitless poll
//!    of any blocking wait) once the oldest of them has lingered 20 µs:
//!    it has nothing more to add, so waiting out the age watermark would
//!    only add latency ([`crate::NodeEndpoint::flush_sent`]);
//! 4. **age** — the oldest subframe is [`CoalescePlan::flush_ns`] old when
//!    some progress tick on the node looks. This is only the backstop for a
//!    rank that computes after a non-blocking send without ever blocking.
//!
//! Triggers 1 and 2 keep bursts packed; trigger 3 keeps a lone message from
//! paying for a batch that is never coming.
//!
//! A jumbo frame is a plain concatenation of *subframes*:
//!
//! ```text
//! [encoded wire tag : 8 B LE][payload len : 4 B LE][payload ...] ...
//! ```
//!
//! The receiver's progress engine unpacks the jumbo and scatters each
//! subframe into the match store under its original `(src node, tag)` key,
//! so matching is unchanged — coalescing is invisible above the transport.
//!
//! Since the zero-copy rework the gather side writes subframe headers and
//! payloads directly into a pooled [`FrameBuf`] (the single user→wire copy)
//! and the scatter side hands out [`crate::pool::FrameSlice`] subviews of
//! the arrived jumbo — no per-subframe allocation or copy on either end.
//! Every buffer reserves [`JUMBO_HEADROOM`] front bytes so the reliable
//! sublayer can patch its sequence number in place instead of re-framing
//! the jumbo with a copy.
//!
//! With a fault plan and no coalescing plan the same buffers run with a
//! count watermark of one: every message is its own single-subframe jumbo on
//! the node pair's reliable link, and nothing here counts as coalesced.
//!
//! The policy state here is plain data; the [`crate::NodeEndpoint`]
//! integration (when buffers flush, how jumbos ride the reliable sublayer)
//! lives in `transport.rs`.

use std::ops::Range;
use std::sync::Arc;

use crate::pool::{FrameBuf, FramePool};

/// Per-subframe header: 8-byte encoded wire tag + 4-byte payload length.
pub const SUBFRAME_HEADER_BYTES: usize = 12;

/// Front bytes every jumbo buffer reserves for the reliable sublayer's
/// sequence header ([`crate::reliable::SEQ_HEADER_BYTES`]). Fault-free
/// emission slices past it; fault mode patches the sequence in place.
pub const JUMBO_HEADROOM: usize = 8;

/// Coalescing policy: watermarks deciding when an outbound buffer flushes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoalescePlan {
    /// Flush once the buffered jumbo payload reaches this many bytes.
    pub max_bytes: usize,
    /// Flush once this many subframes are buffered.
    pub max_frames: u32,
    /// Flush a non-empty buffer once its oldest subframe is this old (ns).
    /// A backstop, not the latency bound: a sender that blocks flushes its
    /// own subframes after a short fixed linger (see the module docs), so
    /// the timer only ever fires for a rank that keeps computing after a
    /// non-blocking send.
    /// Checked when a subframe joins a non-empty buffer and from
    /// `progress()` polls, so the bound is approximate — like any
    /// progress-engine timer.
    pub flush_ns: u64,
    /// Only payloads of at most this many bytes are buffered; larger ones
    /// flush the pending buffer and travel as a single-subframe jumbo
    /// immediately (keeping the whole per-peer data plane one FIFO).
    pub eligible_max: usize,
}

impl Default for CoalescePlan {
    fn default() -> Self {
        Self {
            max_bytes: 4096,
            max_frames: 8,
            flush_ns: 50_000,
            eligible_max: 1024,
        }
    }
}

/// One destination node's pending jumbo buffer: a pooled frame under
/// construction (acquired lazily on the first push after a take).
#[derive(Default)]
pub struct CoalesceBuf {
    /// Subframes being gathered; `None` between flushes.
    buf: Option<FrameBuf>,
    /// Number of subframes in `buf`.
    pub frames: u32,
    /// Arrival time (ns since cluster birth) of the oldest buffered
    /// subframe; meaningless when `frames == 0`.
    pub first_ns: u64,
}

impl CoalesceBuf {
    /// Append one subframe (`head` then `payload`, one logical payload),
    /// recording `now_ns` if the buffer was empty. Returns the payload
    /// bytes copied (the gather memcpy, for telemetry).
    pub fn push(
        &mut self,
        pool: &Arc<FramePool>,
        tag_enc: u64,
        head: &[u8],
        payload: &[u8],
        now_ns: u64,
    ) -> usize {
        if self.frames == 0 {
            self.first_ns = now_ns;
        }
        let buf = self.buf.get_or_insert_with(|| {
            let mut b =
                pool.acquire(JUMBO_HEADROOM + SUBFRAME_HEADER_BYTES + head.len() + payload.len());
            b.extend_from_slice(&[0u8; JUMBO_HEADROOM]);
            b
        });
        pack_subframe_into(buf, tag_enc, head, payload);
        self.frames += 1;
        head.len() + payload.len()
    }

    /// Buffered jumbo payload bytes (headroom excluded).
    pub fn payload_len(&self) -> usize {
        self.buf
            .as_ref()
            .map_or(0, |b| b.len().saturating_sub(JUMBO_HEADROOM))
    }

    /// True once the count or size watermark says this buffer must flush —
    /// the half of [`CoalesceBuf::due`] that needs no clock.
    pub fn full(&self, plan: &CoalescePlan) -> bool {
        self.frames > 0 && (self.frames >= plan.max_frames || self.payload_len() >= plan.max_bytes)
    }

    /// True once any watermark (count, size or age) says this buffer must
    /// flush.
    pub fn due(&self, plan: &CoalescePlan, now_ns: u64) -> bool {
        self.full(plan)
            || (self.frames > 0 && now_ns.saturating_sub(self.first_ns) >= plan.flush_ns)
    }

    /// Take the pending jumbo (headroom included), leaving the buffer empty.
    pub fn take(&mut self) -> Option<FrameBuf> {
        self.frames = 0;
        self.buf.take()
    }
}

/// Append one subframe (header + `head` + `payload`) to a pooled buffer.
pub fn pack_subframe_into(out: &mut FrameBuf, tag_enc: u64, head: &[u8], payload: &[u8]) {
    out.extend_from_slice(&tag_enc.to_le_bytes());
    out.extend_from_slice(&((head.len() + payload.len()) as u32).to_le_bytes());
    out.extend_from_slice(head);
    out.extend_from_slice(payload);
}

/// Append one subframe (header + payload) to a plain `Vec` — kept for the
/// wire-format tests.
pub fn pack_subframe(out: &mut Vec<u8>, tag_enc: u64, payload: &[u8]) {
    out.reserve(SUBFRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&tag_enc.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Iterate `(encoded tag, payload byte range)` subframes of a jumbo frame
/// in order — the allocation-free form the zero-copy scatter path uses to
/// cut [`crate::pool::FrameSlice`] subviews.
pub fn unpack_subframe_ranges(jumbo: &[u8]) -> impl Iterator<Item = (u64, Range<usize>)> + '_ {
    let mut at = 0usize;
    std::iter::from_fn(move || {
        if at == jumbo.len() {
            return None;
        }
        if jumbo.len() - at < SUBFRAME_HEADER_BYTES {
            crate::die_invariant("jumbo frame truncated inside a subframe header");
        }
        let tag_enc = u64::from_le_bytes(jumbo[at..at + 8].try_into().unwrap());
        let len = u32::from_le_bytes(jumbo[at + 8..at + 12].try_into().unwrap()) as usize;
        at += SUBFRAME_HEADER_BYTES;
        if jumbo.len() - at < len {
            crate::die_invariant("jumbo frame truncated inside a subframe payload");
        }
        let range = at..at + len;
        at += len;
        Some((tag_enc, range))
    })
}

/// Iterate `(encoded tag, payload)` subframes of a jumbo frame in order.
pub fn unpack_subframes(jumbo: &[u8]) -> impl Iterator<Item = (u64, &[u8])> {
    unpack_subframe_ranges(jumbo).map(|(tag, r)| (tag, &jumbo[r]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subframes_roundtrip_in_order() {
        let mut jumbo = Vec::new();
        pack_subframe(&mut jumbo, 7, b"alpha");
        pack_subframe(&mut jumbo, 9, b"");
        pack_subframe(&mut jumbo, 7, b"beta");
        let got: Vec<(u64, Vec<u8>)> = unpack_subframes(&jumbo)
            .map(|(t, p)| (t, p.to_vec()))
            .collect();
        assert_eq!(
            got,
            vec![
                (7, b"alpha".to_vec()),
                (9, Vec::new()),
                (7, b"beta".to_vec())
            ]
        );
    }

    #[test]
    fn pooled_gather_matches_vec_packing_and_reserves_headroom() {
        let pool = FramePool::new();
        let mut b = CoalesceBuf::default();
        b.push(&pool, 7, &[], b"alpha", 0);
        b.push(&pool, 9, b"he", b"ad+body", 0);
        let frame = b.take().unwrap().freeze();
        assert!(frame[..JUMBO_HEADROOM].iter().all(|&x| x == 0));
        let mut expect = Vec::new();
        pack_subframe(&mut expect, 7, b"alpha");
        pack_subframe(&mut expect, 9, b"head+body");
        assert_eq!(&frame[JUMBO_HEADROOM..], &expect[..]);
        // Scatter: ranges cut zero-copy subslices of the pooled jumbo.
        let body = frame.slice_from(JUMBO_HEADROOM);
        let subs: Vec<(u64, Vec<u8>)> = unpack_subframe_ranges(&body)
            .map(|(t, r)| (t, body.slice(r).to_vec()))
            .collect();
        assert_eq!(
            subs,
            vec![(7, b"alpha".to_vec()), (9, b"head+body".to_vec())]
        );
    }

    #[test]
    fn buffer_flushes_on_count_size_or_age() {
        let pool = FramePool::new();
        let plan = CoalescePlan {
            max_bytes: 64,
            max_frames: 3,
            flush_ns: 1_000,
            eligible_max: 1024,
        };
        let mut b = CoalesceBuf::default();
        assert!(!b.due(&plan, 0), "empty buffer never due");
        b.push(&pool, 1, &[], &[0u8; 4], 100);
        assert!(!b.due(&plan, 100));
        // Count watermark.
        b.push(&pool, 1, &[], &[0u8; 4], 110);
        b.push(&pool, 1, &[], &[0u8; 4], 120);
        assert!(b.due(&plan, 120));
        let jumbo = b.take().unwrap().freeze();
        assert_eq!(unpack_subframes(&jumbo[JUMBO_HEADROOM..]).count(), 3);
        assert!(!b.due(&plan, 120), "take resets the buffer");
        // Size watermark.
        b.push(&pool, 2, &[], &[0u8; 60], 200);
        assert!(b.due(&plan, 200));
        b.take();
        // Age watermark.
        b.push(&pool, 3, &[], &[0u8; 1], 300);
        assert!(!b.due(&plan, 500));
        assert!(b.due(&plan, 1_300));
        // Each take's slab returns to the pool when its last view drops;
        // only the first jumbo (still bound above) remains outstanding.
        drop(b.take());
        assert_eq!(pool.snapshot().outstanding(), 1, "one frozen jumbo live");
        drop(jumbo);
        assert_eq!(pool.snapshot().outstanding(), 0, "all slabs recycled");
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_jumbo_dies_loudly() {
        let mut jumbo = Vec::new();
        pack_subframe(&mut jumbo, 5, b"abcdef");
        jumbo.truncate(jumbo.len() - 2);
        let _ = unpack_subframes(&jumbo).count();
    }
}
