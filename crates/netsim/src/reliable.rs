//! Sequence-numbered reliable delivery over the (possibly faulty) raw
//! transport.
//!
//! When a [`crate::FaultPlan`] is configured, every data frame — a jumbo
//! carrying one or more subframes, see [`crate::coalesce`] — is wrapped with
//! an 8-byte little-endian sequence number, per *link*. There is one link
//! per ordered node pair: thread ids and user tags ride inside the subframe
//! headers, as the paper runs one MPI FIFO per node pair with the thread ids
//! in the tag. The receiver acknowledges with
//! **cumulative** ACKs (the next sequence it expects, TCP-style — a per-frame
//! ACK scheme would lose a dropped frame 4 once frame 5 was acknowledged),
//! deduplicates replays and reorders stashed out-of-order arrivals. The
//! sender keeps unacknowledged frames and retransmits the oldest one on an
//! exponential backoff timer.
//!
//! Since the zero-copy rework every data frame is born in a pooled
//! [`FrameBuf`] with [`SEQ_HEADER_BYTES`] of zeroed front headroom;
//! [`TxState::stage`] patches the sequence number in place and freezes the
//! buffer into a refcounted [`FrameSlice`], so the retransmit queue holds
//! refcounts — never byte clones — and a retransmit is a refcount bump.
//!
//! The state machines here are plain data; the [`crate::NodeEndpoint`]
//! integration (who pumps what and when) lives in `transport.rs`. ACK frames
//! travel on the link tag's mirror (class bit [`crate::tag::CLASS_ACK_BIT`])
//! so they never match application receives.

use std::collections::{BTreeMap, VecDeque};

use crate::pool::{FrameBuf, FrameSlice};

/// Bytes of sequence header prepended to every reliable data frame.
pub const SEQ_HEADER_BYTES: usize = 8;

/// Initial retransmit backoff (ns). Chosen well above the default modeled
/// network latency so the first retransmit is almost always a real loss.
pub const BASE_BACKOFF_NS: u64 = 200_000;

/// Backoff ceiling (ns).
pub const MAX_BACKOFF_NS: u64 = 5_000_000;

/// Batched-ACK count watermark: an ACK frame goes out once this many new
/// in-order frames have accumulated since the last ACK.
pub const ACK_BATCH: u64 = 8;

/// Batched-ACK age watermark (ns): unacknowledged progress older than this
/// flushes even below the count watermark. Kept well under
/// [`BASE_BACKOFF_NS`] so batching never provokes a spurious retransmit.
pub const ACK_DELAY_NS: u64 = 50_000;

/// Split a reliable frame into `(seq, payload slice)`. The payload is a
/// zero-copy subview of the same pooled slab.
pub fn deframe(f: &FrameSlice) -> (u64, FrameSlice) {
    if f.len() < SEQ_HEADER_BYTES {
        crate::die_invariant("reliable frame shorter than its sequence header");
    }
    let mut hdr = [0u8; SEQ_HEADER_BYTES];
    hdr.copy_from_slice(&f[..SEQ_HEADER_BYTES]);
    (u64::from_le_bytes(hdr), f.slice_from(SEQ_HEADER_BYTES))
}

/// Sender half of one reliable link.
pub struct TxState {
    /// Sequence number the next new frame receives.
    pub next_seq: u64,
    /// Frames `< acked` are confirmed delivered (cumulative).
    pub acked: u64,
    /// Unacknowledged frames, oldest first, already framed. Each entry is a
    /// refcount on the pooled slab, shared with whatever copy is in flight.
    pub outstanding: VecDeque<(u64, FrameSlice)>,
    /// Absolute (ns since cluster birth) deadline of the next retransmit;
    /// 0 when nothing is outstanding.
    pub next_retx_ns: u64,
    /// Current backoff interval (ns), doubled per retransmit.
    pub backoff_ns: u64,
}

impl TxState {
    /// Fresh link state.
    pub fn new() -> Self {
        Self {
            next_seq: 0,
            acked: 0,
            outstanding: VecDeque::new(),
            next_retx_ns: 0,
            backoff_ns: BASE_BACKOFF_NS,
        }
    }

    /// Register a new frame for transmission. `buf` must carry
    /// [`SEQ_HEADER_BYTES`] of reserved front headroom (every pooled data
    /// frame does); the sequence number is patched into it in place, the
    /// buffer frozen, and a refcounted copy retained for retransmission.
    pub fn stage(&mut self, mut buf: FrameBuf, now_ns: u64) -> FrameSlice {
        let seq = self.next_seq;
        self.next_seq += 1;
        buf.write_u64_at(0, seq);
        let f = buf.freeze();
        self.outstanding.push_back((seq, f.clone()));
        if self.next_retx_ns == 0 {
            self.next_retx_ns = now_ns + self.backoff_ns;
        }
        f
    }

    /// Apply a cumulative ACK (monotone; stale ACKs are harmless).
    pub fn on_ack(&mut self, ack: u64) {
        if ack > self.acked {
            self.acked = ack;
            while self.outstanding.front().is_some_and(|(s, _)| *s < ack) {
                self.outstanding.pop_front();
            }
            // Progress happened: reset the backoff clock for what remains.
            self.backoff_ns = BASE_BACKOFF_NS;
            self.next_retx_ns = 0;
        }
        if self.outstanding.is_empty() {
            self.next_retx_ns = 0;
            self.backoff_ns = BASE_BACKOFF_NS;
        }
    }

    /// If a retransmit is due at `now_ns`, return the oldest unacked frame
    /// (a refcount bump, not a copy) and advance the backoff timer.
    pub fn due_retransmit(&mut self, now_ns: u64) -> Option<FrameSlice> {
        let (_, f) = self.outstanding.front()?;
        if self.next_retx_ns == 0 {
            self.next_retx_ns = now_ns + self.backoff_ns;
            return None;
        }
        if now_ns < self.next_retx_ns {
            return None;
        }
        let f = f.clone();
        self.backoff_ns = (self.backoff_ns * 2).min(MAX_BACKOFF_NS);
        self.next_retx_ns = now_ns + self.backoff_ns;
        Some(f)
    }
}

impl Default for TxState {
    fn default() -> Self {
        Self::new()
    }
}

/// Receiver half of one reliable link.
#[derive(Default)]
pub struct RxState {
    /// Next in-order sequence expected (doubles as the cumulative ACK value).
    pub expected: u64,
    /// Cumulative ACK value most recently sent to the peer.
    pub acked: u64,
    /// When the oldest not-yet-acknowledged progress was made (ns since
    /// cluster birth); 0 while `acked == expected`.
    ack_pending_ns: u64,
    /// Out-of-order arrivals parked until the gap closes.
    stash: BTreeMap<u64, FrameSlice>,
    /// In-order payloads not yet handed to the application.
    ready: VecDeque<FrameSlice>,
}

impl RxState {
    /// Ingest one arriving frame: deliver in order, stash ahead-of-order,
    /// discard duplicates. Returns `true` if the frame was new (not a dup).
    pub fn accept(&mut self, seq: u64, payload: FrameSlice) -> bool {
        if seq < self.expected || self.stash.contains_key(&seq) {
            return false; // replay of something already delivered/stashed
        }
        if seq == self.expected {
            self.ready.push_back(payload);
            self.expected += 1;
            while let Some(p) = self.stash.remove(&self.expected) {
                self.ready.push_back(p);
                self.expected += 1;
            }
        } else {
            self.stash.insert(seq, payload);
        }
        true
    }

    /// Next in-order payload, if any.
    pub fn pop_ready(&mut self) -> Option<FrameSlice> {
        self.ready.pop_front()
    }

    /// Payloads delivered in order but not yet consumed.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Out-of-order frames parked in the stash.
    pub fn stashed(&self) -> usize {
        self.stash.len()
    }

    /// Drop every parked payload (stash + ready), releasing their slabs.
    pub fn purge(&mut self) {
        self.stash.clear();
        self.ready.clear();
    }

    /// Batched-ACK decision: if an ACK frame should go out now, return
    /// `(cumulative ack value, frames newly covered)` and mark it sent.
    ///
    /// An ACK is due when `saw_dup` (a duplicate arrival usually means the
    /// peer lost our last ACK and is retransmitting — answer immediately),
    /// when [`ACK_BATCH`] new in-order frames accumulated, or when pending
    /// progress is older than [`ACK_DELAY_NS`]. Otherwise the ACK stays
    /// batched and `None` is returned.
    pub fn ack_due(&mut self, now_ns: u64, saw_dup: bool) -> Option<(u64, u64)> {
        if self.expected > self.acked && self.ack_pending_ns == 0 {
            self.ack_pending_ns = now_ns;
        }
        let newly = self.expected - self.acked;
        if saw_dup
            || newly >= ACK_BATCH
            || (newly > 0 && now_ns.saturating_sub(self.ack_pending_ns) >= ACK_DELAY_NS)
        {
            self.acked = self.expected;
            self.ack_pending_ns = 0;
            Some((self.expected, newly))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::FramePool;
    use std::sync::Arc;

    /// Build an unstaged data frame: zeroed seq headroom + payload.
    fn draft(pool: &Arc<FramePool>, payload: &[u8]) -> FrameBuf {
        let mut b = pool.acquire(SEQ_HEADER_BYTES + payload.len());
        b.extend_from_slice(&[0u8; SEQ_HEADER_BYTES]);
        b.extend_from_slice(payload);
        b
    }

    fn pooled(pool: &Arc<FramePool>, payload: &[u8]) -> FrameSlice {
        pool.pooled(payload)
    }

    #[test]
    fn stage_patches_seq_and_deframe_recovers_payload() {
        let pool = FramePool::new();
        let mut tx = TxState::new();
        for expect in 0..3u64 {
            let f = tx.stage(draft(&pool, b"payload"), 0);
            let (seq, p) = deframe(&f);
            assert_eq!(seq, expect);
            assert_eq!(p, b"payload"[..]);
        }
    }

    #[test]
    fn rx_delivers_in_order_despite_reorder_and_dups() {
        let pool = FramePool::new();
        let mut rx = RxState::default();
        assert!(rx.accept(1, pooled(&pool, &[1]))); // ahead: stashed
        assert!(rx.pop_ready().is_none());
        assert!(rx.accept(0, pooled(&pool, &[0]))); // gap closes: both deliver
        assert_eq!(rx.pop_ready().unwrap(), [0][..]);
        assert_eq!(rx.pop_ready().unwrap(), [1][..]);
        assert!(!rx.accept(0, pooled(&pool, &[0])), "replay is a dup");
        assert!(!rx.accept(1, pooled(&pool, &[1])), "replay is a dup");
        assert_eq!(rx.expected, 2);
    }

    #[test]
    fn cumulative_ack_retires_all_older_frames_and_their_slabs() {
        let pool = FramePool::new();
        let mut tx = TxState::new();
        for i in 0..5u8 {
            drop(tx.stage(draft(&pool, &[i]), 0));
        }
        assert_eq!(tx.outstanding.len(), 5);
        assert_eq!(pool.snapshot().outstanding(), 5, "retx queue pins slabs");
        tx.on_ack(3);
        assert_eq!(tx.outstanding.len(), 2);
        assert_eq!(tx.outstanding.front().unwrap().0, 3);
        assert_eq!(pool.snapshot().outstanding(), 2, "acked slabs recycled");
        tx.on_ack(2); // stale: ignored
        assert_eq!(tx.acked, 3);
        tx.on_ack(5);
        assert!(tx.outstanding.is_empty());
        assert_eq!(tx.next_retx_ns, 0);
        assert_eq!(pool.snapshot().outstanding(), 0);
    }

    #[test]
    fn acks_batch_until_count_age_or_dup() {
        let pool = FramePool::new();
        let mut rx = RxState::default();
        // Below both watermarks: no ACK yet.
        for i in 0..ACK_BATCH - 1 {
            assert!(rx.accept(i, pooled(&pool, &[])));
        }
        assert_eq!(rx.ack_due(1_000, false), None);
        // Count watermark trips; all pending frames covered by one ACK.
        assert!(rx.accept(ACK_BATCH - 1, pooled(&pool, &[])));
        assert_eq!(rx.ack_due(1_100, false), Some((ACK_BATCH, ACK_BATCH)));
        assert_eq!(rx.ack_due(1_200, false), None, "nothing newly pending");
        // Age watermark: one lone frame flushes once it is old enough.
        assert!(rx.accept(ACK_BATCH, pooled(&pool, &[])));
        assert_eq!(rx.ack_due(2_000, false), None);
        assert_eq!(
            rx.ack_due(2_000 + ACK_DELAY_NS, false),
            Some((ACK_BATCH + 1, 1))
        );
        // A duplicate forces an immediate re-ACK even with nothing new.
        assert!(!rx.accept(0, pooled(&pool, &[])), "replay is a dup");
        assert_eq!(
            rx.ack_due(2_100 + ACK_DELAY_NS, true),
            Some((ACK_BATCH + 1, 0))
        );
    }

    #[test]
    fn retransmit_backs_off_exponentially_without_copying() {
        let pool = FramePool::new();
        let mut tx = TxState::new();
        drop(tx.stage(draft(&pool, b"x"), 1_000));
        assert!(tx.due_retransmit(1_000).is_none(), "not due yet");
        let due_at = 1_000 + BASE_BACKOFF_NS;
        let retx = tx.due_retransmit(due_at).unwrap();
        assert_eq!(tx.backoff_ns, 2 * BASE_BACKOFF_NS);
        assert_eq!(
            pool.snapshot().outstanding(),
            1,
            "retransmit shares the queued slab instead of cloning bytes"
        );
        drop(retx);
        assert!(
            tx.due_retransmit(due_at + BASE_BACKOFF_NS).is_none(),
            "backoff doubled: next retry is further out"
        );
        assert!(tx.due_retransmit(due_at + 2 * BASE_BACKOFF_NS).is_some());
    }
}
