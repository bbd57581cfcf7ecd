//! The **PureBufferQueue (PBQ)** — §4.1.1.
//!
//! A lock-free single-producer/single-consumer circular buffer of fixed-size
//! message slots used for *short* intra-node messages. The protocol is the
//! paper's two-copy buffered scheme: the sender copies the payload into a
//! slot, the receiver copies it out. The head and tail indices use
//! acquire/release ordering; every slot starts on a cacheline boundary so the
//! writing sender and reading receiver never false-share; the whole payload
//! area is one contiguous allocation (§4.1.1: "a single contiguous buffer
//! that stores all message slots ... simple pointer arithmetic to align each
//! slot to cacheline boundaries").
//!
//! ## Cached indices
//!
//! Each side keeps a private cache of the *other* side's index (Torquati,
//! TR-10-20): the producer caches the last head it observed, the consumer the
//! last tail. The cache is a conservative lower bound — refreshing it can
//! only reveal *more* room / *more* messages — so each side reloads the
//! shared counter only when the cached value implies full/empty. In the
//! common case an operation therefore touches a single shared cacheline (its
//! own index) instead of two, eliminating the coherence ping-pong between
//! sender and receiver cores.
//!
//! ## Batched operations
//!
//! [`try_send_batch`](PureBufferQueue::try_send_batch) and
//! [`try_recv_batch`](PureBufferQueue::try_recv_batch) move several messages
//! per acquire/release pair: one index load up front, one release store after
//! the last slot is written/read. The channel manager uses them to drain its
//! pending queues with a single publication per poll.

use interleave::cell::{Cell, RaceZone};
use interleave::sync::atomic::{AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

use crate::telemetry::{self, Counter};
use crate::util::cache::{AlignedBytes, CACHE_LINE};

/// Slot header: the actual byte length of the message in the slot.
/// Synchronized by the head/tail acquire-release protocol, so a plain
/// (non-atomic) field accessed through raw pointers is sound.
const HEADER_BYTES: usize = std::mem::size_of::<usize>();

/// A lock-free SPSC bounded queue of byte messages with cacheline-aligned
/// slots.
///
/// Exactly one thread may send and exactly one thread may receive; the
/// channel manager enforces this (channels are keyed by sender and receiver
/// rank).
pub struct PureBufferQueue {
    /// Contiguous 64B-aligned storage for all slots.
    storage: AlignedBytes,
    /// Slot stride in cachelines.
    stride_lines: usize,
    /// Max payload bytes per slot.
    capacity: usize,
    /// Number of slots (power of two).
    n_slots: usize,
    /// Producer position (monotonically increasing; slot = tail % n_slots).
    tail: CachePadded<AtomicUsize>,
    /// Producer-private cache of the last observed `head` (same side of the
    /// queue as the producer's write path, its own padded line).
    cached_head: CachePadded<Cell<usize>>,
    /// Producer-private telemetry tallies: index refreshes and full-queue
    /// stalls both fire once per poll while the producer is blocked, so
    /// bumping the shared registry there would dominate telemetry cost.
    /// They accumulate in these plain cells and flush on the next
    /// successful enqueue — a rank blocked at exit can leave a final
    /// window's worth unreported, an accepted diagnostic trade-off.
    /// (Tallies are cold relative to the indices, so they are not given
    /// padded lines of their own.)
    prod_refreshes: Cell<u64>,
    prod_stalls: Cell<u64>,
    /// Consumer position.
    head: CachePadded<AtomicUsize>,
    /// Consumer-private cache of the last observed `tail`.
    cached_tail: CachePadded<Cell<usize>>,
    /// Consumer-private tally of index refreshes (see `prod_refreshes`),
    /// flushed on the next successful dequeue.
    cons_refreshes: Cell<u64>,
    /// One virtual location per slot for the model checker; zero-sized no-op
    /// in normal builds.
    slot_races: RaceZone,
}

// SAFETY: the raw storage is only accessed under the SPSC protocol: the
// producer writes a slot strictly before publishing it with a release store
// of `tail`, and the consumer reads it after an acquire load; symmetrically
// for recycling via `head`. The `Cell` caches and telemetry tallies are
// single-side private: `cached_head`/`prod_refreshes`/`prod_stalls` are
// touched only by the producer thread, `cached_tail`/`cons_refreshes` only
// by the consumer thread (the same contract that already serializes the
// non-atomic slot accesses).
unsafe impl Send for PureBufferQueue {}
unsafe impl Sync for PureBufferQueue {}

impl PureBufferQueue {
    /// Create a queue of `n_slots` slots (rounded up to a power of two), each
    /// holding up to `max_payload` bytes.
    pub fn new(n_slots: usize, max_payload: usize) -> Self {
        let n_slots = n_slots.max(1).next_power_of_two();
        let stride_lines = (HEADER_BYTES + max_payload).div_ceil(CACHE_LINE).max(1);
        let storage = AlignedBytes::new(n_slots * stride_lines * CACHE_LINE);
        Self {
            storage,
            stride_lines,
            capacity: max_payload,
            n_slots,
            tail: CachePadded::new(AtomicUsize::new(0)),
            cached_head: CachePadded::new(Cell::new(0)),
            prod_refreshes: Cell::new(0),
            prod_stalls: Cell::new(0),
            head: CachePadded::new(AtomicUsize::new(0)),
            cached_tail: CachePadded::new(Cell::new(0)),
            cons_refreshes: Cell::new(0),
            slot_races: RaceZone::new(n_slots),
        }
    }

    /// Max payload bytes a slot can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.n_slots
    }

    /// Messages currently queued (diagnostics-only: relaxed loads of both
    /// indices, so the value can be momentarily stale).
    pub fn occupancy(&self) -> usize {
        self.tail
            .load(Ordering::Relaxed)
            .saturating_sub(self.head.load(Ordering::Relaxed))
    }

    #[inline]
    fn slot_ptr(&self, pos: usize) -> *mut u8 {
        // In-bounds by construction: line < n_slots * stride_lines.
        self.storage
            .line_ptr((pos % self.n_slots) * self.stride_lines)
    }

    /// Flush the producer-side telemetry tallies into the installed
    /// per-rank registry. Called on successful enqueues (producer thread).
    #[inline]
    fn flush_producer_tally(&self) {
        telemetry::count_by(Counter::PbqIndexRefresh, self.prod_refreshes.get());
        self.prod_refreshes.set(0);
        telemetry::count_by(Counter::PbqFullStall, self.prod_stalls.get());
        self.prod_stalls.set(0);
    }

    /// Flush the consumer-side telemetry tally. Called on successful
    /// dequeues (consumer thread).
    #[inline]
    fn flush_consumer_tally(&self) {
        telemetry::count_by(Counter::PbqIndexRefresh, self.cons_refreshes.get());
        self.cons_refreshes.set(0);
    }

    /// Free slots as seen by the producer at `tail`, refreshing the cached
    /// head only when the cache implies the queue is full. (Producer thread.)
    #[inline]
    fn free_slots(&self, tail: usize) -> usize {
        let free = self.n_slots - tail.wrapping_sub(self.cached_head.get());
        if free > 0 {
            return free;
        }
        // Cache says full: reload the shared index. The acquire pairs with
        // the consumer's release store of `head`, so every slot at positions
        // < head is finished with and reusable.
        self.prod_refreshes.set(self.prod_refreshes.get() + 1);
        self.cached_head.set(self.head.load(Ordering::Acquire));
        self.n_slots - tail.wrapping_sub(self.cached_head.get())
    }

    /// Messages available to the consumer at `head`, refreshing the cached
    /// tail only when the cache implies the queue is empty. (Consumer thread.)
    #[inline]
    fn available(&self, head: usize) -> usize {
        let avail = self.cached_tail.get().wrapping_sub(head);
        if avail > 0 {
            return avail;
        }
        // Cache says empty: reload. The acquire pairs with the producer's
        // release store of `tail`, making the payloads of every slot at
        // positions < tail visible.
        self.cons_refreshes.set(self.cons_refreshes.get() + 1);
        self.cached_tail.set(self.tail.load(Ordering::Acquire));
        self.cached_tail.get().wrapping_sub(head)
    }

    /// Write `payload` (header + bytes) into the slot at `pos`.
    ///
    /// # Safety
    /// The producer must own slot `pos`: `pos < head + n_slots` under the
    /// acquire/release protocol, and `tail` must not yet have been published
    /// past `pos`.
    #[inline]
    unsafe fn write_slot(&self, pos: usize, payload: &[u8]) {
        self.slot_races.write(pos % self.n_slots);
        let p = self.slot_ptr(pos);
        // SAFETY: slot ownership per the caller contract; the consumer will
        // not read it before the release store of `tail`.
        unsafe {
            (p as *mut usize).write(payload.len());
            std::ptr::copy_nonoverlapping(payload.as_ptr(), p.add(HEADER_BYTES), payload.len());
        }
    }

    /// Attempt to enqueue `payload`. Returns `false` when the queue is full.
    ///
    /// Must only be called from the producer thread.
    #[inline]
    pub fn try_send(&self, payload: &[u8]) -> bool {
        assert!(
            payload.len() <= self.capacity,
            "PBQ payload exceeds slot capacity"
        );
        let tail = self.tail.load(Ordering::Relaxed); // sole writer of tail
        if self.free_slots(tail) == 0 {
            self.prod_stalls.set(self.prod_stalls.get() + 1);
            return false; // full
        }
        // SAFETY: free_slots > 0 means the consumer is done with this slot.
        unsafe { self.write_slot(tail, payload) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        telemetry::count(Counter::PbqEnq);
        self.flush_producer_tally();
        true
    }

    /// Enqueue as many messages from `msgs` as fit, publishing them with a
    /// *single* release store. Returns the number of messages enqueued; the
    /// iterator is consumed exactly that far (plus at most one probe item
    /// when the queue fills mid-batch).
    ///
    /// Must only be called from the producer thread.
    pub fn try_send_batch<'a, I>(&self, msgs: I) -> usize
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let tail = self.tail.load(Ordering::Relaxed); // sole writer of tail
        let mut free = self.free_slots(tail);
        if free == 0 {
            self.prod_stalls.set(self.prod_stalls.get() + 1);
            return 0;
        }
        let mut pos = tail;
        for payload in msgs {
            if free == 0 {
                // Mid-batch refresh: the consumer may have drained more.
                self.prod_refreshes.set(self.prod_refreshes.get() + 1);
                self.cached_head.set(self.head.load(Ordering::Acquire));
                free = self.n_slots - pos.wrapping_sub(self.cached_head.get());
                if free == 0 {
                    break;
                }
            }
            assert!(
                payload.len() <= self.capacity,
                "PBQ payload exceeds slot capacity"
            );
            // SAFETY: free > 0 for this position under the protocol.
            unsafe { self.write_slot(pos, payload) };
            pos = pos.wrapping_add(1);
            free -= 1;
        }
        let sent = pos.wrapping_sub(tail);
        if sent > 0 {
            self.tail.store(pos, Ordering::Release);
            telemetry::count(Counter::PbqSendBatches);
            telemetry::count_by(Counter::PbqSendBatchMsgs, sent as u64);
            self.flush_producer_tally();
        }
        sent
    }

    /// Attempt to dequeue into `out`; returns the message length, or `None`
    /// when the queue is empty. `out` must be at least as large as the
    /// incoming message.
    ///
    /// Must only be called from the consumer thread.
    #[inline]
    pub fn try_recv(&self, out: &mut [u8]) -> Option<usize> {
        self.try_recv_with(|bytes| {
            out[..bytes.len()].copy_from_slice(bytes);
            bytes.len()
        })
    }

    /// Attempt to dequeue, handing the payload bytes to `f` (the second copy
    /// of the two-copy scheme happens inside `f`). Returns the message length.
    ///
    /// Must only be called from the consumer thread.
    #[inline]
    pub fn try_recv_with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let head = self.head.load(Ordering::Relaxed); // sole writer of head
        if self.available(head) == 0 {
            return None; // empty
        }
        self.slot_races.read(head % self.n_slots);
        let p = self.slot_ptr(head);
        // SAFETY: an acquire load of `tail` (now or on an earlier refresh
        // that first covered this position) synchronized with the producer's
        // release store, so the slot contents (header + payload) are visible
        // and stable; the producer will not reuse the slot until `head`
        // advances.
        let out = unsafe {
            let len = (p as *const usize).read();
            debug_assert!(len <= self.capacity);
            f(std::slice::from_raw_parts(p.add(HEADER_BYTES), len))
        };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        telemetry::count(Counter::PbqDeq);
        self.flush_consumer_tally();
        Some(out)
    }

    /// Dequeue up to `max` messages, handing each to `f` as
    /// `(index_in_batch, bytes)`, and recycle all their slots with a *single*
    /// release store. Returns the number of messages delivered.
    ///
    /// Must only be called from the consumer thread.
    pub fn try_recv_batch(&self, max: usize, mut f: impl FnMut(usize, &[u8])) -> usize {
        let head = self.head.load(Ordering::Relaxed); // sole writer of head
        let n = self.available(head).min(max);
        for i in 0..n {
            self.slot_races.read(head.wrapping_add(i) % self.n_slots);
            let p = self.slot_ptr(head.wrapping_add(i));
            // SAFETY: as in `try_recv_with`; positions < cached_tail were
            // covered by an acquire load of `tail`.
            unsafe {
                let len = (p as *const usize).read();
                debug_assert!(len <= self.capacity);
                f(i, std::slice::from_raw_parts(p.add(HEADER_BYTES), len));
            }
        }
        if n > 0 {
            self.head.store(head.wrapping_add(n), Ordering::Release);
            telemetry::count(Counter::PbqRecvBatches);
            telemetry::count_by(Counter::PbqRecvBatchMsgs, n as u64);
            self.flush_consumer_tally();
        }
        n
    }

    /// True when a message is waiting (consumer-side probe). Refreshes the
    /// consumer's tail cache, so a subsequent `try_recv*` can run cache-only.
    #[inline]
    pub fn has_message(&self) -> bool {
        self.available(self.head.load(Ordering::Relaxed)) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn send_recv_roundtrip() {
        let q = PureBufferQueue::new(4, 64);
        assert!(q.try_send(b"abc"));
        let mut out = [0u8; 64];
        assert_eq!(q.try_recv(&mut out), Some(3));
        assert_eq!(&out[..3], b"abc");
        assert_eq!(q.try_recv(&mut out), None);
    }

    #[test]
    fn fills_up_then_drains_fifo() {
        let q = PureBufferQueue::new(4, 8);
        for i in 0..4u8 {
            assert!(q.try_send(&[i; 8]));
        }
        assert!(!q.try_send(&[9; 8]), "queue must report full");
        let mut out = [0u8; 8];
        for i in 0..4u8 {
            assert_eq!(q.try_recv(&mut out), Some(8));
            assert_eq!(out, [i; 8]);
        }
        assert!(q.try_send(&[9; 8]), "space reclaimed after drain");
    }

    #[test]
    fn zero_length_messages_work() {
        let q = PureBufferQueue::new(2, 16);
        assert!(q.try_send(&[]));
        let mut out = [0u8; 16];
        assert_eq!(q.try_recv(&mut out), Some(0));
    }

    #[test]
    fn slot_count_rounds_to_power_of_two() {
        let q = PureBufferQueue::new(3, 8);
        assert_eq!(q.slots(), 4);
        let q = PureBufferQueue::new(0, 8);
        assert_eq!(q.slots(), 1);
    }

    #[test]
    fn slots_are_cacheline_aligned() {
        let q = PureBufferQueue::new(4, 100);
        for pos in 0..4 {
            assert_eq!(q.slot_ptr(pos) as usize % CACHE_LINE, 0);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds slot capacity")]
    fn oversize_send_panics() {
        let q = PureBufferQueue::new(2, 8);
        let _ = q.try_send(&[0u8; 9]);
    }

    #[test]
    fn full_and_empty_laps_refresh_the_caches() {
        let q = PureBufferQueue::new(2, 8);
        let mut out = [0u8; 8];
        for lap in 0..5u8 {
            assert!(q.try_send(&[lap; 4]));
            assert!(q.try_send(&[lap + 100; 4]));
            assert!(!q.try_send(&[0; 4]), "full at lap {lap}");
            assert_eq!(q.try_recv(&mut out), Some(4));
            assert_eq!(out[..4], [lap; 4]);
            assert_eq!(q.try_recv(&mut out), Some(4));
            assert_eq!(out[..4], [lap + 100; 4]);
            assert_eq!(q.try_recv(&mut out), None);
        }
    }

    #[test]
    fn batch_send_then_batch_recv() {
        let q = PureBufferQueue::new(8, 16);
        let msgs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; (i as usize % 7) + 1]).collect();
        let sent = q.try_send_batch(msgs.iter().map(|m| m.as_slice()));
        assert_eq!(sent, 5);
        let mut got: Vec<Vec<u8>> = Vec::new();
        let n = q.try_recv_batch(16, |i, bytes| {
            assert_eq!(i, got.len());
            got.push(bytes.to_vec());
        });
        assert_eq!(n, 5);
        assert_eq!(got, msgs);
        assert_eq!(q.try_recv_batch(16, |_, _| panic!("empty")), 0);
    }

    #[test]
    fn batch_send_stops_at_capacity_and_resumes() {
        let q = PureBufferQueue::new(4, 4);
        let msgs: Vec<[u8; 4]> = (0..6u8).map(|i| [i; 4]).collect();
        let sent = q.try_send_batch(msgs.iter().map(|m| &m[..]));
        assert_eq!(sent, 4, "only 4 slots");
        let mut out = [0u8; 4];
        assert_eq!(q.try_recv(&mut out), Some(4));
        assert_eq!(out, [0; 4]);
        // Remaining two now fit (one slot free + mid-batch head refresh as
        // the consumer keeps draining).
        let sent2 = q.try_send_batch(msgs[4..].iter().map(|m| &m[..]));
        assert_eq!(sent2, 1);
        for i in 1..5u8 {
            assert_eq!(q.try_recv(&mut out), Some(4));
            assert_eq!(out, [i; 4]);
        }
    }

    #[test]
    fn batch_recv_respects_max() {
        let q = PureBufferQueue::new(8, 4);
        for i in 0..6u8 {
            assert!(q.try_send(&[i; 1]));
        }
        let mut seen = Vec::new();
        assert_eq!(q.try_recv_batch(2, |_, b| seen.push(b[0])), 2);
        assert_eq!(q.try_recv_batch(100, |_, b| seen.push(b[0])), 4);
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn batch_ops_wrap_around_with_stale_caches() {
        // Drive positions far past n_slots so batches straddle the ring seam
        // and the caches go stale between bursts.
        let q = PureBufferQueue::new(4, 8);
        let mut next_send = 0u64;
        let mut next_recv = 0u64;
        for burst in 1..=32u64 {
            let k = (burst % 4 + 1) as usize;
            let msgs: Vec<[u8; 8]> = (0..k)
                .map(|i| (next_send + i as u64).to_le_bytes())
                .collect();
            let sent = q.try_send_batch(msgs.iter().map(|m| &m[..]));
            assert!(sent > 0, "burst {burst} had space");
            next_send += sent as u64;
            let n = q.try_recv_batch(sent, |_, b| {
                assert_eq!(b, next_recv.to_le_bytes());
                next_recv += 1;
            });
            assert_eq!(n, sent);
        }
        assert_eq!(next_send, next_recv);
    }

    #[test]
    fn has_message_probe_refreshes_consumer_cache() {
        let q = PureBufferQueue::new(2, 8);
        assert!(!q.has_message());
        assert!(q.try_send(b"x"));
        assert!(q.has_message());
        let mut out = [0u8; 8];
        assert_eq!(q.try_recv(&mut out), Some(1));
        assert!(!q.has_message());
    }

    /// Cross-thread stress: many messages, single producer, single consumer,
    /// contents and order must be exact.
    #[test]
    fn spsc_stress_preserves_order_and_content() {
        let q = Arc::new(PureBufferQueue::new(8, 32));
        let qp = Arc::clone(&q);
        const N: u32 = 20_000;
        let producer = thread::spawn(move || {
            for i in 0..N {
                let msg = i.to_le_bytes();
                while !qp.try_send(&msg) {
                    thread::yield_now();
                }
            }
        });
        let mut out = [0u8; 32];
        for i in 0..N {
            loop {
                if let Some(len) = q.try_recv(&mut out) {
                    assert_eq!(len, 4);
                    assert_eq!(u32::from_le_bytes(out[..4].try_into().unwrap()), i);
                    break;
                }
                thread::yield_now();
            }
        }
        producer.join().unwrap();
    }

    /// Cross-thread stress over the batched APIs with mixed batch sizes.
    #[test]
    fn spsc_batch_stress_preserves_order() {
        let q = Arc::new(PureBufferQueue::new(8, 8));
        let qp = Arc::clone(&q);
        const N: u64 = 20_000;
        let producer = thread::spawn(move || {
            let mut next = 0u64;
            while next < N {
                let k = ((next % 5) + 1).min(N - next) as usize;
                let msgs: Vec<[u8; 8]> = (0..k).map(|i| (next + i as u64).to_le_bytes()).collect();
                let sent = qp.try_send_batch(msgs.iter().map(|m| &m[..]));
                next += sent as u64;
                if sent == 0 {
                    thread::yield_now();
                }
            }
        });
        let mut expect = 0u64;
        while expect < N {
            let n = q.try_recv_batch(7, |_, b| {
                assert_eq!(b, expect.to_le_bytes());
                expect += 1;
            });
            if n == 0 {
                thread::yield_now();
            }
        }
        producer.join().unwrap();
    }

    /// Messages of varying lengths through a small queue.
    #[test]
    fn variable_length_stress() {
        let q = Arc::new(PureBufferQueue::new(2, 256));
        let qp = Arc::clone(&q);
        const N: usize = 4_000;
        let producer = thread::spawn(move || {
            for i in 0..N {
                let len = (i * 37) % 257 % 256;
                let msg: Vec<u8> = (0..len).map(|j| ((i + j) % 251) as u8).collect();
                while !qp.try_send(&msg) {
                    thread::yield_now();
                }
            }
        });
        let mut out = [0u8; 256];
        for i in 0..N {
            let expect_len = (i * 37) % 257 % 256;
            loop {
                if let Some(len) = q.try_recv(&mut out) {
                    assert_eq!(len, expect_len);
                    for (j, &b) in out[..len].iter().enumerate() {
                        assert_eq!(b, ((i + j) % 251) as u8);
                    }
                    break;
                }
                thread::yield_now();
            }
        }
        producer.join().unwrap();
    }
}
