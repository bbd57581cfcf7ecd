//! Intra-node collective state (§4.2): per-communicator, per-node shared
//! areas built from SPTDs, a leader-grown scratch buffer, and a broadcast
//! area.
//!
//! The collective *algorithms* (leader flat-combining for small payloads,
//! the all-thread Partitioned Reducer for large ones, broadcast, barrier,
//! reduce) are implemented as methods on [`crate::comm::PureComm`] in
//! [`ops`]; the cross-node leader phases live in `crate::internode`.
//! Gather, all-gather, scatter, scan and all-to-all are the
//! [`crate::Communicator`] default methods, composed from broadcast.

pub mod ops;
pub mod sptd;

use interleave::sync::atomic::{AtomicU64, Ordering};
use std::cell::UnsafeCell;

use crossbeam_utils::CachePadded;

use crate::util::cache::AlignedBytes;
use sptd::Sptd;

/// A shared buffer grown only by the node-group leader, read by members
/// after an acquire on the round sequence that published it.
pub struct GrowBuf {
    buf: UnsafeCell<AlignedBytes>,
}

// SAFETY: mutation (growth, writes) happens only in windows where the round
// protocol guarantees no concurrent readers; reads happen after an acquire
// of the sequence published after the writes.
unsafe impl Send for GrowBuf {}
unsafe impl Sync for GrowBuf {}

impl GrowBuf {
    /// Initial capacity `bytes` (rounded up to cachelines).
    pub fn new(bytes: usize) -> Self {
        Self {
            buf: UnsafeCell::new(AlignedBytes::new(bytes.max(1))),
        }
    }

    /// Ensure at least `bytes` capacity.
    ///
    /// # Safety
    /// Caller must be the unique writer of the current round with no
    /// concurrent readers (round protocol).
    pub unsafe fn ensure(&self, bytes: usize) {
        // SAFETY: exclusive window per contract.
        let b = unsafe { &mut *self.buf.get() };
        if b.len() < bytes {
            *b = AlignedBytes::new(bytes.next_power_of_two());
        }
    }

    /// Base pointer (64-byte aligned).
    ///
    /// # Safety
    /// Reads require having observed the publishing sequence; writes require
    /// the exclusive window.
    pub unsafe fn ptr(&self) -> *mut u8 {
        // SAFETY: per contract.
        unsafe { (*self.buf.get()).byte_ptr(0) }
    }

    /// Current capacity.
    ///
    /// # Safety
    /// Same visibility requirements as [`GrowBuf::ptr`].
    pub unsafe fn capacity(&self) -> usize {
        // SAFETY: per contract.
        unsafe { (*self.buf.get()).len() }
    }

    /// Typed mutable view of the first `len` elements.
    ///
    /// # Safety
    /// Exclusive-window writers only; `len * size_of::<T>()` must fit.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn as_mut_slice<T>(&self, len: usize) -> &mut [T] {
        // SAFETY: per contract; AlignedBytes is 64-byte aligned, enough for
        // any PureDatatype.
        unsafe {
            debug_assert!(len * std::mem::size_of::<T>() <= self.capacity());
            std::slice::from_raw_parts_mut(self.ptr().cast::<T>(), len)
        }
    }

    /// Typed mutable view of element range `range` only — lets several
    /// threads of the Partitioned Reducer (§4.2.2) write disjoint chunks of
    /// the same buffer without creating aliasing whole-buffer borrows.
    ///
    /// # Safety
    /// Concurrently outstanding ranges must be pairwise disjoint and within
    /// capacity; the usual exclusive-window rules apply per range.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn as_mut_range<T>(&self, range: std::ops::Range<usize>) -> &mut [T] {
        // SAFETY: per contract.
        unsafe {
            debug_assert!(range.end * std::mem::size_of::<T>() <= self.capacity());
            std::slice::from_raw_parts_mut(self.ptr().cast::<T>().add(range.start), range.len())
        }
    }

    /// Typed shared view of the first `len` elements.
    ///
    /// # Safety
    /// Caller must have observed the publishing sequence for these contents.
    pub unsafe fn as_slice<T>(&self, len: usize) -> &[T] {
        // SAFETY: per contract.
        unsafe {
            debug_assert!(len * std::mem::size_of::<T>() <= self.capacity());
            std::slice::from_raw_parts(self.ptr().cast::<T>(), len)
        }
    }
}

/// The per-communicator, per-node collective area.
pub struct CollArea {
    /// One dropbox per node-group member (indexed by group position).
    pub sptd: Box<[Sptd]>,
    /// Round most recently completed/published by the leader.
    pub leader_seq: CachePadded<AtomicU64>,
    /// Round whose scratch buffer the leader has sized (large-data path).
    pub scratch_ready: CachePadded<AtomicU64>,
    /// Leader-managed reduction scratch.
    pub scratch: GrowBuf,
    /// Round whose broadcast payload is available in `bcast_buf`.
    pub bcast_seq: CachePadded<AtomicU64>,
    /// Broadcast payload buffer.
    pub bcast_buf: GrowBuf,
}

impl CollArea {
    /// An area for a node group of `members` threads with `small_cap` bytes
    /// of per-member dropbox payload.
    pub fn new(members: usize, small_cap: usize) -> Self {
        Self {
            sptd: (0..members).map(|_| Sptd::new(small_cap)).collect(),
            leader_seq: CachePadded::new(AtomicU64::new(0)),
            scratch_ready: CachePadded::new(AtomicU64::new(0)),
            scratch: GrowBuf::new(small_cap.max(64)),
            bcast_seq: CachePadded::new(AtomicU64::new(0)),
            bcast_buf: GrowBuf::new(64),
        }
    }

    /// Node-group size.
    pub fn members(&self) -> usize {
        self.sptd.len()
    }

    /// Leader sequence (acquire).
    #[inline]
    pub fn leader_seq(&self) -> u64 {
        self.leader_seq.load(Ordering::Acquire)
    }

    /// Publish leader round `r` (release).
    #[inline]
    pub fn publish_leader(&self, r: u64) {
        self.leader_seq.store(r, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growbuf_grows_and_keeps_alignment() {
        let g = GrowBuf::new(64);
        // SAFETY: single-threaded test.
        unsafe {
            assert!(g.capacity() >= 64);
            let p0 = g.ptr() as usize;
            assert_eq!(p0 % 64, 0);
            g.ensure(10_000);
            assert!(g.capacity() >= 10_000);
            assert_eq!(g.ptr() as usize % 64, 0);
            let s = g.as_mut_slice::<f64>(100);
            s.iter_mut().for_each(|x| *x = 2.5);
            assert!(g.as_slice::<f64>(100).iter().all(|&x| x == 2.5));
        }
    }

    #[test]
    fn coll_area_shape() {
        let a = CollArea::new(4, 2048);
        assert_eq!(a.members(), 4);
        assert!(a.sptd[0].capacity() >= 2048);
        assert_eq!(a.leader_seq(), 0);
        a.publish_leader(7);
        assert_eq!(a.leader_seq(), 7);
    }
}
