//! The **Sequenced Per-Thread Dropbox (SPTD)** — §4.2.1, Figure 2.
//!
//! One dropbox per member thread of a communicator's node group: a
//! cacheline-padded atomic sequence number plus a small payload buffer. The
//! owning thread writes its payload and *then* publishes the current round
//! number with a release store; a reader observes the round with an acquire
//! load and may then read the payload. The pairwise leader↔member
//! synchronization this gives "vastly outperformed a shared atomic counter
//! approach" in the paper, so the dropbox is the only arrival mechanism.
//!
//! Each dropbox carries **two** sequence numbers: `seq` (arrival/payload
//! ready) and `done_seq` (backedge: the member is finished with the round's
//! shared data), which the large-data collectives and broadcast flow control
//! need.
//!
//! For the Partitioned Reducer (§4.2.2) a member publishes three words
//! instead of data — its input pointer, its output pointer and the length —
//! and [`reduce_published`] is the one place that reads and writes through
//! published pointers.

use std::ops::Range;

use interleave::cell::RaceZone;
use interleave::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

use crate::datatype::{as_bytes, from_bytes, ReduceOp, Reducible};
use crate::util::cache::{AlignedBytes, CacheLineUnit, CACHE_LINE};

/// Bytes of the three-word buffer publication (input, output, length).
const BUFFER_WORDS_BYTES: usize = std::mem::size_of::<[usize; 3]>();

/// Bytes of the stack tile [`reduce_published`] combines and then copies
/// out: small enough to stay in L1 between the combine and the copies.
const TILE_BYTES: usize = 4096;

/// One per-thread dropbox.
pub struct Sptd {
    seq: CachePadded<AtomicU64>,
    done_seq: CachePadded<AtomicU64>,
    payload: AlignedBytes,
    /// Virtual location standing in for the payload buffer under the model
    /// checker; zero-sized no-op in normal builds.
    payload_race: RaceZone,
}

impl Sptd {
    /// A dropbox with `capacity` payload bytes (rounded up to cachelines).
    pub fn new(capacity: usize) -> Self {
        Self {
            seq: CachePadded::new(AtomicU64::new(0)),
            done_seq: CachePadded::new(AtomicU64::new(0)),
            payload: AlignedBytes::new(capacity.max(BUFFER_WORDS_BYTES)),
            payload_race: RaceZone::new(1),
        }
    }

    /// Payload capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.payload.len()
    }

    /// Owner side: copy `bytes` into the dropbox **without** publishing the
    /// round; [`Sptd::publish_seq`] makes them visible.
    ///
    /// # Safety
    /// Only the owning member thread may call this, and only when the
    /// previous round's payload has been consumed (guaranteed by the
    /// collectives' round protocol).
    pub unsafe fn write_bytes(&self, bytes: &[u8]) {
        assert!(bytes.len() <= self.payload.len(), "SPTD payload overflow");
        self.payload_race.write(0);
        // SAFETY: exclusive write window per the round protocol.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.payload.byte_ptr(0), bytes.len());
        }
    }

    /// Owner side: store where this member's reduction input and output live
    /// instead of copying data in (§4.2.2: "instead of copying in their
    /// data, they just set a pointer"), without publishing the round. `len`
    /// is the length of each buffer in bytes; a null `output` asks for no
    /// result.
    ///
    /// # Safety
    /// As [`Sptd::write_bytes`]; additionally `input` must stay readable and
    /// a non-null `output` writable by any member for `len` bytes until the
    /// round completes (every member's `done` backedge).
    pub unsafe fn write_buffers(&self, input: *const u8, output: *mut u8, len: usize) {
        let words = [input as usize, output as usize, len];
        // SAFETY: forwarded contract.
        unsafe { self.write_bytes(as_bytes(&words)) };
    }

    /// Publish round `r` (release): the payload written before this call
    /// becomes visible to any thread that observes `seq() >= r`.
    #[inline]
    pub fn publish_seq(&self, r: u64) {
        self.seq.store(r, Ordering::Release);
    }

    /// Copy `bytes` in and publish round `r`.
    ///
    /// # Safety
    /// As [`Sptd::write_bytes`].
    pub unsafe fn publish_bytes(&self, bytes: &[u8], r: u64) {
        // SAFETY: forwarded contract.
        unsafe { self.write_bytes(bytes) };
        self.publish_seq(r);
    }

    /// Arrival sequence (acquire).
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Reader side: borrow `len` payload bytes.
    ///
    /// # Safety
    /// Caller must have observed `seq() >= r` for the round that published
    /// this payload, and the owner must not republish until the round ends.
    pub unsafe fn payload(&self, len: usize) -> &[u8] {
        assert!(len <= self.payload.len());
        self.payload_race.read(0);
        // SAFETY: acquire/release on `seq` ordered the owner's writes before
        // this read; stability per the round protocol.
        unsafe { std::slice::from_raw_parts(self.payload.byte_ptr(0), len) }
    }

    /// Reader side: the (input, output, length) published with
    /// [`Sptd::write_buffers`].
    ///
    /// # Safety
    /// As [`Sptd::payload`].
    unsafe fn buffers(&self) -> (*const u8, *mut u8, usize) {
        // SAFETY: forwarded contract; three words were published, and the
        // 64-byte-aligned payload base is aligned for `usize`.
        let w = from_bytes::<usize>(unsafe { self.payload(BUFFER_WORDS_BYTES) });
        (w[0] as *const u8, w[1] as *mut u8, w[2])
    }

    /// Publish the completion backedge for round `r` (release).
    #[inline]
    pub fn set_done(&self, r: u64) {
        self.done_seq.store(r, Ordering::Release);
    }

    /// Completion sequence (acquire).
    #[inline]
    pub fn done(&self) -> u64 {
        self.done_seq.load(Ordering::Acquire)
    }
}

/// The Partitioned Reducer's data movement (§4.2.2, Figure 3): reduce
/// elements `range` of every member's published input, one stack tile at a
/// time, and copy each reduced tile into every non-null published output.
/// With `scratch` (which holds `range` only), each tile is reduced there
/// instead of on the stack.
///
/// Inputs combine in member order `0..g`, so every element is the serial
/// fold over the members whatever the tiling. Each tile is read in full
/// before any output is written, so a member whose input is also its
/// output (in place) is safe.
///
/// # Panics
/// If a published length is shorter than `range` — ranks disagree on the
/// reduction's length — before anything is read or written.
///
/// # Safety
/// Every dropbox in `boxes` holds buffers of `T` published with
/// [`Sptd::write_buffers`] for the current round, observed through its
/// `seq`, and no other thread touches `range` of any published buffer
/// until the caller has published its `done` backedge (members' ranges are
/// disjoint).
pub unsafe fn reduce_published<T: Reducible>(
    boxes: &[Sptd],
    range: Range<usize>,
    op: ReduceOp,
    mut scratch: Option<&mut [T]>,
) {
    for b in boxes {
        // SAFETY: arrival observed per the contract.
        let (_, _, len) = unsafe { b.buffers() };
        assert!(
            range.end * std::mem::size_of::<T>() <= len,
            "reduction length differs across ranks"
        );
    }
    let mut tile = [CacheLineUnit::ZERO; TILE_BYTES / CACHE_LINE];
    let step = (TILE_BYTES / std::mem::size_of::<T>()).max(1);
    let mut start = range.start;
    while start < range.end {
        let end = (start + step).min(range.end);
        let acc: &mut [T] = match scratch.as_deref_mut() {
            Some(s) => &mut s[start - range.start..end - range.start],
            // SAFETY: the tile is 64-byte aligned and `step` elements long;
            // zero bytes are a valid `T` (a POD `PureDatatype`).
            None => unsafe {
                std::slice::from_raw_parts_mut(tile.as_mut_ptr().cast::<T>(), end - start)
            },
        };
        for (j, b) in boxes.iter().enumerate() {
            // SAFETY: arrival observed per the contract; the published input
            // is long enough (checked above) and stays valid and unwritten
            // in `range` for the round.
            let inp = unsafe {
                let (input, _, _) = b.buffers();
                std::slice::from_raw_parts(input.cast::<T>().add(start), end - start)
            };
            if j == 0 {
                acc.copy_from_slice(inp);
            } else {
                T::reduce_assign(op, acc, inp);
            }
        }
        for b in boxes {
            // SAFETY: as above; only this thread writes `range` of an output.
            unsafe {
                let (_, output, _) = b.buffers();
                if !output.is_null() {
                    let dst = output.cast::<T>().add(start);
                    std::ptr::copy_nonoverlapping(acc.as_ptr(), dst, acc.len());
                }
            }
        }
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn publish_and_read_roundtrip() {
        let d = Sptd::new(64);
        // SAFETY: single-threaded test; exclusive windows trivially hold.
        unsafe {
            d.publish_bytes(&[1, 2, 3], 1);
            assert_eq!(d.seq(), 1);
            assert_eq!(d.payload(3), &[1, 2, 3]);
        }
    }

    #[test]
    fn reduce_published_writes_every_output_in_member_order() {
        // Two members, 1 500 u32 (not a whole number of tiles or lines):
        // member 0 writes its result in place, member 1 out of place.
        let boxes = [Sptd::new(16), Sptd::new(16)];
        let mut a: Vec<u32> = (0..1500).collect();
        let b: Vec<u32> = (0..1500).map(|i| 7 * i).collect();
        let mut b_out = vec![0u32; 1500];
        let bytes = std::mem::size_of_val(&a[..]);
        let pa = a.as_mut_ptr();
        // SAFETY: single-threaded; every buffer outlives the reduction.
        unsafe {
            boxes[0].write_buffers(pa.cast(), pa.cast(), bytes);
            boxes[1].write_buffers(b.as_ptr().cast(), b_out.as_mut_ptr().cast(), bytes);
            reduce_published::<u32>(&boxes, 0..700, ReduceOp::Sum, None);
            reduce_published::<u32>(&boxes, 700..1500, ReduceOp::Sum, None);
        }
        let want: Vec<u32> = (0..1500).map(|i| 8 * i).collect();
        assert_eq!(a, want);
        assert_eq!(b_out, want);
    }

    #[test]
    fn reduce_published_fills_scratch_and_skips_null_outputs() {
        let boxes = [Sptd::new(16), Sptd::new(16)];
        let x = [3.0f64; 40];
        let y = [0.5f64; 40];
        let mut scratch = [0.0f64; 24];
        // SAFETY: single-threaded; null outputs are never written.
        unsafe {
            boxes[0].write_buffers(x.as_ptr().cast(), std::ptr::null_mut(), 320);
            boxes[1].write_buffers(y.as_ptr().cast(), std::ptr::null_mut(), 320);
            reduce_published::<f64>(&boxes, 16..40, ReduceOp::Sum, Some(&mut scratch));
        }
        assert_eq!(scratch, [3.5; 24]);
    }

    #[test]
    #[should_panic(expected = "reduction length differs across ranks")]
    fn reduce_published_rejects_a_short_peer_buffer() {
        let boxes = [Sptd::new(16), Sptd::new(16)];
        let long = [1u64; 64];
        let short = [1u64; 8];
        let mut out = [0u64; 64];
        // SAFETY: single-threaded; panics before any buffer is touched.
        unsafe {
            boxes[0].write_buffers(long.as_ptr().cast(), out.as_mut_ptr().cast(), 512);
            boxes[1].write_buffers(short.as_ptr().cast(), std::ptr::null_mut(), 64);
            reduce_published::<u64>(&boxes, 32..64, ReduceOp::Sum, None);
        }
    }

    #[test]
    fn done_backedge_is_independent() {
        let d = Sptd::new(16);
        d.set_done(5);
        assert_eq!(d.done(), 5);
        assert_eq!(d.seq(), 0);
    }

    #[test]
    fn seq_synchronizes_payload_across_threads() {
        let d = Arc::new(Sptd::new(64));
        let d2 = Arc::clone(&d);
        let writer = thread::spawn(move || {
            for r in 1..=500u64 {
                let b = [(r % 251) as u8; 32];
                // SAFETY: reader consumes strictly by round; we wait for its
                // done backedge before republishing.
                unsafe { d2.publish_bytes(&b, r) };
                while d2.done() < r {
                    thread::yield_now();
                }
            }
        });
        for r in 1..=500u64 {
            while d.seq() < r {
                thread::yield_now();
            }
            // SAFETY: observed seq >= r; writer blocked on our done backedge.
            let b = unsafe { d.payload(32) };
            assert!(
                b.iter().all(|&x| x == (r % 251) as u8),
                "round {r} payload torn"
            );
            d.set_done(r);
        }
        writer.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "SPTD payload overflow")]
    fn oversize_payload_panics() {
        let d = Sptd::new(16);
        // SAFETY: panics before any write.
        unsafe { d.publish_bytes(&[0u8; 128], 1) };
    }
}
