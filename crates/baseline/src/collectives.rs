//! Baseline collectives: the textbook point-to-point compositions MPICH uses
//! when no shared-memory-native algorithm is available — binomial broadcast
//! and reduce, recursive-doubling all-reduce, dissemination barrier. Every
//! hop is a full message through the lock-based channel layer, which is
//! precisely the cost structure Pure's SPTD collectives eliminate.
//!
//! Gather, all-gather, scatter, scan and all-to-all are not here: both
//! runtimes use the `Communicator` default methods, composed from `bcast`.

use crate::comm::{MpiComm, INTERNAL};
use pure_core::datatype::{PureDatatype, ReduceOp, Reducible};
use pure_core::runtime::Tag;
use pure_core::Communicator as _;

/// Phase-distinct internal tags (FIFO channels make reuse across rounds
/// safe, as in `pure-core::internode`).
fn ptag(phase: u32) -> Tag {
    INTERNAL | 0x1000 | phase
}

impl MpiComm {
    pub(crate) fn barrier_impl(&self) {
        self.next_round();
        let p = self.size();
        if p <= 1 {
            return;
        }
        let me = self.rank_i();
        let mut k = 1usize;
        let mut phase = 40;
        while k < p {
            let to = (me + k) % p;
            let from = (me + p - k) % p;
            // Exchange directions concurrently to avoid serialization.
            let token = [1u8];
            let mut got = [0u8];
            self.send_raw(&token, to, ptag(phase));
            self.recv_raw(&mut got, from, ptag(phase));
            k <<= 1;
            phase += 1;
        }
    }

    pub(crate) fn bcast_impl<T: PureDatatype>(&self, data: &mut [T], root: usize) {
        self.next_round();
        let p = self.size();
        if p <= 1 {
            return;
        }
        let me = self.rank_i();
        let rel = (me + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                let src = (me + p - mask) % p;
                self.recv_raw(data, src, ptag(32));
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if rel + mask < p {
                let dst = (me + mask) % p;
                self.send_raw(data, dst, ptag(32));
            }
            mask >>= 1;
        }
    }

    pub(crate) fn reduce_impl<T: Reducible>(
        &self,
        input: &[T],
        output: Option<&mut [T]>,
        root: usize,
        op: ReduceOp,
    ) {
        self.next_round();
        let p = self.size();
        let me = self.rank_i();
        let mut acc: Vec<T> = input.to_vec();
        if p > 1 {
            let rel = (me + p - root) % p;
            let mut tmp = vec![T::identity(op); input.len()];
            let mut mask = 1usize;
            while mask < p {
                if rel & mask == 0 {
                    let src_rel = rel | mask;
                    if src_rel < p {
                        let src = (src_rel + root) % p;
                        self.recv_raw(&mut tmp, src, ptag(33));
                        T::reduce_assign(op, &mut acc, &tmp);
                    }
                } else {
                    let dst = ((rel & !mask) + root) % p;
                    self.send_raw(&acc, dst, ptag(33));
                    break;
                }
                mask <<= 1;
            }
        }
        if me == root {
            output
                .expect("root must supply an output buffer")
                .copy_from_slice(&acc);
        }
    }

    pub(crate) fn allreduce_impl<T: Reducible>(&self, input: &[T], output: &mut [T], op: ReduceOp) {
        assert_eq!(
            input.len(),
            output.len(),
            "allreduce buffer length mismatch"
        );
        self.next_round();
        output.copy_from_slice(input);
        let p = self.size();
        if p <= 1 {
            return;
        }
        let me = self.rank_i();
        let mut tmp = vec![T::identity(op); input.len()];
        let pof2 = 1usize << (usize::BITS - 1 - p.leading_zeros());
        let rem = p - pof2;

        // Fold excess ranks into even partners (MPICH's non-power-of-two
        // pre-phase).
        let newrank = if me < 2 * rem {
            if me % 2 == 1 {
                self.send_raw(output, me - 1, ptag(0));
                usize::MAX
            } else {
                self.recv_raw(&mut tmp, me + 1, ptag(0));
                T::reduce_assign(op, output, &tmp);
                me / 2
            }
        } else {
            me - rem
        };

        if newrank != usize::MAX {
            let mut mask = 1usize;
            let mut phase = 1;
            while mask < pof2 {
                let partner_new = newrank ^ mask;
                let partner = if partner_new < rem {
                    partner_new * 2
                } else {
                    partner_new + rem
                };
                // Nonblocking exchange to avoid deadlock on the rendezvous
                // path (both sides may exceed the eager threshold).
                self.exchange(output, &mut tmp, partner, ptag(phase));
                T::reduce_assign(op, output, &tmp);
                mask <<= 1;
                phase += 1;
            }
        }

        if me < 2 * rem {
            if me % 2 == 1 {
                self.recv_raw(output, me - 1, ptag(31));
            } else {
                self.send_raw(output, me + 1, ptag(31));
            }
        }
    }

    /// Deadlock-free exchange with `partner` (post recv, send, complete).
    fn exchange<T: PureDatatype>(&self, send: &[T], recv: &mut [T], partner: usize, tag: Tag) {
        use pure_core::CommRequest;
        let rx = self.irecv_raw(recv, partner, tag);
        self.send_raw(send, partner, tag);
        rx.wait();
    }

    fn rank_i(&self) -> usize {
        use pure_core::Communicator;
        self.rank()
    }

    /// Internal irecv allowing internal tags.
    fn irecv_raw<'a, T: PureDatatype>(
        &'a self,
        buf: &'a mut [T],
        src: usize,
        tag: Tag,
    ) -> crate::comm::MpiRequest<'a> {
        self.irecv_internal(buf, src, tag)
    }
}
