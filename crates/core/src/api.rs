//! The runtime-agnostic communicator abstraction.
//!
//! The paper's headline programmability claim is that Pure code *is* MPI
//! code modulo renames (its source-to-source translator is mechanical). We
//! encode that claim in a trait: the mini-apps in this repository are
//! written once against [`Communicator`] and run unchanged on the Pure
//! runtime and on the lock-based MPI-everywhere baseline — the Rust analogue
//! of running the same `.c` file under both runtimes.
//!
//! `task_execute` is the "optional tasks" escape hatch: on Pure it maps to a
//! stealable Pure Task; on the baseline it runs the chunks serially on the
//! calling rank, which is exactly what an MPI-everywhere build of the same
//! source does.

use crate::datatype::{PureDatatype, ReduceOp, Reducible};
use crate::runtime::Tag;
use crate::task::ChunkRange;

/// A completable non-blocking operation handle.
pub trait CommRequest {
    /// Block until the operation completes.
    fn wait(self);
    /// Poll for completion.
    fn test(&mut self) -> bool;

    /// Complete a batch of requests (like `MPI_Waitall`), making progress
    /// on *every* one while any is incomplete — required when a rank has
    /// both outstanding sends (possibly deferred on a full queue) and
    /// receives whose peers are symmetrically blocked, where waiting the
    /// requests one by one could deadlock. The default polls them
    /// round-robin and yields between sweeps; a runtime overrides it with
    /// its own blocking wait. Call it through [`wait_all`].
    fn wait_all(mut reqs: Vec<Self>)
    where
        Self: Sized,
    {
        loop {
            reqs.retain_mut(|r| !r.test());
            if reqs.is_empty() {
                return;
            }
            std::thread::yield_now();
        }
    }
}

/// Complete every request of a batch: [`CommRequest::wait_all`] on
/// whatever runtime issued them.
pub fn wait_all<R: CommRequest>(reqs: impl IntoIterator<Item = R>) {
    R::wait_all(reqs.into_iter().collect())
}

/// The common surface of the Pure runtime and the MPI baseline.
pub trait Communicator: Sized {
    /// Non-blocking request handle type.
    type Req<'a>: CommRequest
    where
        Self: 'a;

    /// This rank within the communicator.
    fn rank(&self) -> usize;
    /// Member count.
    fn size(&self) -> usize;

    /// Blocking standard-mode send.
    fn send<T: PureDatatype>(&self, buf: &[T], dst: usize, tag: Tag);
    /// Blocking receive (count must match the send).
    fn recv<T: PureDatatype>(&self, buf: &mut [T], src: usize, tag: Tag);
    /// Non-blocking send; the buffer is borrowed until completion.
    fn isend<'a, T: PureDatatype>(&'a self, buf: &'a [T], dst: usize, tag: Tag) -> Self::Req<'a>;
    /// Non-blocking receive; the buffer is borrowed until completion.
    fn irecv<'a, T: PureDatatype>(
        &'a self,
        buf: &'a mut [T],
        src: usize,
        tag: Tag,
    ) -> Self::Req<'a>;
    /// Paired exchange (deadlock-free).
    fn sendrecv<T: PureDatatype>(
        &self,
        send_buf: &[T],
        dst: usize,
        recv_buf: &mut [T],
        src: usize,
        tag: Tag,
    ) {
        let rx = self.irecv(recv_buf, src, tag);
        let tx = self.isend(send_buf, dst, tag);
        rx.wait();
        tx.wait();
    }

    /// Synchronize all members.
    fn barrier(&self);
    /// Element-wise reduction, result everywhere.
    fn allreduce<T: Reducible>(&self, input: &[T], output: &mut [T], op: ReduceOp);
    /// Element-wise reduction to `root` (output ignored elsewhere).
    fn reduce<T: Reducible>(
        &self,
        input: &[T],
        output: Option<&mut [T]>,
        root: usize,
        op: ReduceOp,
    );
    /// Broadcast `data` from `root`.
    fn bcast<T: PureDatatype>(&self, data: &mut [T], root: usize);
    /// Scalar all-reduce convenience.
    fn allreduce_one<T: Reducible>(&self, value: T, op: ReduceOp) -> T {
        let input = [value];
        let mut out = [value];
        self.allreduce(&input, &mut out, op);
        out[0]
    }

    // The five collectives below go beyond the paper's four. Both runtimes
    // share these bodies, composed from `bcast` alone, so their results are
    // bit-identical across runtimes (float scans included).

    /// Gather equal blocks to `root` (rank i's block at `recv[i*len..]`;
    /// `recv` is only used on the root): an all-gather that only the root
    /// keeps.
    fn gather<T: PureDatatype>(&self, send: &[T], recv: Option<&mut [T]>, root: usize) {
        assert!(root < self.size(), "gather root out of range");
        match recv {
            Some(out) if self.rank() == root => self.allgather(send, out),
            _ => {
                assert_ne!(self.rank(), root, "root must supply a receive buffer");
                // Placeholder contents; the all-gather overwrites every block.
                self.allgather(send, &mut send.repeat(self.size()));
            }
        }
    }

    /// All-gather equal blocks in comm-rank order: one broadcast per block,
    /// rooted at the block's owner.
    fn allgather<T: PureDatatype>(&self, send: &[T], recv: &mut [T]) {
        let len = send.len();
        assert_eq!(
            recv.len(),
            len * self.size(),
            "allgather buffer length mismatch"
        );
        for owner in 0..self.size() {
            let block = &mut recv[owner * len..(owner + 1) * len];
            if owner == self.rank() {
                block.copy_from_slice(send);
            }
            self.bcast(block, owner);
        }
    }

    /// Scatter equal blocks from `root` (rank i gets `send[i*len..]`; `send`
    /// is only used on the root): one broadcast of the whole array, from
    /// which each rank copies its own block.
    fn scatter<T: PureDatatype>(&self, send: Option<&[T]>, recv: &mut [T], root: usize) {
        assert!(root < self.size(), "scatter root out of range");
        let len = recv.len();
        let mut all = match send {
            Some(s) if self.rank() == root => {
                assert_eq!(s.len(), len * self.size(), "scatter buffer length mismatch");
                s.to_vec()
            }
            _ => {
                assert_ne!(self.rank(), root, "root must supply the send buffer");
                // Placeholder contents; the broadcast overwrites them.
                recv.repeat(self.size())
            }
        };
        self.bcast(&mut all, root);
        let me = self.rank();
        recv.copy_from_slice(&all[me * len..(me + 1) * len]);
    }

    /// Inclusive prefix reduction: an all-gather of the inputs, then a fold
    /// of blocks `0..=rank` in comm-rank order.
    fn scan<T: Reducible>(&self, input: &[T], output: &mut [T], op: ReduceOp) {
        assert_eq!(input.len(), output.len(), "scan buffer length mismatch");
        let len = input.len();
        let mut all = vec![T::identity(op); len * self.size()];
        self.allgather(input, &mut all);
        output.copy_from_slice(&all[..len]);
        for r in 1..=self.rank() {
            T::reduce_assign(op, output, &all[r * len..(r + 1) * len]);
        }
    }

    /// All-to-all equal blocks (rank i's block j goes to rank j's slot i):
    /// one scatter rooted at each rank in turn.
    fn alltoall<T: PureDatatype>(&self, send: &[T], recv: &mut [T]) {
        let p = self.size();
        assert_eq!(send.len(), recv.len(), "alltoall buffer length mismatch");
        assert_eq!(send.len() % p, 0, "alltoall buffer not divisible by size");
        let len = send.len() / p;
        for src in 0..p {
            let own = (self.rank() == src).then_some(send);
            self.scatter(own, &mut recv[src * len..(src + 1) * len], src);
        }
    }

    /// Partition into sub-communicators by `color`, ordered by `key`
    /// (negative color opts out).
    fn split(&self, color: i64, key: i64) -> Option<Self>;

    /// Execute `chunks` chunks of work. On Pure, idle co-resident ranks may
    /// steal chunks; baselines run them serially here.
    fn task_execute(&self, chunks: u32, f: &(dyn Fn(ChunkRange) + Sync));

    /// True when `task_execute` can actually run chunks concurrently
    /// (lets apps skip atomic-ification when running on a serial baseline).
    fn tasks_parallel(&self) -> bool {
        false
    }
}

impl Communicator for crate::comm::PureComm {
    type Req<'a> = crate::msg::Request<'a>;

    fn rank(&self) -> usize {
        crate::comm::PureComm::rank(self)
    }
    fn size(&self) -> usize {
        crate::comm::PureComm::size(self)
    }
    fn send<T: PureDatatype>(&self, buf: &[T], dst: usize, tag: Tag) {
        crate::comm::PureComm::send(self, buf, dst, tag)
    }
    fn recv<T: PureDatatype>(&self, buf: &mut [T], src: usize, tag: Tag) {
        crate::comm::PureComm::recv(self, buf, src, tag)
    }
    fn isend<'a, T: PureDatatype>(&'a self, buf: &'a [T], dst: usize, tag: Tag) -> Self::Req<'a> {
        crate::comm::PureComm::isend(self, buf, dst, tag)
    }
    fn irecv<'a, T: PureDatatype>(
        &'a self,
        buf: &'a mut [T],
        src: usize,
        tag: Tag,
    ) -> Self::Req<'a> {
        crate::comm::PureComm::irecv(self, buf, src, tag)
    }
    fn barrier(&self) {
        crate::comm::PureComm::barrier(self)
    }
    fn allreduce<T: Reducible>(&self, input: &[T], output: &mut [T], op: ReduceOp) {
        crate::comm::PureComm::allreduce(self, input, output, op)
    }
    fn reduce<T: Reducible>(
        &self,
        input: &[T],
        output: Option<&mut [T]>,
        root: usize,
        op: ReduceOp,
    ) {
        crate::comm::PureComm::reduce(self, input, output, root, op)
    }
    fn bcast<T: PureDatatype>(&self, data: &mut [T], root: usize) {
        crate::comm::PureComm::bcast(self, data, root)
    }
    fn split(&self, color: i64, key: i64) -> Option<Self> {
        crate::comm::PureComm::split(self, color, key)
    }
    fn task_execute(&self, chunks: u32, f: &(dyn Fn(ChunkRange) + Sync)) {
        // Route through the rank's scheduler: stealable by co-resident ranks.
        let local = &self.comm_local();
        let g = move |r: ChunkRange, _e: Option<&()>| f(r);
        let call = crate::task::thunk_for::<_, ()>(&g);
        let data = &g as *const _ as *const ();
        let mut steal = local.steal.borrow_mut();
        // SAFETY: `g` outlives the call; execute_raw returns only after all
        // chunks ran; chunk ranges are disjoint.
        unsafe {
            local
                .sched
                .execute_raw(&mut steal, chunks, call, data, std::ptr::null());
        }
    }
    fn tasks_parallel(&self) -> bool {
        true
    }
}

impl crate::comm::PureComm {
    /// Internal accessor for the trait implementation above.
    pub(crate) fn comm_local(&self) -> &crate::runtime::RankLocal {
        &self.local
    }
}
