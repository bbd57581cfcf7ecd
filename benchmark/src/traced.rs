//! A [`Communicator`] that records a span around every call it forwards.
//!
//! Workloads and `run_comd` are written against the `Communicator` trait, so
//! a traced run hands them `Traced<C>` in place of `C` and gets a span per
//! call into `msg`, `collectives` and `task` without any change inside the
//! program under test. Untraced runs use `C` directly.

use pure_core::datatype::{PureDatatype, ReduceOp, Reducible};
use pure_core::runtime::Tag;
use pure_core::task::ChunkRange;
use pure_core::{CommRequest, Communicator};

use crate::spans::SpanBuf;

/// The wrapped communicator: the runtimes lend their world communicator by
/// reference, while `split` creates one that must be owned.
enum Held<'s, C> {
    Ref(&'s C),
    Own(C),
}

impl<C> std::ops::Deref for Held<'_, C> {
    type Target = C;
    fn deref(&self) -> &C {
        match self {
            Held::Ref(c) => c,
            Held::Own(c) => c,
        }
    }
}

/// A communicator with spans recorded into `spans`.
pub struct Traced<'s, C> {
    inner: Held<'s, C>,
    spans: &'s SpanBuf,
}

impl<'s, C: Communicator> Traced<'s, C> {
    /// Wrap `inner`.
    pub fn new(inner: &'s C, spans: &'s SpanBuf) -> Self {
        Self {
            inner: Held::Ref(inner),
            spans,
        }
    }
}

/// A request whose completion wait is recorded as a span.
pub struct TracedReq<'s, R> {
    inner: R,
    spans: &'s SpanBuf,
}

impl<R: CommRequest> CommRequest for TracedReq<'_, R> {
    fn wait(self) {
        self.spans.scoped("msg.wait", || self.inner.wait())
    }
    fn test(&mut self) -> bool {
        self.inner.test()
    }
}

impl<'s, C: Communicator> Communicator for Traced<'s, C> {
    type Req<'a>
        = TracedReq<'s, C::Req<'a>>
    where
        Self: 'a;

    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn send<T: PureDatatype>(&self, buf: &[T], dst: usize, tag: Tag) {
        self.spans
            .scoped("msg.send", || self.inner.send(buf, dst, tag))
    }
    fn recv<T: PureDatatype>(&self, buf: &mut [T], src: usize, tag: Tag) {
        self.spans
            .scoped("msg.recv", || self.inner.recv(buf, src, tag))
    }
    fn isend<'a, T: PureDatatype>(&'a self, buf: &'a [T], dst: usize, tag: Tag) -> Self::Req<'a> {
        let inner = self
            .spans
            .scoped("msg.isend", || self.inner.isend(buf, dst, tag));
        TracedReq {
            inner,
            spans: self.spans,
        }
    }
    fn irecv<'a, T: PureDatatype>(
        &'a self,
        buf: &'a mut [T],
        src: usize,
        tag: Tag,
    ) -> Self::Req<'a> {
        let inner = self
            .spans
            .scoped("msg.irecv", || self.inner.irecv(buf, src, tag));
        TracedReq {
            inner,
            spans: self.spans,
        }
    }
    fn barrier(&self) {
        self.spans
            .scoped("collectives.barrier", || self.inner.barrier())
    }
    fn allreduce<T: Reducible>(&self, input: &[T], output: &mut [T], op: ReduceOp) {
        self.spans.scoped("collectives.allreduce", || {
            self.inner.allreduce(input, output, op)
        })
    }
    fn reduce<T: Reducible>(
        &self,
        input: &[T],
        output: Option<&mut [T]>,
        root: usize,
        op: ReduceOp,
    ) {
        self.spans.scoped("collectives.reduce", || {
            self.inner.reduce(input, output, root, op)
        })
    }
    fn bcast<T: PureDatatype>(&self, data: &mut [T], root: usize) {
        self.spans
            .scoped("collectives.bcast", || self.inner.bcast(data, root))
    }
    fn gather<T: PureDatatype>(&self, send: &[T], recv: Option<&mut [T]>, root: usize) {
        self.spans
            .scoped("collectives.gather", || self.inner.gather(send, recv, root))
    }
    fn allgather<T: PureDatatype>(&self, send: &[T], recv: &mut [T]) {
        self.spans
            .scoped("collectives.allgather", || self.inner.allgather(send, recv))
    }
    fn scatter<T: PureDatatype>(&self, send: Option<&[T]>, recv: &mut [T], root: usize) {
        self.spans.scoped("collectives.scatter", || {
            self.inner.scatter(send, recv, root)
        })
    }
    fn scan<T: Reducible>(&self, input: &[T], output: &mut [T], op: ReduceOp) {
        self.spans
            .scoped("collectives.scan", || self.inner.scan(input, output, op))
    }
    fn alltoall<T: PureDatatype>(&self, send: &[T], recv: &mut [T]) {
        self.spans
            .scoped("collectives.alltoall", || self.inner.alltoall(send, recv))
    }
    fn split(&self, color: i64, key: i64) -> Option<Self> {
        self.inner.split(color, key).map(|inner| Traced {
            inner: Held::Own(inner),
            spans: self.spans,
        })
    }
    fn task_execute(&self, chunks: u32, f: &(dyn Fn(ChunkRange) + Sync)) {
        self.spans
            .scoped("task.execute", || self.inner.task_execute(chunks, f))
    }
    fn tasks_parallel(&self) -> bool {
        self.inner.tasks_parallel()
    }
}
