//! Point-to-point messaging (§4.1): `pure_send_msg` / `pure_recv_msg` and
//! their non-blocking variants, on top of the channel layer.
//!
//! Semantics follow MPI: blocking send returns once the buffer is reusable
//! (copied into the PBQ, or copied into the receiver's buffer for
//! rendezvous); messages between a given sender/receiver pair with a given
//! tag arrive in send order; non-blocking operations complete in post order
//! and must be waited on ([`Request`] waits on drop, so forgetting a wait
//! cannot corrupt a buffer).

use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;
use std::time::Duration;

use crate::api::CommRequest;
use crate::channel::{CancelOutcome, ChannelKey, RecvOverrun};
use crate::comm::PureComm;
use crate::datatype::PureDatatype;
use crate::error::{PureError, PureResult};
use crate::runtime::{ChannelHandle, RankLocal, Tag, WaitOp, WaitPeers, INTERNAL_TAG_BASE};
use crate::telemetry;

/// Escalate a channel-layer receive overrun as a structured truncation
/// through the launch abort protocol (peers unwind, the watchdog dump
/// fires, the launch reports `pure: rank R failed: …`).
fn escalate_overrun(
    local: &RankLocal,
    o: RecvOverrun,
    op: &'static str,
    peer: Option<usize>,
    tag: Option<Tag>,
) -> ! {
    local.escalate(PureError::Truncation {
        rank: local.rank,
        op,
        peer,
        sent: o.sent,
        capacity: o.capacity,
        tag,
    })
}

impl PureComm {
    fn key_for(&self, src: usize, dst: usize, tag: Tag, bytes: usize) -> ChannelKey {
        assert!(
            src < self.size() && dst < self.size(),
            "peer rank out of range"
        );
        ChannelKey {
            comm_id: self.meta.id,
            src: self.meta.members[src],
            dst: self.meta.members[dst],
            tag,
            bytes: bytes as u64,
        }
    }

    /// Blocking send of `buf` to comm rank `dst` (`pure_send_msg`). Returns
    /// once `buf` is reusable. The matching receive must use the same
    /// element count.
    pub fn send<T: PureDatatype>(&self, buf: &[T], dst: usize, tag: Tag) {
        assert!(
            tag < INTERNAL_TAG_BASE,
            "tags with the top bit set are reserved"
        );
        self.send_with_tag(buf, dst, tag);
    }

    pub(crate) fn send_with_tag<T: PureDatatype>(&self, buf: &[T], dst: usize, tag: Tag) {
        let _span = telemetry::span("send");
        self.local.op_event();
        if let Err(e) = self.op_enter("send") {
            self.local.escalate(e);
        }
        let bytes = std::mem::size_of_val(buf);
        let key = self.key_for(self.my_comm_rank, dst, tag, bytes);
        let ch = self.local.channel(key);
        // Fast path: nothing pending on this channel and the transport has
        // room — the payload goes straight into the PBQ slot (or envelope),
        // skipping the in-flight queue.
        // SAFETY: we are the sender thread for this channel (the key names
        // us); buf stays valid for the duration of this blocking call.
        if !unsafe { ch.try_send_now(&self.local.ep, buf.as_ptr().cast(), bytes) } {
            // SAFETY: as above.
            let seq = unsafe { ch.post_send(&self.local.ep, buf.as_ptr().cast(), bytes) };
            let peer = self.meta.members[dst] as usize;
            self.local.ssw_op(WaitOp::Send, Some(peer), Some(tag), || {
                ch.try_flush_sends(&self.local.ep, seq + 1).then_some(())
            });
        }
        self.local.count_sent(bytes);
    }

    /// [`PureComm::send`] with a deadline: `Err(PureError::Timeout)` when
    /// the transfer cannot complete within `timeout`. On timeout the send
    /// is withdrawn — the message is **not** delivered later — unless the
    /// channel's ordering made withdrawal impossible (older sends were
    /// still queued ahead of it), in which case the call keeps blocking to
    /// preserve the no-reorder guarantee.
    pub fn send_timeout<T: PureDatatype>(
        &self,
        buf: &[T],
        dst: usize,
        tag: Tag,
        timeout: Duration,
    ) -> PureResult<()> {
        assert!(
            tag < INTERNAL_TAG_BASE,
            "tags with the top bit set are reserved"
        );
        self.local.op_event();
        self.op_enter("send")?;
        let bytes = std::mem::size_of_val(buf);
        let key = self.key_for(self.my_comm_rank, dst, tag, bytes);
        let ch = self.local.channel(key);
        let peer = self.meta.members[dst] as usize;
        // SAFETY: sender thread; buf valid for the duration of this call.
        if unsafe { ch.try_send_now(&self.local.ep, buf.as_ptr().cast(), bytes) } {
            self.local.count_sent(bytes);
            return Ok(());
        }
        // SAFETY: as above — and on timeout the post is either withdrawn or
        // completed before returning, so the borrow never outlives the call.
        let seq = unsafe { ch.post_send(&self.local.ep, buf.as_ptr().cast(), bytes) };
        let waited = self
            .local
            .ssw_try_op(WaitOp::Send, Some(peer), Some(tag), timeout, || {
                ch.try_flush_sends(&self.local.ep, seq + 1).then_some(())
            });
        match waited {
            Ok(()) => {
                self.local.count_sent(bytes);
                Ok(())
            }
            Err(e) => match ch.try_cancel_send(seq) {
                CancelOutcome::Canceled => Err(e),
                CancelOutcome::Completed => {
                    self.local.count_sent(bytes);
                    Ok(())
                }
                CancelOutcome::InFlight => {
                    self.local
                        .ssw_op(WaitOp::SendUnwithdrawable, Some(peer), Some(tag), || {
                            ch.try_flush_sends(&self.local.ep, seq + 1).then_some(())
                        });
                    self.local.count_sent(bytes);
                    Ok(())
                }
            },
        }
    }

    /// Blocking receive from comm rank `src` (`pure_recv_msg`).
    pub fn recv<T: PureDatatype>(&self, buf: &mut [T], src: usize, tag: Tag) {
        assert!(
            tag < INTERNAL_TAG_BASE,
            "tags with the top bit set are reserved"
        );
        self.recv_with_tag(buf, src, tag);
    }

    pub(crate) fn recv_with_tag<T: PureDatatype>(&self, buf: &mut [T], src: usize, tag: Tag) {
        let _span = telemetry::span("recv");
        self.local.op_event();
        if let Err(e) = self.op_enter("recv") {
            self.local.escalate(e);
        }
        let bytes = std::mem::size_of_val(buf);
        let key = self.key_for(src, self.my_comm_rank, tag, bytes);
        let ch = self.local.channel(key);
        let peer = self.meta.members[src] as usize;
        let fail = |o| escalate_overrun(&self.local, o, "recv", Some(peer), Some(tag));
        // Fast path: nothing pending and the message already waits in its
        // slot — copy it out in place (the PBQ's `try_recv_with` path) with
        // no in-flight bookkeeping.
        // SAFETY: we are the receiver thread; buf stays valid and untouched
        // until completion below.
        let now = unsafe { ch.try_recv_now(&self.local.ep, buf.as_mut_ptr().cast(), bytes) }
            .unwrap_or_else(fail);
        if !now {
            // SAFETY: as above.
            let seq = unsafe { ch.post_recv(buf.as_mut_ptr().cast(), bytes) };
            self.local.ssw_op(WaitOp::Recv, Some(peer), Some(tag), || {
                ch.try_complete_recvs(&self.local.ep, seq + 1)
                    .unwrap_or_else(fail)
                    .then_some(())
            });
        }
        self.local.count_recvd();
    }

    /// [`PureComm::recv`] with a deadline: `Err(PureError::Timeout)` when no
    /// matching message arrives within `timeout`. On timeout the posted
    /// receive is withdrawn and the buffer is immediately reusable; if the
    /// sender won the race mid-transfer, the receive completes and `Ok` is
    /// returned instead.
    pub fn recv_timeout<T: PureDatatype>(
        &self,
        buf: &mut [T],
        src: usize,
        tag: Tag,
        timeout: Duration,
    ) -> PureResult<()> {
        assert!(
            tag < INTERNAL_TAG_BASE,
            "tags with the top bit set are reserved"
        );
        self.local.op_event();
        self.op_enter("recv")?;
        let bytes = std::mem::size_of_val(buf);
        let key = self.key_for(src, self.my_comm_rank, tag, bytes);
        let ch = self.local.channel(key);
        let peer = self.meta.members[src] as usize;
        let fail = |o| escalate_overrun(&self.local, o, "recv", Some(peer), Some(tag));
        // SAFETY: receiver thread; buf valid for the duration of this call.
        let now = unsafe { ch.try_recv_now(&self.local.ep, buf.as_mut_ptr().cast(), bytes) }
            .unwrap_or_else(fail);
        if now {
            self.local.count_recvd();
            return Ok(());
        }
        // SAFETY: as above — on timeout the post is withdrawn or completed
        // before returning, so the mutable borrow never escapes the call.
        let seq = unsafe { ch.post_recv(buf.as_mut_ptr().cast(), bytes) };
        let waited = self
            .local
            .ssw_try_op(WaitOp::Recv, Some(peer), Some(tag), timeout, || {
                ch.try_complete_recvs(&self.local.ep, seq + 1)
                    .unwrap_or_else(fail)
                    .then_some(())
            });
        match waited {
            Ok(()) => {
                self.local.count_recvd();
                Ok(())
            }
            Err(e) => match ch.try_cancel_recv(seq) {
                CancelOutcome::Canceled => Err(e),
                CancelOutcome::Completed => {
                    self.local.count_recvd();
                    Ok(())
                }
                // The sender claimed the envelope mid-copy: the transfer is
                // about to finish, so completing it is bounded.
                CancelOutcome::InFlight => {
                    self.local
                        .ssw_op(WaitOp::RecvFinishing, Some(peer), Some(tag), || {
                            ch.try_complete_recvs(&self.local.ep, seq + 1)
                                .unwrap_or_else(fail)
                                .then_some(())
                        });
                    self.local.count_recvd();
                    Ok(())
                }
            },
        }
    }

    /// Non-blocking send. The buffer is borrowed until the request completes.
    pub fn isend<'a, T: PureDatatype>(&'a self, buf: &'a [T], dst: usize, tag: Tag) -> Request<'a> {
        assert!(
            tag < INTERNAL_TAG_BASE,
            "tags with the top bit set are reserved"
        );
        if let Err(e) = self.op_enter("isend") {
            self.local.escalate(e);
        }
        let bytes = std::mem::size_of_val(buf);
        let key = self.key_for(self.my_comm_rank, dst, tag, bytes);
        let ch = self.local.channel(key);
        // SAFETY: sender thread; Request's borrow keeps buf alive & frozen
        // until completion (wait or drop).
        let seq = unsafe { ch.post_send(&self.local.ep, buf.as_ptr().cast(), bytes) };
        if !ch.try_flush_sends(&self.local.ep, seq + 1) {
            // Not yet through the queue: let the SSW-Loop progress it even
            // while this rank blocks elsewhere.
            self.local.note_pending_send(&ch);
        }
        Request {
            ch,
            local: Rc::clone(&self.local),
            upto: seq + 1,
            kind: ReqKind::Send { bytes },
            done: false,
            peer: self.meta.members[dst] as usize,
            tag,
            _borrow: PhantomData,
        }
    }

    /// Non-blocking receive. The buffer is mutably borrowed until the
    /// request completes; the payload appears in it after `wait`.
    pub fn irecv<'a, T: PureDatatype>(
        &'a self,
        buf: &'a mut [T],
        src: usize,
        tag: Tag,
    ) -> Request<'a> {
        assert!(
            tag < INTERNAL_TAG_BASE,
            "tags with the top bit set are reserved"
        );
        if let Err(e) = self.op_enter("irecv") {
            self.local.escalate(e);
        }
        let bytes = std::mem::size_of_val(buf);
        let key = self.key_for(src, self.my_comm_rank, tag, bytes);
        let ch = self.local.channel(key);
        // SAFETY: receiver thread; Request's exclusive borrow keeps buf
        // alive and unaliased until completion.
        let seq = unsafe { ch.post_recv(buf.as_mut_ptr().cast(), bytes) };
        Request {
            ch,
            local: Rc::clone(&self.local),
            upto: seq + 1,
            kind: ReqKind::Recv,
            done: false,
            peer: self.meta.members[src] as usize,
            tag,
            _borrow: PhantomData,
        }
    }

    /// Combined send+receive (the halo-exchange workhorse): posts both,
    /// completes both, deadlock-free regardless of peer ordering.
    pub fn sendrecv<T: PureDatatype>(
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
}

enum ReqKind {
    /// A send of `bytes` payload bytes.
    Send {
        bytes: usize,
    },
    Recv,
}

/// An in-flight non-blocking operation. Completes on [`Request::wait`] (or
/// on drop, which blocks — a dropped request is an application bug in MPI;
/// here it is merely a blocking no-op).
pub struct Request<'a> {
    ch: ChannelHandle,
    local: Rc<RankLocal>,
    upto: u64,
    kind: ReqKind,
    done: bool,
    /// Peer world rank, kept for wait diagnostics and truncation errors.
    peer: usize,
    /// Application tag, kept for wait diagnostics and truncation errors.
    tag: Tag,
    _borrow: PhantomData<&'a mut ()>,
}

impl Request<'_> {
    fn poll(&self) -> bool {
        match self.kind {
            ReqKind::Send { .. } => self.ch.try_flush_sends(&self.local.ep, self.upto),
            ReqKind::Recv => self
                .ch
                .try_complete_recvs(&self.local.ep, self.upto)
                .unwrap_or_else(|o| {
                    escalate_overrun(&self.local, o, "irecv", Some(self.peer), Some(self.tag))
                }),
        }
    }

    /// Non-blocking completion check (like `MPI_Test`). A fruitless test
    /// counts as a fruitless poll of a wait the caller is building: what
    /// this rank has buffered for cross-node coalescing goes out, exactly
    /// as in [`Request::wait`].
    pub fn test(&mut self) -> bool {
        if !self.done {
            if self.poll() {
                self.complete();
            } else {
                self.local.ep.flush_sent();
            }
        }
        self.done
    }

    /// Mark the operation done and count its message in the rank's stats.
    /// A withdrawn operation is marked done without this: it moved nothing.
    fn complete(&mut self) {
        self.done = true;
        match self.kind {
            ReqKind::Send { bytes } => self.local.count_sent(bytes),
            ReqKind::Recv => self.local.count_recvd(),
        }
    }

    /// Block (SSW-Loop) until the operation completes.
    pub fn wait(mut self) {
        self.wait_inner();
    }

    /// [`Request::wait`] with a deadline. On `Err(PureError::Timeout)` the
    /// operation was withdrawn — its buffer is released and the transfer
    /// will not happen later. If the operation raced to completion (or was
    /// mid-transfer and could only be finished), `Ok(())` is returned.
    pub fn wait_timeout(mut self, timeout: Duration) -> PureResult<()> {
        if self.done {
            return Ok(());
        }
        let ch = Rc::clone(&self.ch);
        let local = Rc::clone(&self.local);
        let kind_send = matches!(self.kind, ReqKind::Send { .. });
        let op = if kind_send {
            WaitOp::IsendWait
        } else {
            WaitOp::IrecvWait
        };
        let waited = local.ssw_try_op(op, Some(self.peer), Some(self.tag), timeout, || {
            self.poll().then_some(())
        });
        match waited {
            Ok(()) => {
                self.complete();
                Ok(())
            }
            Err(e) => {
                let out = if kind_send {
                    ch.try_cancel_send(self.upto - 1)
                } else {
                    ch.try_cancel_recv(self.upto - 1)
                };
                match out {
                    CancelOutcome::Canceled => {
                        self.done = true;
                        Err(e)
                    }
                    CancelOutcome::Completed => {
                        self.complete();
                        Ok(())
                    }
                    // Unwithdrawable (older ops queued ahead, or a sender
                    // mid-copy): finish it so the borrow can be released.
                    CancelOutcome::InFlight => {
                        self.wait_inner();
                        Ok(())
                    }
                }
            }
        }
    }

    fn wait_inner(&mut self) {
        if self.done {
            return;
        }
        if std::thread::panicking() {
            // Completing from a Drop during unwinding (typically after a
            // peer-abort panic): best-effort bounded polling — a second
            // panic here would abort the process. The run is already fatal.
            for _ in 0..1000 {
                if self.poll() {
                    self.complete();
                    return;
                }
                std::thread::yield_now();
            }
            self.done = true;
            return;
        }
        let local = Rc::clone(&self.local);
        let op = match self.kind {
            ReqKind::Send { .. } => WaitOp::IsendWait,
            ReqKind::Recv => WaitOp::IrecvWait,
        };
        local.ssw_op(op, Some(self.peer), Some(self.tag), || {
            self.poll().then_some(())
        });
        self.complete();
    }
}

impl Drop for Request<'_> {
    fn drop(&mut self) {
        self.wait_inner();
    }
}

impl CommRequest for Request<'_> {
    fn wait(self) {
        Request::wait(self)
    }

    fn test(&mut self) -> bool {
        Request::test(self)
    }

    /// One SSW wait, `"wait_all"`, whose poll completes every request that
    /// is ready: the batch steals, honours the progress deadline, is seen
    /// by the watchdog and is crash-probed on the peer of every request
    /// still incomplete, exactly as a single [`Request::wait`].
    fn wait_all(reqs: Vec<Self>) {
        // A request `test` already completed is not polled, nor counted, again.
        let pending = RefCell::new(reqs.into_iter().filter(|r| !r.done).collect::<Vec<_>>());
        let Some(local) = pending.borrow().first().map(|r| Rc::clone(&r.local)) else {
            return;
        };
        local.ssw_op(WaitOp::WaitAll, &pending, None, || {
            let mut reqs = pending.borrow_mut();
            reqs.retain_mut(|r| {
                let ready = r.poll();
                if ready {
                    r.complete();
                }
                !ready
            });
            reqs.is_empty().then_some(())
        });
    }
}

impl WaitPeers for &RefCell<Vec<Request<'_>>> {
    fn find(&self, hit: impl Fn(usize) -> bool) -> Option<usize> {
        self.borrow().iter().map(|r| r.peer).find(|&p| hit(p))
    }
}
