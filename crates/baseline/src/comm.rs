//! Baseline communicators and the [`pure_core::Communicator`] implementation.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::channel::{MpiChannel, MpiChannelKey};
use crate::runtime::{AnyMap, MpiLocal};
use netsim::WireTag;
use pure_core::datatype::PureDatatype;
use pure_core::runtime::Tag;
use pure_core::task::ChunkRange;
use pure_core::{CommRequest, Communicator};

/// Runtime-internal tag namespace (collectives, splits).
pub(crate) const INTERNAL: Tag = 0x8000_0000;

/// Immutable communicator metadata (identical on every member).
pub struct MpiCommMeta {
    /// Communicator id (world = 0).
    pub id: u64,
    /// World rank of each member, by comm rank.
    pub members: Vec<u32>,
}

impl MpiCommMeta {
    /// World communicator metadata.
    pub fn world(ranks: usize) -> Self {
        Self {
            id: 0,
            members: (0..ranks as u32).collect(),
        }
    }
}

/// Cross-node receive ordering state for one channel: posted buffers drain
/// network messages in post order.
pub struct RemoteRecvState {
    pending: VecDeque<(usize, usize)>, // (ptr as usize, cap)
    completed: u64,
    seq: u64,
}

/// Table of remote receive states, keyed like channels.
pub struct RemoteRecvTable {
    map: AnyMap<MpiChannelKey, Arc<Mutex<RemoteRecvState>>>,
}

impl RemoteRecvTable {
    /// Empty table.
    pub fn new() -> Self {
        Self {
            map: Mutex::new(std::collections::HashMap::new()),
        }
    }

    fn get(&self, key: MpiChannelKey) -> Arc<Mutex<RemoteRecvState>> {
        Arc::clone(self.map.lock().entry(key).or_insert_with(|| {
            Arc::new(Mutex::new(RemoteRecvState {
                pending: VecDeque::new(),
                completed: 0,
                seq: 0,
            }))
        }))
    }
}

impl Default for RemoteRecvTable {
    fn default() -> Self {
        Self::new()
    }
}

/// A communicator handle for one baseline rank.
pub struct MpiComm {
    meta: Arc<MpiCommMeta>,
    local: Rc<MpiLocal>,
    my_rank: usize,
    /// Collective epoch — salts nothing (FIFO channels make tags reusable)
    /// but tracked for diagnostics.
    rounds: Cell<u64>,
    splits: Cell<u64>,
}

impl MpiComm {
    pub(crate) fn from_meta(meta: Arc<MpiCommMeta>, local: Rc<MpiLocal>) -> Self {
        let my_rank = meta
            .members
            .iter()
            .position(|&w| w == local.rank as u32)
            .expect("rank is a member");
        Self {
            meta,
            local,
            my_rank,
            rounds: Cell::new(0),
            splits: Cell::new(0),
        }
    }

    pub(crate) fn local(&self) -> &MpiLocal {
        &self.local
    }

    pub(crate) fn next_round(&self) -> u64 {
        let r = self.rounds.get() + 1;
        self.rounds.set(r);
        r
    }

    fn world_of(&self, r: usize) -> usize {
        self.meta.members[r] as usize
    }

    fn key(&self, src: usize, dst: usize, tag: Tag) -> MpiChannelKey {
        MpiChannelKey {
            comm_id: self.meta.id,
            src: self.meta.members[src],
            dst: self.meta.members[dst],
            tag,
        }
    }

    fn is_local(&self, peer_world: usize) -> bool {
        self.local.shared.rank_node[peer_world] == self.local.node
    }

    fn wire(&self, src_world: usize, dst_world: usize, tag: Tag) -> WireTag {
        let s = &self.local.shared;
        WireTag::p2p(s.rank_local[src_world], s.rank_local[dst_world], tag)
    }

    /// Drive remote progress for `st`/`key` (drain netsim into posted
    /// buffers in order); returns completed count.
    fn remote_progress(&self, key: MpiChannelKey, st: &Mutex<RemoteRecvState>) -> u64 {
        let src_node = self.local.shared.rank_node[key.src as usize];
        let wire = self.wire(key.src as usize, key.dst as usize, key.tag);
        let mut g = st.lock();
        while let Some(&(ptr, cap)) = g.pending.front() {
            match self.local.ep.try_recv(src_node, wire) {
                Some(payload) => {
                    assert!(payload.len() <= cap, "remote message exceeds buffer");
                    // SAFETY: posted buffer valid until its ticket completes.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            payload.as_ptr(),
                            ptr as *mut u8,
                            payload.len(),
                        );
                    }
                    g.pending.pop_front();
                    g.completed += 1;
                }
                None => break,
            }
        }
        g.completed
    }

    /// Internal send, internal tags allowed.
    pub(crate) fn send_raw<T: PureDatatype>(&self, buf: &[T], dst: usize, tag: Tag) {
        let bytes = std::mem::size_of_val(buf);
        let dst_world = self.world_of(dst);
        self.local.msgs_sent.set(self.local.msgs_sent.get() + 1);
        self.local
            .bytes_sent
            .set(self.local.bytes_sent.get() + bytes as u64);
        if self.is_local(dst_world) {
            let ch = self
                .local
                .shared
                .channels
                .get(self.key(self.my_rank, dst, tag));
            let eager = self.local.shared.cfg.eager_max;
            // SAFETY: buf stays valid for this blocking call.
            let t = unsafe { ch.post_send(buf.as_ptr().cast(), bytes, eager) };
            self.wait_send_on(&ch, t, eager, bytes);
        } else {
            let dst_node = self.local.shared.rank_node[dst_world];
            self.local.ep.send(
                dst_node,
                self.wire(self.local.rank, dst_world, tag),
                pure_core::datatype::as_bytes(buf),
            );
        }
    }

    fn wait_send_on(&self, ch: &MpiChannel, ticket: u64, eager: usize, len: usize) {
        // Bounded condvar waits so a peer panic cannot hang the run.
        while !ch.send_done(ticket, eager, len) {
            self.local.shared.check_abort();
            ch.wait_send_timeout(ticket, eager, len, std::time::Duration::from_millis(20));
        }
    }

    fn wait_recv_on(&self, ch: &MpiChannel, ticket: u64) {
        while !ch.recv_done(ticket) {
            self.local.shared.check_abort();
            ch.wait_recv_timeout(ticket, std::time::Duration::from_millis(20));
        }
    }

    /// Internal non-blocking receive, internal tags allowed.
    pub(crate) fn irecv_internal<'a, T: PureDatatype>(
        &'a self,
        buf: &'a mut [T],
        src: usize,
        tag: Tag,
    ) -> MpiRequest<'a> {
        let bytes = std::mem::size_of_val(buf);
        let src_world = self.world_of(src);
        if self.is_local(src_world) {
            let ch = self
                .local
                .shared
                .channels
                .get(self.key(src, self.my_rank, tag));
            // SAFETY: the request's exclusive borrow keeps buf valid and
            // unaliased until completion.
            let ticket = unsafe { ch.post_recv(buf.as_mut_ptr().cast(), bytes) };
            MpiRequest::new(ReqInner::LocalRecv {
                ch,
                ticket,
                comm: self,
            })
        } else {
            let key = self.key(src, self.my_rank, tag);
            let st = self.local.shared.remote.get(key);
            let ticket = {
                let mut g = st.lock();
                g.seq += 1;
                g.pending.push_back((buf.as_mut_ptr() as usize, bytes));
                g.seq
            };
            MpiRequest::new(ReqInner::RemoteRecv {
                key,
                st,
                ticket,
                comm: self,
            })
        }
    }

    /// Internal receive, internal tags allowed.
    pub(crate) fn recv_raw<T: PureDatatype>(&self, buf: &mut [T], src: usize, tag: Tag) {
        let bytes = std::mem::size_of_val(buf);
        let src_world = self.world_of(src);
        if self.is_local(src_world) {
            let ch = self
                .local
                .shared
                .channels
                .get(self.key(src, self.my_rank, tag));
            // SAFETY: buf valid and unaliased until the wait completes.
            let t = unsafe { ch.post_recv(buf.as_mut_ptr().cast(), bytes) };
            self.wait_recv_on(&ch, t);
        } else {
            let key = self.key(src, self.my_rank, tag);
            let st = self.local.shared.remote.get(key);
            let ticket = {
                let mut g = st.lock();
                g.seq += 1;
                g.pending.push_back((buf.as_mut_ptr() as usize, bytes));
                g.seq
            };
            loop {
                if self.remote_progress(key, &st) >= ticket {
                    break;
                }
                self.local.shared.check_abort();
                std::thread::yield_now();
            }
        }
    }
}

/// A baseline non-blocking request. Completes on `wait` or on drop.
pub struct MpiRequest<'a> {
    inner: Option<ReqInner<'a>>,
}

enum ReqInner<'a> {
    /// Intra-node send.
    LocalSend {
        /// Channel.
        ch: Arc<MpiChannel>,
        /// Send ticket.
        ticket: u64,
        /// Eager threshold at post time.
        eager: usize,
        /// Message length.
        len: usize,
        /// Abort flag and borrow anchor.
        comm: &'a MpiComm,
    },
    /// Intra-node receive.
    LocalRecv {
        /// Channel.
        ch: Arc<MpiChannel>,
        /// Recv ticket.
        ticket: u64,
        /// Borrow anchor.
        comm: &'a MpiComm,
    },
    /// Cross-node send (completes at post).
    RemoteDone,
    /// Cross-node receive.
    RemoteRecv {
        /// Channel key.
        key: MpiChannelKey,
        /// Ordering state.
        st: Arc<Mutex<RemoteRecvState>>,
        /// Recv ticket.
        ticket: u64,
        /// Borrow anchor.
        comm: &'a MpiComm,
    },
}

impl CommRequest for MpiRequest<'_> {
    fn wait(mut self) {
        self.complete();
    }
    fn test(&mut self) -> bool {
        let done = match &self.inner {
            Some(ReqInner::LocalSend {
                ch,
                ticket,
                eager,
                len,
                ..
            }) => ch.send_done(*ticket, *eager, *len),
            Some(ReqInner::LocalRecv { ch, ticket, .. }) => ch.recv_done(*ticket),
            Some(ReqInner::RemoteRecv {
                key,
                st,
                ticket,
                comm,
            }) => comm.remote_progress(*key, st) >= *ticket,
            Some(ReqInner::RemoteDone) | None => true,
        };
        if done {
            self.inner = None;
        }
        done
    }

    /// The default round-robin sweep, plus the abort check every baseline
    /// wait makes, so a peer's panic unwinds this rank instead of hanging
    /// it. `test` itself stays panic-free: `Drop` calls it while unwinding.
    fn wait_all(mut reqs: Vec<Self>) {
        loop {
            reqs.retain_mut(|r| !r.test());
            // Every request left is incomplete, so it holds its communicator.
            match reqs.first().and_then(|r| r.inner.as_ref()) {
                Some(
                    ReqInner::LocalSend { comm, .. }
                    | ReqInner::LocalRecv { comm, .. }
                    | ReqInner::RemoteRecv { comm, .. },
                ) => comm.local.shared.check_abort(),
                _ => return,
            }
            std::thread::yield_now();
        }
    }
}

impl<'a> MpiRequest<'a> {
    fn new(inner: ReqInner<'a>) -> Self {
        Self { inner: Some(inner) }
    }

    fn complete(&mut self) {
        match self.inner.take() {
            Some(ReqInner::LocalSend {
                ch,
                ticket,
                eager,
                len,
                comm,
            }) => {
                comm.wait_send_on(&ch, ticket, eager, len);
            }
            Some(ReqInner::LocalRecv { ch, ticket, comm }) => {
                comm.wait_recv_on(&ch, ticket);
            }
            Some(ReqInner::RemoteRecv {
                key,
                st,
                ticket,
                comm,
            }) => loop {
                if comm.remote_progress(key, &st) >= ticket {
                    break;
                }
                comm.local.shared.check_abort();
                std::thread::yield_now();
            },
            Some(ReqInner::RemoteDone) | None => {}
        }
    }
}

impl Drop for MpiRequest<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Bounded best-effort completion during unwinding; a panic here
            // would abort the process (the run is already failing).
            for _ in 0..1000 {
                if self.test() {
                    return;
                }
                std::thread::yield_now();
            }
            self.inner = None;
            return;
        }
        self.complete();
    }
}

impl Communicator for MpiComm {
    type Req<'a> = MpiRequest<'a>;

    fn rank(&self) -> usize {
        self.my_rank
    }
    fn size(&self) -> usize {
        self.meta.members.len()
    }

    fn send<T: PureDatatype>(&self, buf: &[T], dst: usize, tag: Tag) {
        assert!(tag < INTERNAL, "tags with the top bit set are reserved");
        self.send_raw(buf, dst, tag);
    }

    fn recv<T: PureDatatype>(&self, buf: &mut [T], src: usize, tag: Tag) {
        assert!(tag < INTERNAL, "tags with the top bit set are reserved");
        self.recv_raw(buf, src, tag);
    }

    fn isend<'a, T: PureDatatype>(&'a self, buf: &'a [T], dst: usize, tag: Tag) -> MpiRequest<'a> {
        assert!(tag < INTERNAL, "tags with the top bit set are reserved");
        let bytes = std::mem::size_of_val(buf);
        let dst_world = self.world_of(dst);
        self.local.msgs_sent.set(self.local.msgs_sent.get() + 1);
        self.local
            .bytes_sent
            .set(self.local.bytes_sent.get() + bytes as u64);
        if self.is_local(dst_world) {
            let ch = self
                .local
                .shared
                .channels
                .get(self.key(self.my_rank, dst, tag));
            let eager = self.local.shared.cfg.eager_max;
            // SAFETY: the request's borrow keeps buf valid until completion.
            let ticket = unsafe { ch.post_send(buf.as_ptr().cast(), bytes, eager) };
            MpiRequest::new(ReqInner::LocalSend {
                ch,
                ticket,
                eager,
                len: bytes,
                comm: self,
            })
        } else {
            let dst_node = self.local.shared.rank_node[dst_world];
            self.local.ep.send(
                dst_node,
                self.wire(self.local.rank, dst_world, tag),
                pure_core::datatype::as_bytes(buf),
            );
            MpiRequest::new(ReqInner::RemoteDone)
        }
    }

    fn irecv<'a, T: PureDatatype>(
        &'a self,
        buf: &'a mut [T],
        src: usize,
        tag: Tag,
    ) -> MpiRequest<'a> {
        assert!(tag < INTERNAL, "tags with the top bit set are reserved");
        self.irecv_internal(buf, src, tag)
    }

    fn barrier(&self) {
        self.barrier_impl();
    }

    fn allreduce<T: pure_core::Reducible>(
        &self,
        input: &[T],
        output: &mut [T],
        op: pure_core::ReduceOp,
    ) {
        self.allreduce_impl(input, output, op);
    }

    fn reduce<T: pure_core::Reducible>(
        &self,
        input: &[T],
        output: Option<&mut [T]>,
        root: usize,
        op: pure_core::ReduceOp,
    ) {
        self.reduce_impl(input, output, root, op);
    }

    fn bcast<T: PureDatatype>(&self, data: &mut [T], root: usize) {
        self.bcast_impl(data, root);
    }

    fn split(&self, color: i64, key: i64) -> Option<Self> {
        let epoch = self.splits.get();
        self.splits.set(epoch + 1);
        let p = self.size();
        let itag = INTERNAL | 0x100 | ((epoch as u32 & 0xFFFF) << 8);
        let mut table = vec![0i64; 2 * p];
        if self.my_rank == 0 {
            table[0] = color;
            table[1] = key;
            for r in 1..p {
                let mut pair = [0i64; 2];
                self.recv_raw(&mut pair, r, itag);
                table[2 * r] = pair[0];
                table[2 * r + 1] = pair[1];
            }
        } else {
            self.send_raw(&[color, key], 0, itag);
        }
        self.bcast_impl(&mut table, 0);
        if color < 0 {
            return None;
        }
        let mut group: Vec<usize> = (0..p).filter(|&r| table[2 * r] == color).collect();
        group.sort_by_key(|&r| (table[2 * r + 1], r));
        let members: Vec<u32> = group.iter().map(|&cr| self.meta.members[cr]).collect();
        let new_id = mix(self.meta.id ^ mix(epoch ^ 0xBA5E) ^ color as u64);
        Some(MpiComm::from_meta(
            Arc::new(MpiCommMeta {
                id: new_id,
                members,
            }),
            Rc::clone(&self.local),
        ))
    }

    fn task_execute(&self, chunks: u32, f: &(dyn Fn(ChunkRange) + Sync)) {
        // MPI-everywhere: no tasking — run every chunk serially, right here.
        for c in 0..chunks {
            f(ChunkRange {
                start: c,
                end: c + 1,
                total: chunks,
            });
        }
    }
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
