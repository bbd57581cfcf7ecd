//! The collective algorithms (§4.2): leader flat-combining on small data,
//! the all-thread Partitioned Reducer on large data, broadcast, barrier and
//! reduce — all composed from the SPTD protocol within nodes and the
//! `crate::internode` leader algorithms across nodes.
//!
//! ## Round protocol
//!
//! Every collective call on a communicator consumes one *round* `r` from the
//! comm's local counter (all members call collectives in the same order, so
//! the counters agree — MPI's ordering requirement). The invariants:
//!
//! 1. every member signals **arrival** at round `r` (its SPTD sequence)
//!    after writing any payload;
//! 2. a member only mutates *shared* state of round `r` (scratch, broadcast
//!    buffer) after observing **all** arrivals at `r` — since arrival at `r`
//!    implies a member finished round `r-1`, this is the flow control that
//!    lets buffers be reused round after round with no extra fences;
//! 3. results are published with a release store of the round into
//!    `leader_seq` / `bcast_seq` / per-member `done` and observed with
//!    acquire loads.
//!
//! A reduction's result lands in one of two places. The small path and the
//! large path of a group that spans nodes leave it in the leader's scratch,
//! and every member copies it out after `leader_seq`. The large path on one
//! node writes it straight into every member's output buffer, which the
//! member reads after `leader_seq`: the leader publishes only after every
//! member's `done` backedge, i.e. after the last write.

use interleave::sync::atomic::Ordering;

use crate::comm::PureComm;
use crate::datatype::{as_bytes, PureDatatype, ReduceOp, Reducible};
use crate::runtime::WaitOp;
use crate::telemetry::{self, Counter};
use crate::util::cache::aligned_chunk_range;

use super::sptd::reduce_published;

/// What a member deposits in its dropbox when it arrives.
enum Arrive<'a> {
    Nothing,
    Bytes(&'a [u8]),
    /// Input pointer, output pointer (null: no result wanted), byte length.
    Buffers(*const u8, *mut u8, usize),
}

impl PureComm {
    fn bump_collective_stat(&self) {
        self.local.op_event();
        if let Err(e) = self.op_enter("collective") {
            self.local.escalate(e);
        }
        self.local.collectives.set(self.local.collectives.get() + 1);
    }

    fn multi_node(&self) -> bool {
        self.meta.nodes.len() > 1
    }

    /// Invariant 1: deposit payload (if any) and signal arrival at `r`.
    fn arrive(&self, r: u64, payload: Arrive<'_>) {
        let me = &self.area.sptd[self.my_group_pos];
        // SAFETY: we are this dropbox's owner, and all readers of the
        // previous round have finished (invariant 2 held last round).
        unsafe {
            match payload {
                Arrive::Nothing => {}
                Arrive::Bytes(b) => me.write_bytes(b),
                Arrive::Buffers(i, o, l) => me.write_buffers(i, o, l),
            }
        }
        me.publish_seq(r);
        telemetry::count(Counter::SptdRound);
    }

    /// Invariant 2: wait until every group member has arrived at `r`.
    fn wait_all_arrivals(&self, r: u64) {
        let g = self.group_len();
        // Batched scan: one SSW wait sweeping every dropbox, instead of g−1
        // sequential waits each paying its own steal/yield cycle. `next`
        // persists across polls so already-seen arrivals are never re-loaded.
        let mut next = 0usize;
        self.local.ssw_op(WaitOp::CollArrivals, None, None, || {
            while next < g {
                if next == self.my_group_pos || self.area.sptd[next].seq() >= r {
                    next += 1;
                } else {
                    return None;
                }
            }
            Some(())
        });
    }

    fn wait_leader_seq(&self, r: u64) {
        self.local.ssw_op(WaitOp::CollLeaderResult, None, None, || {
            (self.area.leader_seq() >= r).then_some(())
        });
    }

    /// Finish reduction round `r`: wait for the leader's publication, then
    /// copy the result out of scratch into `out` unless the round was
    /// `small` or ran on one node, where the Partitioned Reducer wrote `out`
    /// directly. Every member waits, with or without `out`: its published
    /// buffers must stay valid until the leader has seen every `done`.
    fn finish_reduction<T: Reducible>(&self, r: u64, small: bool, out: Option<&mut [T]>) {
        self.wait_leader_seq(r);
        if let Some(out) = out.filter(|_| small || self.multi_node()) {
            // SAFETY: observed leader_seq >= r; scratch holds round r's
            // result and is not mutated until all members arrive at a
            // later round.
            out.copy_from_slice(unsafe { self.area.scratch.as_slice::<T>(out.len()) });
        }
    }

    /// Wait until every group member has published its `done` backedge for
    /// round `r` (leader side), with the same batched single-scan shape as
    /// [`PureComm::wait_all_arrivals`].
    fn wait_all_done(&self, r: u64) {
        let g = self.group_len();
        let mut next = 0usize;
        self.local
            .ssw_op(WaitOp::CollDoneBackedges, None, None, || {
                while next < g {
                    if self.area.sptd[next].done() >= r {
                        next += 1;
                    } else {
                        return None;
                    }
                }
                Some(())
            });
    }

    /// Barrier (§4.2; evaluated in Figure 7b/7c).
    pub fn barrier(&self) {
        let _span = telemetry::span("barrier");
        self.bump_collective_stat();
        let r = self.next_round();
        self.arrive(r, Arrive::Nothing);
        if self.is_leader() {
            self.wait_all_arrivals(r);
            if self.multi_node() {
                self.leader_group().barrier();
            }
            self.area.publish_leader(r);
        } else {
            self.wait_leader_seq(r);
        }
    }

    /// All-reduce (§4.2.1 small / §4.2.2 large; evaluated in Figure 7a):
    /// element-wise `op` over every member's `input`, full result in every
    /// member's `output`.
    pub fn allreduce<T: Reducible>(&self, input: &[T], output: &mut [T], op: ReduceOp) {
        assert_eq!(
            input.len(),
            output.len(),
            "allreduce buffer length mismatch"
        );
        let _span = telemetry::span("allreduce");
        self.bump_collective_stat();
        let r = self.next_round();
        let small = std::mem::size_of_val(input) <= self.local.shared.cfg.small_coll_max;
        if small {
            self.reduce_small(r, input, op, None);
        } else {
            self.reduce_large(
                r,
                input.as_ptr(),
                output.as_mut_ptr(),
                input.len(),
                op,
                None,
            );
        }
        self.finish_reduction(r, small, Some(output));
    }

    /// In-place all-reduce (the `MPI_IN_PLACE` convenience): `buf` holds
    /// this rank's contribution on entry and the full reduction on exit.
    ///
    /// Runs the same round protocol as [`PureComm::allreduce`] with `buf`
    /// serving as both input and output — no staging copy. On the small path
    /// `buf` was copied into the dropbox at arrival, so overwriting it after
    /// `leader_seq` is safe. On the large path each member reduces its chunk
    /// of every input into a private tile before it writes that chunk of any
    /// output, and no other member touches the chunk.
    pub fn allreduce_in_place<T: Reducible>(&self, buf: &mut [T], op: ReduceOp) {
        self.bump_collective_stat();
        let r = self.next_round();
        let small = std::mem::size_of_val(buf) <= self.local.shared.cfg.small_coll_max;
        if small {
            self.reduce_small(r, buf, op, None);
        } else {
            let p = buf.as_mut_ptr();
            self.reduce_large(r, p, p, buf.len(), op, None);
        }
        self.finish_reduction(r, small, Some(buf));
    }

    /// Reduce to `root` (comm rank). `output` is only written on the root;
    /// pass `None` elsewhere.
    pub fn reduce<T: Reducible>(
        &self,
        input: &[T],
        output: Option<&mut [T]>,
        root: usize,
        op: ReduceOp,
    ) {
        assert!(root < self.size(), "reduce root out of range");
        let _span = telemetry::span("reduce");
        self.bump_collective_stat();
        if self.my_comm_rank == root {
            let out = output
                .as_deref()
                .expect("root must supply an output buffer");
            assert_eq!(input.len(), out.len(), "reduce buffer length mismatch");
        }
        let r = self.next_round();
        let small = std::mem::size_of_val(input) <= self.local.shared.cfg.small_coll_max;
        let root_node = self.meta.node_idx_of[root] as usize;
        let mut output = output.filter(|_| self.my_comm_rank == root);
        if small {
            self.reduce_small(r, input, op, Some(root_node));
        } else {
            let out = output
                .as_deref_mut()
                .map_or(std::ptr::null_mut(), <[T]>::as_mut_ptr);
            self.reduce_large(r, input.as_ptr(), out, input.len(), op, Some(root_node));
        }
        // Everyone waits for its node leader's publication — not just the
        // root. This is what keeps dropbox payloads and published pointers
        // stable for the whole round: a member that raced ahead could
        // otherwise overwrite its dropbox (at its next `arrive`) or free its
        // input while the leader or a peer is still reading it.
        self.finish_reduction(r, small, output);
    }

    /// Intra-node flat-combining reduction (§4.2.1) + cross-node phase.
    /// `reduce_root_node`: `None` for all-reduce (leaders run cross-node
    /// all-reduce, every leader publishes), `Some(node_idx)` for rooted
    /// reduce (leaders reduce towards that node; only it publishes).
    fn reduce_small<T: Reducible>(
        &self,
        r: u64,
        input: &[T],
        op: ReduceOp,
        reduce_root_node: Option<usize>,
    ) {
        if self.is_leader() {
            self.arrive(r, Arrive::Nothing);
            self.wait_all_arrivals(r);
            let g = self.group_len();
            // SAFETY: all members arrived at r ⇒ none is still reading the
            // previous round's scratch (invariant 2).
            let acc: &mut [T] = unsafe {
                self.area.scratch.ensure(std::mem::size_of_val(input));
                self.area.scratch.as_mut_slice::<T>(input.len())
            };
            acc.copy_from_slice(input);
            for j in 0..g {
                if j == self.my_group_pos {
                    continue;
                }
                // SAFETY: arrival observed; payload stable for the round.
                let b = unsafe { self.area.sptd[j].payload(std::mem::size_of_val(input)) };
                reduce_bytes_into(acc, b, op);
                telemetry::count(Counter::SptdLeaderCombine);
            }
            self.cross_node_phase(acc, op, reduce_root_node);
            self.area.publish_leader(r);
        } else {
            self.arrive(r, Arrive::Bytes(as_bytes(input)));
        }
    }

    /// The Partitioned Reducer (§4.2.2, Figure 3): every member publishes
    /// pointers to its input and output, and all members concurrently reduce
    /// disjoint cacheline-aligned chunks. On one node each member writes its
    /// reduced chunk straight into every published output (`output` null:
    /// this member wants no result). A group that spans nodes reduces into
    /// the leader's scratch instead — its leader sends one whole node result
    /// across nodes — and its members copy the result out of scratch.
    fn reduce_large<T: Reducible>(
        &self,
        r: u64,
        input: *const T,
        output: *mut T,
        len: usize,
        op: ReduceOp,
        reduce_root_node: Option<usize>,
    ) {
        let g = self.group_len();
        let multi = self.multi_node();
        let output = if multi { std::ptr::null_mut() } else { output };
        let bytes = len * std::mem::size_of::<T>();
        self.arrive(r, Arrive::Buffers(input.cast(), output.cast(), bytes));
        self.wait_all_arrivals(r);
        if multi {
            if self.is_leader() {
                // SAFETY: all arrived ⇒ no reader of the previous scratch.
                unsafe { self.area.scratch.ensure(bytes) };
                self.area.scratch_ready.store(r, Ordering::Release);
            } else {
                self.local.ssw_op(WaitOp::ReducerScratch, None, None, || {
                    (self.area.scratch_ready.load(Ordering::Acquire) >= r).then_some(())
                });
            }
        }

        let pos = self.my_group_pos as u32;
        let range = aligned_chunk_range::<T>(len, pos, pos + 1, g as u32);
        // SAFETY: every arrival observed, and every member's buffers outlive
        // the round (each owner waits for `leader_seq`, published after all
        // `done` backedges); members' ranges are pairwise disjoint, and
        // scratch_ready >= r was observed before scratch is touched.
        unsafe {
            let scratch = multi.then(|| self.area.scratch.as_mut_range::<T>(range.clone()));
            reduce_published(&self.area.sptd, range, op, scratch);
        }
        self.area.sptd[self.my_group_pos].set_done(r);

        if self.is_leader() {
            self.wait_all_done(r);
            if multi {
                // SAFETY: all chunk writers finished (done backedges observed).
                let acc = unsafe { self.area.scratch.as_mut_slice::<T>(len) };
                self.cross_node_phase(acc, op, reduce_root_node);
            }
            self.area.publish_leader(r);
        }
    }

    /// Leaders' cross-node phase for reductions.
    fn cross_node_phase<T: Reducible>(
        &self,
        acc: &mut [T],
        op: ReduceOp,
        reduce_root_node: Option<usize>,
    ) {
        if !self.multi_node() {
            return;
        }
        let g = self.leader_group();
        match reduce_root_node {
            None => g.allreduce(acc, op),
            Some(root_node) => g.reduce(root_node, acc, op),
        }
    }

    /// Broadcast from comm rank `root` (§4.2, Appendix A).
    pub fn bcast<T: PureDatatype>(&self, data: &mut [T], root: usize) {
        assert!(root < self.size(), "bcast root out of range");
        let _span = telemetry::span("bcast");
        self.bump_collective_stat();
        let r = self.next_round();
        self.arrive(r, Arrive::Nothing);

        let bytes = std::mem::size_of_val(data);
        let root_node = self.meta.node_idx_of[root] as usize;
        let on_root_node = self.my_node_idx == root_node;
        let i_am_root = self.my_comm_rank == root;

        if i_am_root {
            // Writer on the root's node.
            self.wait_all_arrivals(r);
            // SAFETY: all members arrived ⇒ previous bcast readers done.
            unsafe {
                self.area.bcast_buf.ensure(bytes);
                self.area
                    .bcast_buf
                    .as_mut_slice::<T>(data.len())
                    .copy_from_slice(data);
            }
            self.area.bcast_seq.store(r, Ordering::Release);
        }

        if self.is_leader() && self.multi_node() {
            if on_root_node && !i_am_root {
                // Fetch the payload before forwarding it across nodes.
                self.wait_bcast_seq(r);
                // SAFETY: bcast_seq >= r observed.
                data.copy_from_slice(unsafe { self.area.bcast_buf.as_slice::<T>(data.len()) });
            }
            self.leader_group().bcast(root_node, data);
            if !on_root_node {
                // Writer on a non-root node.
                self.wait_all_arrivals(r);
                // SAFETY: all members arrived ⇒ previous readers done.
                unsafe {
                    self.area.bcast_buf.ensure(bytes);
                    self.area
                        .bcast_buf
                        .as_mut_slice::<T>(data.len())
                        .copy_from_slice(data);
                }
                self.area.bcast_seq.store(r, Ordering::Release);
            }
        }

        let already_have_payload = i_am_root || (self.is_leader() && self.multi_node());
        if !already_have_payload {
            self.wait_bcast_seq(r);
            // SAFETY: bcast_seq >= r observed; buffer stable until all
            // members arrive at a later round.
            data.copy_from_slice(unsafe { self.area.bcast_buf.as_slice::<T>(data.len()) });
        }
    }

    fn wait_bcast_seq(&self, r: u64) {
        self.local.ssw_op(WaitOp::BcastPayload, None, None, || {
            (self.area.bcast_seq.load(Ordering::Acquire) >= r).then_some(())
        });
    }
}

/// Reduce raw dropbox bytes (a `[T]` payload) into `acc`.
fn reduce_bytes_into<T: Reducible>(acc: &mut [T], payload: &[u8], op: ReduceOp) {
    debug_assert_eq!(payload.len(), std::mem::size_of_val(acc));
    // Dropbox payloads are 64-byte aligned, so a typed view is legal.
    // SAFETY: payload length matches and alignment is 64 ≥ align_of::<T>().
    let typed = unsafe { std::slice::from_raw_parts(payload.as_ptr().cast::<T>(), acc.len()) };
    T::reduce_assign(op, acc, typed);
}
