//! The cost model: what each runtime's primitive operations cost on the
//! simulated machine.
//!
//! Parameters are chosen to be *structurally* derived, not curve-fit: a Pure
//! short message is two memcpys plus two cacheline handoffs through a
//! lock-free ring; an MPI short message additionally pays a lock acquire /
//! release and queue bookkeeping on both sides (and, for two ranks
//! timesharing one core, wake-up scheduling); rendezvous adds a handshake;
//! cross-node messages pay the α–β interconnect. Collectives compose these
//! per their algorithms (SPTD flat-combining vs p2p trees). Absolute numbers
//! are Haswell-plausible magnitudes documented in EXPERIMENTS.md; the
//! figures' *shapes* come from the structure.

/// Where two communicating ranks sit relative to each other (paper Fig. 6
/// placements).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Two hardware threads of one core (shared L1/L2).
    HyperthreadSiblings,
    /// Same socket, shared L3.
    SharedL3,
    /// Different NUMA nodes of one box.
    CrossNuma,
    /// Different nodes (interconnect).
    CrossNode,
}

/// Inter-node algorithm modeled for `CollStack::Pure` collectives. The
/// runtime's leaders run only [`NetCollAlgo::Flat`]; the tree and ring
/// shapes exist here so the figure harnesses can weigh them at paper
/// scale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NetCollAlgo {
    /// Recursive doubling / binomial over node leaders: `log2(n)` rounds,
    /// each a full payload exchange with NUMA-oblivious leader staging.
    #[default]
    Flat,
    /// k-ary combine/distribute tree with NUMA-aware leader placement:
    /// [`net_tree_depth`] levels per wave, `k-1` extra sibling payloads
    /// serializing through the parent's NIC per level.
    Kary(usize),
    /// Ring reduce-scatter + allgather for all-reduce (chunked,
    /// bandwidth-optimal); other kinds fall back to the binary tree.
    Ring,
}

/// The static non-flat shapes the figure harnesses weigh against
/// [`NetCollAlgo::Flat`]: k-ary trees of fan-in 2, 4, 8 and 16, and the
/// ring.
pub const HIER_CANDIDATES: [NetCollAlgo; 5] = [
    NetCollAlgo::Kary(2),
    NetCollAlgo::Kary(4),
    NetCollAlgo::Kary(8),
    NetCollAlgo::Kary(16),
    NetCollAlgo::Ring,
];

/// Levels of an `nodes`-node BFS-ordered tree with fan-in `fanin`: the
/// rounds a payload needs from the deepest leaf to the root (0 when
/// `nodes <= 1`).
pub fn net_tree_depth(nodes: usize, fanin: usize) -> usize {
    debug_assert!(fanin >= 2);
    let mut d = 0;
    let mut r = nodes.saturating_sub(1);
    while r > 0 {
        r = (r - 1) / fanin;
        d += 1;
    }
    d
}

/// The tunable machine/runtime constants (all times in nanoseconds, rates
/// in picoseconds per byte: 1000 ps/B = 1 GB/s⁻¹... i.e. 1 ns per byte).
#[derive(Clone, Debug)]
pub struct CostModel {
    // -- memory system --
    /// Cacheline handoff latency between hyperthread siblings.
    pub line_sibling_ns: f64,
    /// Cacheline handoff through the shared L3.
    pub line_l3_ns: f64,
    /// Cacheline handoff across NUMA.
    pub line_numa_ns: f64,
    /// Streaming copy cost (ps/byte) — ~20 GB/s effective.
    pub copy_ps_per_byte: f64,

    // -- Pure messaging (lock-free PBQ / rendezvous) --
    /// Fixed PBQ bookkeeping per message (head/tail updates, slot math).
    pub pure_msg_base_ns: f64,
    /// Rendezvous envelope bookkeeping.
    pub pure_rdv_base_ns: f64,

    // -- MPI messaging (lock-based shared-memory queues) --
    /// Lock acquire+release + queue management per message per side.
    pub mpi_lock_ns: f64,
    /// Fixed per-message overhead of the MPI stack (matching, headers).
    pub mpi_msg_base_ns: f64,
    /// Extra cost when both ranks timeshare one core (processes cannot spin
    /// productively; they bounce through the scheduler).
    pub mpi_sibling_penalty_ns: f64,
    /// Rendezvous handshake (RTS/CTS round trip through the queues).
    pub mpi_rdv_handshake_ns: f64,
    /// XPMEM attach/detach per large-message operation (mapping the peer
    /// process's pages; threads need no such mapping — a core advantage the
    /// paper claims for thread-based ranks).
    pub mpi_xpmem_attach_ns: f64,

    /// Eager/rendezvous and PBQ/envelope threshold (bytes).
    pub small_threshold: usize,
    /// Whether the PBQ producer/consumer privately cache the opposite index
    /// (the cached-index fast path). When false, every enqueue loads the
    /// consumer's head line and every dequeue loads the producer's tail
    /// line — two extra coherence transfers per message on the small path.
    pub pbq_cached_indices: bool,

    // -- interconnect --
    /// Per-message network latency.
    pub net_alpha_ns: f64,
    /// Network per-byte cost (ps/B); 100 ps/B = 10 GB/s.
    pub net_beta_ps_per_byte: f64,
    /// NIC injection occupancy (ps/B): the per-node port is faster than one
    /// flow's effective bandwidth (pipelining across the fabric), so
    /// concurrent senders only partially serialize.
    pub nic_ps_per_byte: f64,
    /// Average frames packed per wire frame by the progress engine's
    /// outbound coalescing (1.0 = coalescing off, the frame-per-message
    /// baseline). Small cross-node messages amortize `net_alpha_ns` over
    /// the batch; the per-byte term and large messages are unaffected
    /// (payloads above `small_threshold` bypass the coalesce buffer).
    pub net_coalesce_batch: f64,

    // -- collectives --
    /// Reduction arithmetic (ps/byte) once data is local.
    pub reduce_ps_per_byte: f64,
    /// DMAPP hardware-offload per-hop latency (8-byte payloads only).
    pub dmapp_hop_ns: f64,
    /// OpenMP barrier per tree level.
    pub omp_level_ns: f64,
    /// OpenMP parallel-region fork/join overhead.
    pub omp_fork_join_ns: f64,

    /// Leader's per-member SPTD sequence scan (arrivals are parallel
    /// stores; the leader polls cached lines).
    pub sptd_scan_ns_per_member: f64,
    /// Inter-node collective algorithm modeled for `CollStack::Pure`.
    pub net_coll: NetCollAlgo,
    /// Per-round NUMA staging penalty of the *flat* leader exchange:
    /// every recursive-doubling/binomial round lands the partner's
    /// payload on whatever NUMA domain the NIC DMA'd it to, costing a
    /// cross-NUMA line pull before the next round's combine. The
    /// hierarchical algorithms place the leader next to its staging
    /// buffer instead and pay only `line_l3_ns` per level.
    pub numa_leader_penalty_ns: f64,

    // -- tasks --
    /// Publishing a task in `active_tasks` (a release store + fence).
    pub task_publish_ns: f64,
    /// A thief's probe + claim CAS + cache misses (paper: "a handful of
    /// assembly instructions and 1-3 cache misses").
    pub steal_overhead_ns: f64,

    // -- AMPI --
    /// User-level context switch between virtual ranks.
    pub ampi_ctx_switch_ns: f64,
    /// Extra per-message overhead of the Charm++ scheduler.
    pub ampi_msg_extra_ns: f64,
    /// Migrating one virtual rank within a node (SMP mode).
    pub ampi_migrate_local_ns: f64,
    /// Migrating one virtual rank across nodes (non-SMP / cross-node).
    pub ampi_migrate_remote_ns: f64,
    /// Load-balancer invocation period (ns of virtual time).
    pub ampi_lb_period_ns: f64,

    // -- wire path --
    /// Payload memcpy passes a cross-node message pays inside the node
    /// (serialize/gather/scatter) on top of the NIC injection itself.
    /// `0.0` models the pooled zero-copy wire path (a single gather copy is
    /// already inside `pure_msg_base_ns`); `2.0` models the classic copying
    /// path's extra serialize + scatter passes, each at
    /// [`CostModel::copy_ps_per_byte`].
    pub net_memcpy_passes: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            line_sibling_ns: 15.0,
            line_l3_ns: 45.0,
            line_numa_ns: 110.0,
            copy_ps_per_byte: 50.0, // 20 GB/s
            pure_msg_base_ns: 40.0,
            pure_rdv_base_ns: 90.0,
            mpi_lock_ns: 120.0,
            mpi_msg_base_ns: 250.0,
            mpi_sibling_penalty_ns: 700.0,
            mpi_rdv_handshake_ns: 1200.0,
            mpi_xpmem_attach_ns: 1200.0,
            small_threshold: 8 * 1024,
            pbq_cached_indices: true,
            net_alpha_ns: 1300.0,
            net_beta_ps_per_byte: 100.0, // 10 GB/s
            nic_ps_per_byte: 50.0,       // 20 GB/s injection
            net_coalesce_batch: 1.0,
            reduce_ps_per_byte: 60.0,
            dmapp_hop_ns: 450.0,
            omp_level_ns: 200.0,
            omp_fork_join_ns: 1500.0,
            sptd_scan_ns_per_member: 8.0,
            net_coll: NetCollAlgo::Flat,
            numa_leader_penalty_ns: 110.0, // = line_numa_ns
            task_publish_ns: 60.0,
            steal_overhead_ns: 120.0,
            ampi_ctx_switch_ns: 350.0,
            ampi_msg_extra_ns: 300.0,
            ampi_migrate_local_ns: 15_000.0,
            ampi_migrate_remote_ns: 120_000.0,
            ampi_lb_period_ns: 4_000_000.0,
            net_memcpy_passes: 0.0,
        }
    }
}

/// Which messaging stack a simulated rank uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgStack {
    /// Pure's lock-free channels.
    Pure,
    /// The lock-based MPI channels.
    Mpi,
    /// MPI plus Charm++ scheduler overhead (AMPI).
    Ampi,
}

impl CostModel {
    fn line_ns(&self, p: Placement) -> f64 {
        match p {
            Placement::HyperthreadSiblings => self.line_sibling_ns,
            Placement::SharedL3 => self.line_l3_ns,
            Placement::CrossNuma => self.line_numa_ns,
            Placement::CrossNode => self.line_l3_ns, // staging buffer locality
        }
    }

    /// End-to-end latency of one message of `bytes` between ranks at
    /// `placement`, on `stack`.
    pub fn msg_ns(&self, stack: MsgStack, placement: Placement, bytes: usize) -> f64 {
        if placement == Placement::CrossNode {
            // Both runtimes ride the interconnect; MPI pays its stack costs,
            // Pure pays a thin shim plus the same network. Pure's progress
            // engine additionally coalesces small outbound frames, so each
            // message carries only its share of the per-frame α.
            let alpha = if stack == MsgStack::Pure && bytes <= self.small_threshold {
                self.net_alpha_ns / self.net_coalesce_batch.max(1.0)
            } else {
                self.net_alpha_ns
            };
            let net = alpha + bytes as f64 * self.net_beta_ps_per_byte / 1000.0;
            // Intra-node memcpy passes on the wire path (serialize/scatter);
            // zero under the pooled zero-copy path.
            let net_memcpy_bytes =
                bytes as f64 * self.net_memcpy_passes * self.copy_ps_per_byte / 1000.0;
            let stack_oh = match stack {
                MsgStack::Pure => self.pure_msg_base_ns,
                MsgStack::Mpi => self.mpi_msg_base_ns,
                MsgStack::Ampi => self.mpi_msg_base_ns + self.ampi_msg_extra_ns,
            };
            return net + net_memcpy_bytes + stack_oh;
        }
        let line = self.line_ns(placement);
        let copy = |n: usize| n as f64 * self.copy_ps_per_byte / 1000.0;
        match stack {
            MsgStack::Pure => {
                if bytes <= self.small_threshold {
                    // Two copies + producer/consumer line handoffs. Without
                    // cached indices each side also pulls the opposite
                    // index's line every operation.
                    let index_lines = if self.pbq_cached_indices {
                        0.0
                    } else {
                        2.0 * line
                    };
                    self.pure_msg_base_ns + 2.0 * copy(bytes) + 2.0 * line + index_lines
                } else {
                    // Single copy after envelope exchange (two line handoffs
                    // for the envelope, one for completion).
                    self.pure_rdv_base_ns + copy(bytes) + 3.0 * line
                }
            }
            MsgStack::Mpi | MsgStack::Ampi => {
                let extra = if stack == MsgStack::Ampi {
                    self.ampi_msg_extra_ns
                } else {
                    0.0
                };
                let sibling = if placement == Placement::HyperthreadSiblings {
                    // Two processes on one hardware thread pair can't spin
                    // usefully; they pay scheduler round-trips.
                    self.mpi_sibling_penalty_ns
                } else {
                    0.0
                };
                if bytes <= self.small_threshold {
                    // Two copies through the bounce cell, lock both sides.
                    self.mpi_msg_base_ns
                        + 2.0 * self.mpi_lock_ns
                        + 2.0 * copy(bytes)
                        + 2.0 * line
                        + sibling
                        + extra
                } else {
                    // Handshake + XPMEM attach + single copy, locks both
                    // sides.
                    self.mpi_rdv_handshake_ns
                        + self.mpi_xpmem_attach_ns
                        + 2.0 * self.mpi_lock_ns
                        + copy(bytes)
                        + 2.0 * line
                        + sibling
                        + extra
                }
            }
        }
    }

    /// Inter-node leg of a Pure collective over `n` node leaders under
    /// [`CostModel::net_coll`]. `hop` is the per-message wire latency
    /// already resolved for `bytes` (DMAPP-offloaded when eligible).
    fn internode_ns(&self, kind: CollKind, n: usize, bytes: usize, hop: f64) -> f64 {
        let log2 = |x: usize| (x.max(1) as f64).log2().ceil();
        let nic = |b: f64| b * self.nic_ps_per_byte / 1000.0;
        // All-reduce and barrier traverse the tree twice (combine up,
        // distribute/release down); rooted bcast/reduce once.
        let waves = match kind {
            CollKind::Allreduce | CollKind::Barrier => 2.0,
            CollKind::Bcast | CollKind::Reduce => 1.0,
        };
        match self.net_coll {
            NetCollAlgo::Flat => log2(n) * (hop + self.numa_leader_penalty_ns),
            NetCollAlgo::Kary(k) => {
                let level = hop + (k - 1) as f64 * nic(bytes as f64) + self.line_l3_ns;
                waves * net_tree_depth(n, k) as f64 * level
            }
            NetCollAlgo::Ring => {
                if kind == CollKind::Allreduce {
                    // Reduce-scatter + allgather: 2·(n-1) steps, each
                    // moving a 1/n chunk — bandwidth optimal, latency
                    // heavy (it wins only for large payloads).
                    let chunk = (bytes as f64 / n as f64).ceil();
                    let step = self.net_alpha_ns + chunk * self.net_beta_ps_per_byte / 1000.0;
                    2.0 * (n - 1) as f64 * (step + self.line_l3_ns)
                } else {
                    let level = hop + nic(bytes as f64) + self.line_l3_ns;
                    waves * net_tree_depth(n, 2) as f64 * level
                }
            }
        }
    }

    /// Collective completion cost charged after the last member arrives.
    /// `t` = ranks per node, `n` = nodes, `bytes` = payload.
    pub fn coll_ns(
        &self,
        kind: CollKind,
        stack: CollStack,
        t: usize,
        n: usize,
        bytes: usize,
    ) -> f64 {
        let t = t.max(1);
        let n = n.max(1);
        let log2 = |x: usize| (x.max(1) as f64).log2().ceil();
        let net_msg = self.net_alpha_ns + bytes as f64 * self.net_beta_ps_per_byte / 1000.0;
        let reduce = |b: usize| b as f64 * self.reduce_ps_per_byte / 1000.0;
        match stack {
            CollStack::Pure => {
                // SPTD arrivals are parallel release stores; the leader
                // scans the per-member sequence words (mostly cache hits)
                // plus a couple of real line transfers, then releases.
                let arrive = t as f64 * self.sptd_scan_ns_per_member + 2.0 * self.line_l3_ns;
                let release = self.line_l3_ns;
                let compute = match kind {
                    CollKind::Barrier => 0.0,
                    CollKind::Bcast => bytes as f64 * self.copy_ps_per_byte / 1000.0,
                    CollKind::Allreduce | CollKind::Reduce => {
                        if bytes <= 2048 {
                            // Leader flat-combines all t inputs.
                            t as f64 * reduce(bytes)
                        } else {
                            // Partitioned Reducer: t threads, each reduces t
                            // strips of bytes/t.
                            t as f64 * reduce(bytes / t) + 2.0 * self.line_l3_ns
                            // done-seq + scratch_ready
                        }
                    }
                };
                // Pure's leaders call MPI's collectives across nodes, so
                // they inherit the best available implementation there —
                // including DMAPP offload for 8-byte payloads.
                let hop = if bytes <= 8 {
                    net_msg.min(self.dmapp_hop_ns)
                } else {
                    net_msg
                };
                let internode = if n > 1 {
                    self.internode_ns(kind, n, bytes, hop)
                } else {
                    0.0
                };
                arrive + compute + internode + release
            }
            CollStack::Mpi => {
                // p2p composition over all ranks: log2(t) intra rounds +
                // log2(n) inter rounds, each a full message (+ reduction
                // where applicable).
                let intra_round = self.msg_ns(MsgStack::Mpi, Placement::SharedL3, bytes.max(8));
                let per_round_reduce = match kind {
                    CollKind::Allreduce | CollKind::Reduce => reduce(bytes),
                    _ => 0.0,
                };
                log2(t) * (intra_round + per_round_reduce) + log2(n) * (net_msg + per_round_reduce)
            }
            CollStack::MpiDmapp => {
                // Hardware-offload collectives (8 B payloads only): skips
                // the software tree across nodes; intra-node still software.
                let intra = log2(t) * self.msg_ns(MsgStack::Mpi, Placement::SharedL3, 8);
                intra + log2(n) * self.dmapp_hop_ns
            }
            CollStack::Omp => {
                // Single-node tree barrier/reduction among t threads.
                let compute = match kind {
                    CollKind::Allreduce | CollKind::Reduce => log2(t) * reduce(bytes),
                    _ => 0.0,
                };
                log2(t) * self.omp_level_ns + compute
            }
        }
    }
}

/// Collective operation kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollKind {
    /// Barrier.
    Barrier,
    /// All-reduce.
    Allreduce,
    /// Rooted reduce.
    Reduce,
    /// Broadcast.
    Bcast,
}

/// Which collective implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollStack {
    /// Pure's SPTD / Partitioned Reducer + leader tree.
    Pure,
    /// MPI p2p composition.
    Mpi,
    /// Cray DMAPP offload (8 B).
    MpiDmapp,
    /// OpenMP intra-node primitives.
    Omp,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_memcpy_passes_charges_per_byte_on_cross_node_only() {
        let zc = CostModel::default();
        let copying = CostModel {
            net_memcpy_passes: 2.0,
            ..CostModel::default()
        };
        let bytes = 4096usize;
        let extra = copying.msg_ns(MsgStack::Pure, Placement::CrossNode, bytes)
            - zc.msg_ns(MsgStack::Pure, Placement::CrossNode, bytes);
        let expect = bytes as f64 * 2.0 * zc.copy_ps_per_byte / 1000.0;
        assert!((extra - expect).abs() < 1e-9, "extra {extra} != {expect}");
        // Intra-node messages never pay the wire-path term.
        assert_eq!(
            copying.msg_ns(MsgStack::Pure, Placement::SharedL3, bytes),
            zc.msg_ns(MsgStack::Pure, Placement::SharedL3, bytes),
        );
    }

    #[test]
    fn pure_beats_mpi_for_small_intra_node_messages() {
        let c = CostModel::default();
        for p in [
            Placement::HyperthreadSiblings,
            Placement::SharedL3,
            Placement::CrossNuma,
        ] {
            let pure = c.msg_ns(MsgStack::Pure, p, 64);
            let mpi = c.msg_ns(MsgStack::Mpi, p, 64);
            assert!(pure < mpi, "{p:?}: pure {pure} !< mpi {mpi}");
        }
    }

    #[test]
    fn sibling_small_message_speedup_is_large() {
        // Paper Fig. 6: ~17× peak speedup for small messages between
        // hyperthread siblings.
        let c = CostModel::default();
        let ratio = c.msg_ns(MsgStack::Mpi, Placement::HyperthreadSiblings, 8)
            / c.msg_ns(MsgStack::Pure, Placement::HyperthreadSiblings, 8);
        assert!(ratio > 8.0 && ratio < 40.0, "ratio {ratio}");
    }

    #[test]
    fn large_message_speedup_shrinks_toward_copy_bound() {
        let c = CostModel::default();
        let ratio = c.msg_ns(MsgStack::Mpi, Placement::SharedL3, 16 << 20)
            / c.msg_ns(MsgStack::Pure, Placement::SharedL3, 16 << 20);
        assert!(
            ratio > 0.9 && ratio < 2.5,
            "large-message ratio {ratio} out of band"
        );
    }

    #[test]
    fn cross_node_is_network_dominated_for_both() {
        let c = CostModel::default();
        let pure = c.msg_ns(MsgStack::Pure, Placement::CrossNode, 8);
        let mpi = c.msg_ns(MsgStack::Mpi, Placement::CrossNode, 8);
        assert!(pure > c.net_alpha_ns && mpi > c.net_alpha_ns);
        assert!(mpi / pure < 1.5, "network must dominate the gap");
    }

    #[test]
    fn latency_is_monotonic_in_size() {
        let c = CostModel::default();
        for stack in [MsgStack::Pure, MsgStack::Mpi] {
            let mut prev = 0.0;
            for bytes in [8usize, 64, 1024, 8192, 9000, 1 << 20] {
                let v = c.msg_ns(stack, Placement::SharedL3, bytes);
                // Threshold crossings may step, but only upward overall.
                assert!(v >= prev * 0.5, "{stack:?} non-monotone at {bytes}");
                prev = v;
            }
        }
    }

    #[test]
    fn pure_collectives_beat_mpi_intra_node() {
        let c = CostModel::default();
        for t in [2usize, 8, 32, 64] {
            let p = c.coll_ns(CollKind::Barrier, CollStack::Pure, t, 1, 0);
            let m = c.coll_ns(CollKind::Barrier, CollStack::Mpi, t, 1, 0);
            assert!(p < m, "t={t}: pure barrier {p} !< mpi {m}");
        }
    }

    #[test]
    fn dmapp_beats_software_tree_at_scale_for_8b() {
        let c = CostModel::default();
        let d = c.coll_ns(CollKind::Allreduce, CollStack::MpiDmapp, 64, 256, 8);
        let m = c.coll_ns(CollKind::Allreduce, CollStack::Mpi, 64, 256, 8);
        assert!(d < m);
    }

    #[test]
    fn uncached_indices_cost_two_extra_lines_on_small_path_only() {
        let cached = CostModel::default();
        let uncached = CostModel {
            pbq_cached_indices: false,
            ..CostModel::default()
        };
        for p in [
            Placement::HyperthreadSiblings,
            Placement::SharedL3,
            Placement::CrossNuma,
        ] {
            let line = cached.line_ns(p);
            let delta =
                uncached.msg_ns(MsgStack::Pure, p, 64) - cached.msg_ns(MsgStack::Pure, p, 64);
            assert!((delta - 2.0 * line).abs() < 1e-9, "{p:?}: delta {delta}");
            // Large messages go through the rendezvous path: no change.
            let big = 1 << 20;
            assert_eq!(
                uncached.msg_ns(MsgStack::Pure, p, big),
                cached.msg_ns(MsgStack::Pure, p, big)
            );
        }
        // The toggle must not affect the MPI baseline.
        assert_eq!(
            uncached.msg_ns(MsgStack::Mpi, Placement::SharedL3, 64),
            cached.msg_ns(MsgStack::Mpi, Placement::SharedL3, 64)
        );
    }

    #[test]
    fn coalescing_amortizes_alpha_on_small_cross_node_only() {
        let base = CostModel::default();
        let co = CostModel {
            net_coalesce_batch: 8.0,
            ..CostModel::default()
        };
        // Small Pure messages shed 7/8 of α...
        let delta = base.msg_ns(MsgStack::Pure, Placement::CrossNode, 64)
            - co.msg_ns(MsgStack::Pure, Placement::CrossNode, 64);
        assert!(
            (delta - base.net_alpha_ns * 7.0 / 8.0).abs() < 1e-9,
            "delta {delta}"
        );
        // ...large ones bypass the coalesce buffer entirely...
        let big = 1 << 20;
        assert_eq!(
            base.msg_ns(MsgStack::Pure, Placement::CrossNode, big),
            co.msg_ns(MsgStack::Pure, Placement::CrossNode, big)
        );
        // ...and the MPI/AMPI baselines never coalesce.
        for s in [MsgStack::Mpi, MsgStack::Ampi] {
            assert_eq!(
                base.msg_ns(s, Placement::CrossNode, 64),
                co.msg_ns(s, Placement::CrossNode, 64)
            );
        }
        // A degenerate batch (< 1) clamps to the baseline instead of
        // inflating α.
        let degenerate = CostModel {
            net_coalesce_batch: 0.0,
            ..CostModel::default()
        };
        assert_eq!(
            degenerate.msg_ns(MsgStack::Pure, Placement::CrossNode, 64),
            base.msg_ns(MsgStack::Pure, Placement::CrossNode, 64)
        );
    }

    #[test]
    fn net_tree_depth_shapes() {
        assert_eq!(net_tree_depth(1, 2), 0);
        assert_eq!(net_tree_depth(2, 8), 1);
        assert_eq!(net_tree_depth(9, 8), 1);
        assert_eq!(net_tree_depth(10, 8), 2);
        assert_eq!(net_tree_depth(64, 8), 2);
        assert_eq!(net_tree_depth(1024, 8), 4);
        assert_eq!(net_tree_depth(64, 2), 6);
    }

    #[test]
    fn hierarchical_collectives_are_intra_node_neutral() {
        // With one node there is no internode leg: the algorithm knob
        // must not move single-node numbers (the trajectory baseline's
        // recorded ratios are all intra-node).
        let flat = CostModel::default();
        let hier = CostModel {
            net_coll: NetCollAlgo::Kary(8),
            ..CostModel::default()
        };
        for kind in [CollKind::Barrier, CollKind::Allreduce, CollKind::Bcast] {
            assert_eq!(
                flat.coll_ns(kind, CollStack::Pure, 64, 1, 8),
                hier.coll_ns(kind, CollStack::Pure, 64, 1, 8),
            );
        }
    }

    #[test]
    fn kary_tree_beats_flat_at_scale_for_small_payloads() {
        // The paper-scale crossover: at 64+ nodes (4096 ranks at 64
        // ranks/node) the k-ary tree's fewer α levels and NUMA-aware
        // staging beat recursive doubling; at 2 nodes flat still wins.
        let flat = CostModel::default();
        let kary = CostModel {
            net_coll: NetCollAlgo::Kary(8),
            ..CostModel::default()
        };
        for kind in [CollKind::Allreduce, CollKind::Barrier, CollKind::Bcast] {
            for n in [64usize, 256, 1024] {
                let f = flat.coll_ns(kind, CollStack::Pure, 64, n, 8);
                let h = kary.coll_ns(kind, CollStack::Pure, 64, n, 8);
                assert!(h < f, "{kind:?} n={n}: kary {h} !< flat {f}");
            }
        }
        // At 2 nodes the two-wave kinds pay the tree twice and flat wins
        // (single-wave bcast degenerates to one hop either way).
        for kind in [CollKind::Allreduce, CollKind::Barrier] {
            let f2 = flat.coll_ns(kind, CollStack::Pure, 64, 2, 8);
            let h2 = kary.coll_ns(kind, CollStack::Pure, 64, 2, 8);
            assert!(f2 < h2, "{kind:?} n=2: flat {f2} !< kary {h2}");
        }
    }

    #[test]
    fn ring_beats_flat_for_large_payloads_at_scale() {
        // Recursive doubling ships the full vector log2(n) times; the
        // ring moves 2·(n-1)/n of it. At 1 MiB over 64 nodes the
        // bandwidth term dominates and the ring wins; at 8 B its 2·(n-1)
        // α latencies lose badly.
        let flat = CostModel::default();
        let ring = CostModel {
            net_coll: NetCollAlgo::Ring,
            ..CostModel::default()
        };
        let big = 1 << 20;
        let f = flat.coll_ns(CollKind::Allreduce, CollStack::Pure, 64, 64, big);
        let r = ring.coll_ns(CollKind::Allreduce, CollStack::Pure, 64, 64, big);
        assert!(r < f, "1 MiB, 64 nodes: ring {r} !< flat {f}");
        let f8 = flat.coll_ns(CollKind::Allreduce, CollStack::Pure, 64, 64, 8);
        let r8 = ring.coll_ns(CollKind::Allreduce, CollStack::Pure, 64, 64, 8);
        assert!(f8 < r8, "8 B, 64 nodes: flat {f8} !< ring {r8}");
    }

    /// Pure allreduce time under `algo` at `n` nodes of 64 ranks.
    fn allreduce_under(algo: NetCollAlgo, n: usize, bytes: usize) -> f64 {
        let m = CostModel {
            net_coll: algo,
            ..CostModel::default()
        };
        m.coll_ns(CollKind::Allreduce, CollStack::Pure, 64, n, bytes)
    }

    #[test]
    fn hier_candidates_are_distinct_non_flat_shapes() {
        for (i, a) in HIER_CANDIDATES.iter().enumerate() {
            assert_ne!(*a, NetCollAlgo::Flat);
            if let NetCollAlgo::Kary(k) = a {
                assert!(*k >= 2, "fan-in {k} below 2");
            }
            assert!(!HIER_CANDIDATES[..i].contains(a), "{a:?} listed twice");
        }
    }

    #[test]
    fn every_hier_candidate_is_intra_node_neutral() {
        for algo in HIER_CANDIDATES {
            for bytes in [0usize, 8, 1 << 20] {
                assert_eq!(
                    allreduce_under(algo, 1, bytes),
                    allreduce_under(NetCollAlgo::Flat, 1, bytes),
                    "{algo:?} moved a one-node {bytes} B all-reduce"
                );
            }
        }
    }

    #[test]
    fn flat_beats_every_candidate_on_two_nodes_for_small_payloads() {
        // What the runtime's leaders run is never beaten where every
        // measured launch sits: one exchange between two leaders.
        for algo in HIER_CANDIDATES {
            let f = allreduce_under(NetCollAlgo::Flat, 2, 8);
            let h = allreduce_under(algo, 2, 8);
            assert!(f < h, "2 nodes, 8 B: flat {f} !< {algo:?} {h}");
        }
    }

    #[test]
    fn fastest_candidate_is_a_tree_for_small_and_the_ring_for_bulk() {
        let fastest = |n: usize, bytes: usize| {
            HIER_CANDIDATES
                .into_iter()
                .min_by(|x, y| {
                    allreduce_under(*x, n, bytes).total_cmp(&allreduce_under(*y, n, bytes))
                })
                .expect("HIER_CANDIDATES is non-empty")
        };
        for n in [64usize, 256, 1024] {
            assert!(
                matches!(fastest(n, 8), NetCollAlgo::Kary(_)),
                "{n} nodes, 8 B: expected a tree, got {:?}",
                fastest(n, 8)
            );
        }
        // The ring's 2·(n-1) α steps cap its reach: it is the bulk pick up
        // to a few hundred nodes, and a tree again at 1024.
        for n in [64usize, 256] {
            assert_eq!(fastest(n, 1 << 20), NetCollAlgo::Ring, "{n} nodes, 1 MiB");
        }
        assert!(matches!(fastest(1024, 1 << 20), NetCollAlgo::Kary(_)));
    }

    #[test]
    fn large_allreduce_uses_partitioned_path() {
        let c = CostModel::default();
        // With many threads, the partitioned reducer beats what the leader
        // flat-combining formula would give for the same size.
        let t = 64;
        let big = 1 << 20;
        let flat = t as f64 * (big as f64 * c.reduce_ps_per_byte / 1000.0);
        let modeled = c.coll_ns(CollKind::Allreduce, CollStack::Pure, t, 1, big);
        assert!(
            modeled < flat,
            "partitioned path must parallelize the reduction"
        );
    }
}
