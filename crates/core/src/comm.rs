//! Communicators (§3.1): MPI-equivalent groups with `pure_comm_split`.
//!
//! A [`PureComm`] is a per-rank handle onto a communicator: immutable
//! metadata (the member list and its node decomposition, identical on every
//! member) plus the node-shared collective area and this rank's positions.
//! The world communicator is built at launch; every other communicator comes
//! from [`PureComm::split`], which is itself implemented with Pure messaging
//! and collectives (gather the `(color, key)` pairs, broadcast the table,
//! compute the partition deterministically everywhere).

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use crate::collectives::CollArea;
use crate::error::{die_invariant, PureError, PureResult};
use crate::internode::{LeaderGroup, LeaderInfo};
use crate::runtime::{RankLocal, Shared, Tag, WaitOp, INTERNAL_TAG_BASE};
use interleave::sync::atomic::{AtomicBool, Ordering};

/// 64-bit mixer (splitmix64 finalizer) for communicator ids and tag bases.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A communicator's revocation flag ([`PureComm::revoke`]): one per comm
/// id, shared launch-wide by every member's handle of that id.
pub(crate) type RevokeFlag = Arc<AtomicBool>;

/// Launch-wide allocator of cross-node collective tag bases, and of the
/// revocation flag that travels with each.
///
/// Each registered communicator id is handed the next 256-tag window
/// (`sequence << 8`; internode phase numbers all fit in 8 bits), so bases of
/// distinct live communicators are disjoint *by construction* — unlike the
/// old hash-derived scheme, which drew from a 2¹⁶-value space and collided
/// for adversarial (or merely unlucky) id pairs. The first member to
/// register an id allocates its window; later members — racing from other
/// ranks — read the cached assignment, so every member of a communicator
/// agrees on the base, and shares one [`RevokeFlag`], without extra
/// communication.
#[derive(Default)]
pub(crate) struct TagBaseAlloc {
    /// comm id → assigned base and the comm's revocation flag.
    assigned: std::collections::HashMap<u64, (u32, RevokeFlag)>,
    /// Next window sequence number.
    next: u32,
}

impl TagBaseAlloc {
    /// The tag base and revocation flag of comm `id`, allocating a fresh
    /// window and an unset flag on first sight.
    pub fn base_for(&mut self, id: u64) -> (u32, RevokeFlag) {
        if let Some((base, flag)) = self.assigned.get(&id) {
            return (*base, Arc::clone(flag));
        }
        assert!(
            self.next < (1 << 24),
            "pure: cross-node tag namespace exhausted (2^24 communicators)"
        );
        let base = self.next << 8;
        self.next += 1;
        // Pairwise uniqueness across every live communicator: cheap (comm
        // counts are tiny next to message counts) and catches any future
        // edit that breaks the disjoint-window invariant.
        assert!(
            self.assigned.values().all(|&(b, _)| b != base),
            "pure: tag base {base:#x} already assigned to another live communicator"
        );
        let flag = Arc::new(AtomicBool::new(false));
        self.assigned.insert(id, (base, Arc::clone(&flag)));
        (base, flag)
    }
}

/// Immutable, globally consistent communicator metadata.
pub(crate) struct CommMeta {
    /// Communicator id (world = 0).
    pub id: u64,
    /// World rank of each member, indexed by comm rank.
    pub members: Vec<u32>,
    /// Participating nodes (ascending node id) with their leader's local
    /// thread index.
    pub nodes: Vec<LeaderInfo>,
    /// Per entry of `nodes`: the comm ranks resident there, ascending.
    pub groups: Vec<Vec<u32>>,
    /// comm rank → index into `nodes`.
    pub node_idx_of: Vec<u32>,
    /// Base of this comm's cross-node collective tag namespace.
    pub tag_base: u32,
    /// Set once the comm is revoked, launch-wide.
    pub revoked: RevokeFlag,
}

impl CommMeta {
    /// Metadata for `PURE_COMM_WORLD`.
    pub fn world(shared: &Shared) -> Self {
        Self::from_members(0, (0..shared.cfg.ranks as u32).collect(), shared)
    }

    /// Compute the node decomposition of an arbitrary member list.
    pub fn from_members(id: u64, members: Vec<u32>, shared: &Shared) -> Self {
        assert!(
            !members.is_empty(),
            "a communicator needs at least one member"
        );
        let mut node_ids: Vec<usize> = members
            .iter()
            .map(|&w| shared.rank_node[w as usize])
            .collect();
        node_ids.sort_unstable();
        node_ids.dedup();
        let nodes: Vec<LeaderInfo> = node_ids
            .iter()
            .map(|&n| {
                // Leader = member with the lowest comm rank on that node.
                // `node_ids` was derived from `members`, so every entry has
                // at least one member by construction.
                let leader_world = members
                    .iter()
                    .find(|&&w| shared.rank_node[w as usize] == n)
                    .unwrap_or_else(|| die_invariant("communicator node has no member"));
                LeaderInfo {
                    node: n,
                    leader_local: shared.rank_local[*leader_world as usize],
                    leader_world: *leader_world as usize,
                }
            })
            .collect();
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
        let mut node_idx_of = vec![0u32; members.len()];
        for (cr, &w) in members.iter().enumerate() {
            let n = shared.rank_node[w as usize];
            // `node_ids` is the sorted dedup of exactly these nodes.
            let ni = node_ids
                .binary_search(&n)
                .unwrap_or_else(|_| die_invariant("member node missing from node list"));
            groups[ni].push(cr as u32);
            node_idx_of[cr] = ni as u32;
        }
        // Collision-free deterministic tag base: the launch-wide registry
        // assigns each distinct comm id its own 256-tag window (see
        // [`TagBaseAlloc`]). Replaces the hash-derived scheme whose 2¹⁶
        // effective space collided for adversarial id pairs.
        let (tag_base, revoked) = shared.tag_bases.lock().base_for(id);
        Self {
            id,
            members,
            nodes,
            groups,
            node_idx_of,
            tag_base,
            revoked,
        }
    }
}

/// A communicator handle for one rank. Not `Send`/`Clone`: each rank owns
/// its handles, mirroring how MPI communicators are used.
pub struct PureComm {
    pub(crate) meta: Arc<CommMeta>,
    pub(crate) area: Arc<CollArea>,
    pub(crate) local: Rc<RankLocal>,
    pub(crate) my_comm_rank: usize,
    pub(crate) my_node_idx: usize,
    pub(crate) my_group_pos: usize,
    /// Collective round counter (locally tracked; consistent because
    /// collectives are called in the same order by every member).
    pub(crate) rounds: Cell<u64>,
    /// Number of `split` calls made on this comm (epoch for child comm ids).
    pub(crate) splits: Cell<u64>,
    /// Number of `agree`/`shrink` calls made on this comm (locally tracked,
    /// globally consistent by collective call ordering — disambiguates
    /// agreement rounds and derives shrunk comm ids).
    pub(crate) agrees: Cell<u64>,
}

impl PureComm {
    pub(crate) fn from_meta(meta: Arc<CommMeta>, local: Rc<RankLocal>) -> Self {
        let my_world = local.rank as u32;
        // `from_meta` is only reached by ranks listed in `meta.members`
        // (split returns `None` to non-members), and `groups` partitions
        // `members` by node.
        debug_assert!(meta.members.contains(&my_world));
        let my_comm_rank = meta
            .members
            .iter()
            .position(|&w| w == my_world)
            .unwrap_or_else(|| die_invariant("rank is not a member of the communicator"));
        let my_node_idx = meta.node_idx_of[my_comm_rank] as usize;
        let group = &meta.groups[my_node_idx];
        let my_group_pos = group
            .iter()
            .position(|&cr| cr == my_comm_rank as u32)
            .unwrap_or_else(|| die_invariant("rank missing from its node group"));
        let area = local.shared.area(local.node, meta.id, group.len());
        Self {
            meta,
            area,
            local,
            my_comm_rank,
            my_node_idx,
            my_group_pos,
            rounds: Cell::new(0),
            splits: Cell::new(0),
            agrees: Cell::new(0),
        }
    }

    /// Operation prologue: record this comm as the one the next blocking
    /// wait belongs to (so the revocation probe can poison it) and fail
    /// fast when the comm is already revoked. Cheap: a pointer compare
    /// (the handle is cloned only when the rank switches communicators)
    /// and one load of this comm's own flag.
    pub(crate) fn op_enter(&self, op: &'static str) -> PureResult<()> {
        self.enter_comm();
        if self.meta.revoked.load(Ordering::Acquire) {
            return Err(PureError::Revoked {
                rank: self.local.rank,
                op,
                comm: self.meta.id,
            });
        }
        Ok(())
    }

    /// Make this comm the one the revocation probe watches.
    fn enter_comm(&self) {
        let mut cur = self.local.cur_comm.borrow_mut();
        if !cur.as_ref().is_some_and(|c| Arc::ptr_eq(c, &self.meta)) {
            *cur = Some(Arc::clone(&self.meta));
        }
    }

    /// This rank's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.my_comm_rank
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.meta.members.len()
    }

    /// World rank of comm rank `r`.
    pub fn world_rank(&self, r: usize) -> usize {
        self.meta.members[r] as usize
    }

    /// True when this rank leads its node group (group position 0).
    pub(crate) fn is_leader(&self) -> bool {
        self.my_group_pos == 0
    }

    /// Size of this rank's node group.
    pub(crate) fn group_len(&self) -> usize {
        self.meta.groups[self.my_node_idx].len()
    }

    /// Allocate the next collective round number (> 0).
    pub(crate) fn next_round(&self) -> u64 {
        let r = self.rounds.get() + 1;
        self.rounds.set(r);
        r
    }

    /// The cross-node leader view (only meaningful on leaders).
    pub(crate) fn leader_group(&self) -> LeaderGroup<'_> {
        LeaderGroup {
            nodes: &self.meta.nodes,
            my_pos: self.my_node_idx,
            tag_base: self.meta.tag_base,
            local: &self.local,
            wire_eager_max: self.local.shared.cfg.small_msg_max,
        }
    }

    /// Split this communicator like `MPI_Comm_split` / `pure_comm_split`:
    /// members with equal `color` form a new communicator, ordered by
    /// `(key, parent rank)`. A negative color opts out (returns `None`).
    ///
    /// Collective: every member must call it (in the same order relative to
    /// other collectives on this comm).
    pub fn split(&self, color: i64, key: i64) -> Option<PureComm> {
        let epoch = self.splits.get();
        self.splits.set(epoch + 1);
        let p = self.size();
        let itag: Tag =
            INTERNAL_TAG_BASE | ((mix64(self.meta.id ^ (epoch << 1) ^ 1) as u32) & 0x7FFF_FFFF);

        // Gather every member's (color, key) to comm rank 0, then broadcast
        // the full table; each member computes the partition locally.
        let mut table = vec![0i64; 2 * p];
        if self.my_comm_rank == 0 {
            table[0] = color;
            table[1] = key;
            for r in 1..p {
                let mut pair = [0i64; 2];
                self.recv_with_tag(&mut pair, r, itag);
                table[2 * r] = pair[0];
                table[2 * r + 1] = pair[1];
            }
        } else {
            self.send_with_tag(&[color, key], 0, itag);
        }
        self.bcast(&mut table, 0);

        if color < 0 {
            return None;
        }
        let mut group: Vec<usize> = (0..p).filter(|&r| table[2 * r] == color).collect();
        group.sort_by_key(|&r| (table[2 * r + 1], r));
        let members: Vec<u32> = group.iter().map(|&cr| self.meta.members[cr]).collect();
        let new_id = mix64(self.meta.id ^ mix64(epoch ^ 0xC0FFEE) ^ (color as u64));
        let meta = CommMeta::from_members(new_id, members, &self.local.shared);
        Some(PureComm::from_meta(Arc::new(meta), Rc::clone(&self.local)))
    }

    // --- ULFM-style recovery (crash-stop failure handling, DESIGN.md §7).

    /// Revoke this communicator launch-wide (`MPI_Comm_revoke`): every
    /// pending and future operation on it — on **every** member — observes
    /// [`PureError::Revoked`] (fallible variants return it; infallible ones
    /// escalate). Not collective: any member may call it, typically after
    /// observing [`PureError::PeerDead`], to kick the other survivors out
    /// of whatever they are blocked in so they can [`PureComm::agree`] and
    /// [`PureComm::shrink`]. Irreversible.
    pub fn revoke(&self) {
        self.meta.revoked.store(true, Ordering::Release);
    }

    /// Agree on the failure view (`MPI_Comm_agree`-flavoured): returns the
    /// comm ranks residing on condemned nodes, **identical on every
    /// surviving member of this round by construction** — the first member
    /// past the arrival gate pins the view, later members adopt it.
    /// Collective over surviving members (dead members are excused by the
    /// detector); works on a revoked communicator — that is its purpose.
    ///
    /// A peer dying *during* the agreement round surfaces as
    /// `Err(PeerDead)`; call `agree` again to settle on the wider view.
    /// Condemnations racing the gate may be deferred to the next round —
    /// the view is consistent, not necessarily maximal (DESIGN.md §7).
    pub fn agree(&self) -> PureResult<Vec<usize>> {
        let round = self.agrees.get() + 1;
        self.agrees.set(round);
        // Agreement must proceed on a revoked comm, so exempt its waits
        // from the revocation probe while we are inside.
        self.local.cur_comm.borrow_mut().take();
        let shared = Rc::clone(&self.local).shared.clone();
        let cell = shared.agree_cell(self.meta.id, round);
        cell.arrived.fetch_add(1, Ordering::AcqRel);

        // Gate: every member has either checked in or been condemned. The
        // detector bounds the wait — a crashed member's node goes silent
        // and is condemned within the suspicion threshold.
        let dead_members = |shared: &Shared| -> u64 {
            self.meta
                .members
                .iter()
                .filter(|&&w| {
                    self.local
                        .ep
                        .peer_dead(shared.rank_node[w as usize])
                        .is_some()
                })
                .count() as u64
        };
        let size = self.size() as u64;
        self.local.ssw_op(WaitOp::AgreeGate, None, None, || {
            (cell.arrived.load(Ordering::Acquire) + dead_members(&shared) >= size).then_some(())
        });

        // Pin or adopt the round's view (condemned node ids).
        let view: Vec<usize> = {
            let mut g = cell.view.lock();
            g.get_or_insert_with(|| self.local.ep.dead_nodes().iter().map(|&(n, _)| n).collect())
                .clone()
        };

        // Leader token round among survivors: no surviving leader returns
        // before every surviving leader has entered (and adopted the pinned
        // view), mirroring the agreement's synchronizing role in ULFM. A
        // peer condemned mid-round is returned, not escalated.
        if self.is_leader() && self.meta.nodes.len() > 1 {
            let g = self.leader_group();
            let survivors: Vec<usize> = (0..self.meta.nodes.len())
                .filter(|&p| !view.contains(&self.meta.nodes[p].node))
                .collect();
            let token = round.to_le_bytes();
            for &p in &survivors {
                if p != self.my_node_idx {
                    g.send_bytes(p, AGREE_PHASE, &token);
                }
            }
            for &p in &survivors {
                if p == self.my_node_idx {
                    continue;
                }
                loop {
                    let tok = g.try_recv_token(p, AGREE_PHASE)?;
                    if tok.len() == 8 {
                        let r = u64::from_le_bytes(tok[..8].try_into().unwrap());
                        if r >= round {
                            break;
                        }
                        // Stale token of an earlier agree round: drain it.
                    }
                }
            }
        }
        self.enter_comm();

        Ok(self
            .meta
            .members
            .iter()
            .enumerate()
            .filter(|(_, &w)| view.contains(&self.local.shared.rank_node[w as usize]))
            .map(|(cr, _)| cr)
            .collect())
    }

    /// Rebuild a smaller communicator from the survivors
    /// (`MPI_Comm_shrink`): [`PureComm::agree`] on the failure view, drop
    /// the dead members, and construct a fresh communicator — new id, new
    /// collective areas, and a fresh cross-node tag window from the
    /// launch-wide `TagBaseAlloc`, so no wire tag of the poisoned parent
    /// can ever match traffic of the shrunk child. Collective over
    /// surviving members; works on a revoked communicator.
    pub fn shrink(&self) -> PureResult<PureComm> {
        let dead = self.agree()?;
        let round = self.agrees.get();
        let members: Vec<u32> = self
            .meta
            .members
            .iter()
            .enumerate()
            .filter(|(cr, _)| !dead.contains(cr))
            .map(|(_, &w)| w)
            .collect();
        // Deterministic child id: every survivor folds the same agreed dead
        // set at the same round, so all construct the same communicator
        // (and the first to register allocates its tag window).
        let mut new_id = mix64(self.meta.id ^ mix64(round ^ 0x5411_1BFE));
        for &cr in &dead {
            new_id = mix64(new_id ^ (cr as u64 + 1));
        }
        let meta = CommMeta::from_members(new_id, members, &self.local.shared);
        Ok(PureComm::from_meta(Arc::new(meta), Rc::clone(&self.local)))
    }
}

/// Cross-node phase tag of the survivor-agreement token round (outside the
/// 0–47 band the collective algorithms use).
const AGREE_PHASE: u32 = 200;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_spreads_and_is_stable() {
        assert_eq!(mix64(42), mix64(42));
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn comm_meta_world_decomposition_via_launch() {
        // Exercise CommMeta through the public API: node groups and leader
        // placement must match the topology.
        let mut cfg = crate::runtime::Config::new(6).with_ranks_per_node(2);
        cfg.spin_budget = 8;
        crate::runtime::launch(cfg, |ctx| {
            let w = ctx.world();
            assert_eq!(w.meta.nodes.len(), 3);
            assert_eq!(w.meta.groups.len(), 3);
            for (ni, g) in w.meta.groups.iter().enumerate() {
                assert_eq!(g.len(), 2, "node {ni} group size");
                // Ascending comm ranks, contiguous for SMP placement.
                assert_eq!(g[0] as usize, ni * 2);
                assert_eq!(g[1] as usize, ni * 2 + 1);
            }
            // Leader of my node group = first member.
            assert_eq!(w.is_leader(), ctx.rank() % 2 == 0);
            assert_eq!(w.group_len(), 2);
            assert_eq!(w.world_rank(ctx.rank()), ctx.rank());
        });
    }

    #[test]
    fn split_child_meta_is_consistent() {
        let mut cfg = crate::runtime::Config::new(4).with_ranks_per_node(2);
        cfg.spin_budget = 8;
        crate::runtime::launch(cfg, |ctx| {
            let w = ctx.world();
            // Odd/even split across two nodes: each child spans both nodes.
            let sub = w.split((ctx.rank() % 2) as i64, ctx.rank() as i64).unwrap();
            assert_eq!(sub.meta.nodes.len(), 2);
            assert_eq!(sub.group_len(), 1);
            assert!(sub.is_leader(), "singleton groups are their own leaders");
            assert_ne!(sub.meta.id, 0, "child id must differ from world");
            assert_ne!(sub.meta.tag_base, w.meta.tag_base);
        });
    }

    #[test]
    fn tag_base_alloc_is_disjoint_and_stable() {
        let mut alloc = TagBaseAlloc::default();
        let (first, flag) = alloc.base_for(7);
        let (again, again_flag) = alloc.base_for(7);
        assert_eq!(again, first, "re-registration is idempotent");
        assert!(
            Arc::ptr_eq(&flag, &again_flag),
            "every handle of one comm id shares its revocation flag"
        );
        let mut seen = std::collections::HashSet::new();
        seen.insert(first);
        for id in 0..1000u64 {
            let (b, other) = alloc.base_for(mix64(id));
            assert!(
                !Arc::ptr_eq(&flag, &other),
                "comm {id} shares comm 7's flag"
            );
            assert!(seen.insert(b), "base {b:#x} assigned twice");
            assert_eq!(b & 0xFF, 0, "each base owns a full 256-tag window");
        }
    }

    #[test]
    fn adversarial_comm_ids_get_distinct_tag_bases() {
        // Regression for the hash-derived tag_base scheme: it drew from a
        // 2¹⁶-value space, so a birthday search quickly finds two comm ids
        // whose cross-node tag windows coincided. Build communicators with
        // exactly such an adversarial pair and run their cross-node
        // collectives concurrently — under the old scheme the wire tags
        // collide and leaders consume each other's frames.
        let old_scheme = |id: u64| ((mix64(id) >> 16) as u32) & 0x00FF_FF00;
        let mut seen = std::collections::HashMap::new();
        let mut pair = None;
        for id in 1u64..1_000_000 {
            if let Some(&prev) = seen.get(&old_scheme(id)) {
                pair = Some((prev, id));
                break;
            }
            seen.insert(old_scheme(id), id);
        }
        let (id_a, id_b) = pair.expect("birthday collision within 1e6 ids");
        assert_eq!(old_scheme(id_a), old_scheme(id_b));

        let mut cfg = crate::runtime::Config::new(4).with_ranks_per_node(2);
        cfg.spin_budget = 8;
        crate::runtime::launch(cfg, move |ctx| {
            let w = ctx.world();
            let shared = &w.local.shared;
            let all: Vec<u32> = (0..4).collect();
            let ca = PureComm::from_meta(
                Arc::new(CommMeta::from_members(id_a, all.clone(), shared)),
                Rc::clone(&w.local),
            );
            let cb = PureComm::from_meta(
                Arc::new(CommMeta::from_members(id_b, all, shared)),
                Rc::clone(&w.local),
            );
            assert_ne!(
                ca.meta.tag_base, cb.meta.tag_base,
                "adversarial ids must land in distinct windows"
            );
            // Interleaved cross-node collectives on both comms: ranks enter
            // A's and B's rounds with no global barrier between, so frames
            // of both communicators are in flight concurrently.
            let mut out = [0u64];
            for round in 0..8u64 {
                ca.allreduce(&[round + 1], &mut out, crate::datatype::ReduceOp::Sum);
                assert_eq!(out[0], 4 * (round + 1), "comm A round {round}");
                cb.allreduce(
                    &[10 * (round + 1)],
                    &mut out,
                    crate::datatype::ReduceOp::Sum,
                );
                assert_eq!(out[0], 40 * (round + 1), "comm B round {round}");
            }
        });
    }

    #[test]
    fn repeated_splits_get_distinct_ids() {
        let mut cfg = crate::runtime::Config::new(2);
        cfg.spin_budget = 8;
        crate::runtime::launch(cfg, |ctx| {
            let w = ctx.world();
            let a = w.split(0, 0).unwrap();
            let b = w.split(0, 0).unwrap();
            assert_ne!(a.meta.id, b.meta.id, "same args, different epochs");
            // Both remain fully operational.
            let mut out = [0u32];
            a.allreduce(&[1u32], &mut out, crate::datatype::ReduceOp::Sum);
            assert_eq!(out[0], 2);
            b.allreduce(&[2u32], &mut out, crate::datatype::ReduceOp::Sum);
            assert_eq!(out[0], 4);
        });
    }
}
