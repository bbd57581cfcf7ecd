//! miniAMR-mini — §5.3: a compact proxy for octree-based adaptive mesh
//! refinement.
//!
//! A unit cube is covered by a base grid of blocks; blocks near the surface
//! of a moving sphere are refined one level into eight children (the real
//! miniAMR's default workload is exactly such a moving object). Every rank
//! derives the *global* leaf set and its Morton-order partition
//! deterministically from the step number, so refinement and repartitioning
//! need no consensus traffic — but block *data* moves: when ownership
//! changes or blocks split/merge, payloads travel point-to-point, and every
//! step exchanges halos between face-adjacent leaves (same level, or one
//! level apart with restriction/interpolation) using **non-blocking**
//! messages, the dominant pattern the paper calls out for miniAMR.
//!
//! Collective usage mirrors the original: a small all-reduce (total mass and
//! cell count) every `mass_every` steps, a *large* all-reduce (a 512-bin
//! value histogram, 4 KiB — above Pure's 2 KiB SPTD threshold) every
//! `hist_every` steps, and per-octant reductions on sub-communicators
//! created with `comm_split`.

use std::collections::HashMap;

use pure_core::{Communicator, ReduceOp};

use crate::{mix64, unit_f64};

/// A block identifier: refinement level (0 = base, 1 = refined) and its
/// coordinates on that level's lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// 0 or 1.
    pub level: u8,
    /// Coordinates on the level lattice (level 1 lattice is 2× finer).
    pub c: [u16; 3],
}

impl BlockId {
    fn parent(self) -> BlockId {
        debug_assert_eq!(self.level, 1);
        BlockId {
            level: 0,
            c: [self.c[0] / 2, self.c[1] / 2, self.c[2] / 2],
        }
    }

    /// Morton key over the *fine* lattice (children sort adjacently after
    /// their parent's position).
    fn morton(self) -> u64 {
        let f = |v: u16| -> u64 {
            let mut x = v as u64;
            x = (x | (x << 32)) & 0x0000_00FF_0000_00FF;
            x = (x | (x << 16)) & 0x00FF_0000_FF00_00FF;
            x = (x | (x << 8)) & 0xF00F_00F0_0F00_F00F;
            x = (x | (x << 4)) & 0x30C3_0C30_C30C_30C3;
            x = (x | (x << 2)) & 0x9249_2492_4924_9249;
            x
        };
        let s = if self.level == 0 { 1 } else { 0 };
        let key = f(self.c[0] << s) | (f(self.c[1] << s) << 1) | (f(self.c[2] << s) << 2);
        (key << 1) | self.level as u64
    }
}

/// miniAMR-mini parameters.
#[derive(Clone, Copy, Debug)]
pub struct AmrParams {
    /// Base blocks per dimension.
    pub base: usize,
    /// Cells per block edge (even).
    pub block_cells: usize,
    /// Timesteps.
    pub steps: usize,
    /// Re-derive refinement + repartition every this many steps.
    pub refine_every: usize,
    /// Small all-reduce (mass) frequency.
    pub mass_every: usize,
    /// Large all-reduce (histogram) frequency.
    pub hist_every: usize,
    /// Per-octant sub-communicator reduction frequency.
    pub octant_every: usize,
    /// Refinement shell: blocks whose center is within this distance band of
    /// the sphere surface refine. (Fractions of the unit cube edge.)
    pub sphere_radius: f64,
    /// Band half-width.
    pub band: f64,
    /// Sphere speed (cube edges per 100 steps).
    pub speed: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for AmrParams {
    fn default() -> Self {
        Self {
            base: 4,
            block_cells: 8,
            steps: 12,
            refine_every: 4,
            mass_every: 2,
            hist_every: 4,
            octant_every: 6,
            sphere_radius: 0.3,
            band: 0.12,
            speed: 8.0,
            seed: 99,
        }
    }
}

/// Histogram bins for the large all-reduce (512 × 8 B = 4 KiB > 2 KiB SPTD
/// threshold → exercises the Partitioned Reducer).
pub const HIST_BINS: usize = 512;

fn sphere_center(step: usize, p: &AmrParams) -> [f64; 3] {
    let t = step as f64 * p.speed / 100.0;
    [
        (unit_f64(mix64(p.seed ^ 1)) + t).fract(),
        (unit_f64(mix64(p.seed ^ 2)) + 0.6 * t).fract(),
        (unit_f64(mix64(p.seed ^ 3)) + 0.3 * t).fract(),
    ]
}

/// The global leaf set at `step`: base blocks in the refinement band become
/// 8 children. Pure function of (params, step) — every rank agrees.
pub fn leaf_set(step: usize, p: &AmrParams) -> Vec<BlockId> {
    let epoch = step / p.refine_every;
    let c = sphere_center(epoch * p.refine_every, p);
    let mut leaves = Vec::new();
    let b = p.base;
    for z in 0..b {
        for y in 0..b {
            for x in 0..b {
                let center = [
                    (x as f64 + 0.5) / b as f64,
                    (y as f64 + 0.5) / b as f64,
                    (z as f64 + 0.5) / b as f64,
                ];
                let mut d2: f64 = 0.0;
                for d in 0..3 {
                    let mut dx = (center[d] - c[d]).abs();
                    if dx > 0.5 {
                        dx = 1.0 - dx;
                    }
                    d2 += dx * dx;
                }
                let dist = d2.sqrt();
                if (dist - p.sphere_radius).abs() < p.band {
                    for dz in 0..2u16 {
                        for dy in 0..2u16 {
                            for dx in 0..2u16 {
                                leaves.push(BlockId {
                                    level: 1,
                                    c: [2 * x as u16 + dx, 2 * y as u16 + dy, 2 * z as u16 + dz],
                                });
                            }
                        }
                    }
                } else {
                    leaves.push(BlockId {
                        level: 0,
                        c: [x as u16, y as u16, z as u16],
                    });
                }
            }
        }
    }
    leaves.sort_by_key(|l| l.morton());
    leaves
}

/// Contiguous Morton-order partition: owner of leaf index `i` out of `n`
/// over `ranks` ranks.
pub fn owner_of(i: usize, n: usize, ranks: usize) -> usize {
    // Inverse of the near-equal split: first (n % ranks) ranks get one extra.
    let base = n / ranks;
    let extra = n % ranks;
    let cut = extra * (base + 1);
    if i < cut {
        i / (base + 1)
    } else {
        extra + (i - cut) / base
    }
}

/// Block data: `n³` cells.
#[derive(Clone, Debug)]
pub struct Block {
    /// Cell values.
    pub data: Vec<f64>,
}

impl Block {
    fn at(&self, n: usize, x: usize, y: usize, z: usize) -> f64 {
        self.data[x + n * (y + n * z)]
    }
}

/// Result of a miniAMR run.
#[derive(Clone, Debug, PartialEq)]
pub struct AmrResult {
    /// Mass trace from the small all-reduces.
    pub mass_trace: Vec<f64>,
    /// Final histogram (large all-reduce result).
    pub final_hist: Vec<f64>,
    /// Per-octant masses from the sub-communicator reductions (last one).
    pub octant_mass: f64,
    /// Total leaves at the end.
    pub leaves: usize,
    /// Order-independent global checksum of all cell data.
    pub checksum: u64,
}

struct Mesh {
    leaves: Vec<BlockId>,
    index: HashMap<BlockId, usize>,
    blocks: HashMap<BlockId, Block>, // owned blocks only
}

impl Mesh {
    fn owner(&self, id: BlockId, ranks: usize) -> usize {
        owner_of(self.index[&id], self.leaves.len(), ranks)
    }
}

/// Index of each leaf in the (Morton-sorted) global leaf list.
pub fn build_index(leaves: &[BlockId]) -> HashMap<BlockId, usize> {
    leaves.iter().enumerate().map(|(i, &l)| (l, i)).collect()
}

/// The neighbour leaves across face `face` (axis*2+dir) of `id`, with the
/// (quadrant) placement for finer neighbours. Periodic boundaries. (Public
/// so the cluster simulator can reuse the exact mesh connectivity.)
pub fn face_neighbors(
    id: BlockId,
    face: usize,
    p: &AmrParams,
    index: &HashMap<BlockId, usize>,
) -> Vec<(BlockId, usize)> {
    let axis = face / 2;
    let dir = if face % 2 == 0 { -1i32 } else { 1 };
    let lat = |level: u8| (p.base as i32) << level; // lattice size at level
    let wrap = |v: i32, n: i32| ((v % n) + n) % n;

    // Candidate at the same level.
    let mut c = [id.c[0] as i32, id.c[1] as i32, id.c[2] as i32];
    c[axis] = wrap(c[axis] + dir, lat(id.level));
    let same = BlockId {
        level: id.level,
        c: [c[0] as u16, c[1] as u16, c[2] as u16],
    };
    if index.contains_key(&same) {
        return vec![(same, usize::MAX)];
    }
    if id.level == 1 {
        // Neighbour must be the coarser block containing `same`.
        let parent = same.parent();
        debug_assert!(index.contains_key(&parent), "2-level invariant");
        return vec![(parent, usize::MAX)];
    }
    // Level 0 with no level-0 neighbour: four finer children cover the face.
    let fine_plane = if dir < 0 {
        2 * (id.c[axis] as i32) - 1 // the children's high plane
    } else {
        2 * (id.c[axis] as i32 + 1) // children's low plane
    };
    let fine_plane = wrap(fine_plane, lat(1));
    let (u_axis, v_axis) = match axis {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    };
    let mut out = Vec::with_capacity(4);
    for v in 0..2i32 {
        for u in 0..2i32 {
            let mut fc = [0i32; 3];
            fc[axis] = fine_plane;
            fc[u_axis] = 2 * id.c[u_axis] as i32 + u;
            fc[v_axis] = 2 * id.c[v_axis] as i32 + v;
            let fid = BlockId {
                level: 1,
                c: [fc[0] as u16, fc[1] as u16, fc[2] as u16],
            };
            debug_assert!(index.contains_key(&fid), "2-level invariant (fine face)");
            out.push((fid, (v * 2 + u) as usize));
        }
    }
    out
}

/// Extract the source's contribution to `dst`'s halo across `face`
/// (from the source block's adjacent cell plane, restricted / injected to
/// the destination resolution). `quadrant`: which quarter of a coarse
/// source's face a fine destination abuts, or which quadrant of the coarse
/// *destination's* face a fine source covers.
fn face_payload(
    src_id: BlockId,
    src: &Block,
    dst_id: BlockId,
    face_of_dst: usize,
    quadrant: usize,
    n: usize,
) -> Vec<f64> {
    let axis = face_of_dst / 2;
    let dir_of_dst = if face_of_dst % 2 == 0 { -1i32 } else { 1 };
    // The source plane facing the destination: if dst looks in -axis, the
    // source's high plane; else the source's low plane.
    let plane = if dir_of_dst < 0 { n - 1 } else { 0 };
    let (u_axis, v_axis) = match axis {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    };
    let get = |u: usize, v: usize| -> f64 {
        let mut c = [0usize; 3];
        c[axis] = plane;
        c[u_axis] = u;
        c[v_axis] = v;
        src.at(n, c[0], c[1], c[2])
    };
    let mut out = Vec::with_capacity(n * n);
    if src_id.level == dst_id.level {
        for v in 0..n {
            for u in 0..n {
                out.push(get(u, v));
            }
        }
    } else if src_id.level < dst_id.level {
        // Coarse → fine: the fine dst abuts one quadrant of the source face;
        // inject (piecewise constant) to fine resolution.
        let (qu, qv) = quadrant_of(dst_id, u_axis, v_axis);
        for v in 0..n {
            for u in 0..n {
                out.push(get(qu * n / 2 + u / 2, qv * n / 2 + v / 2));
            }
        }
    } else {
        // Fine → coarse: this source covers quadrant `quadrant` of the
        // coarse face; restrict 2×2 → 1 (average). Payload (n/2)².
        let _ = quadrant;
        for v in 0..n / 2 {
            for u in 0..n / 2 {
                let s = get(2 * u, 2 * v)
                    + get(2 * u + 1, 2 * v)
                    + get(2 * u, 2 * v + 1)
                    + get(2 * u + 1, 2 * v + 1);
                out.push(s * 0.25);
            }
        }
    }
    out
}

/// Which quadrant of its parent's face a fine block occupies, in (u,v).
fn quadrant_of(fine: BlockId, u_axis: usize, v_axis: usize) -> (usize, usize) {
    ((fine.c[u_axis] % 2) as usize, (fine.c[v_axis] % 2) as usize)
}

/// Apply a received face payload into dst's halo plane representation —
/// we store halos as dense per-face planes.
struct Halo {
    /// Six planes of n² values each (coarse-from-fine arrives (n/2)² per
    /// quadrant and is scattered).
    planes: Vec<Vec<f64>>,
}

impl Halo {
    fn new(n: usize) -> Self {
        Self {
            planes: vec![vec![0.0; n * n]; 6],
        }
    }

    fn apply(&mut self, face: usize, quadrant: usize, payload: &[f64], n: usize) {
        if quadrant == usize::MAX {
            debug_assert_eq!(payload.len(), n * n);
            self.planes[face].copy_from_slice(payload);
        } else {
            // A fine source covering one quadrant of this coarse face.
            debug_assert_eq!(payload.len(), n * n / 4);
            let (qu, qv) = (quadrant % 2, quadrant / 2);
            for v in 0..n / 2 {
                for u in 0..n / 2 {
                    self.planes[face][(qv * n / 2 + v) * n + (qu * n / 2 + u)] =
                        payload[v * (n / 2) + u];
                }
            }
        }
    }
}

/// Run miniAMR-mini.
pub fn run_miniamr<C: Communicator>(comm: &C, p: &AmrParams) -> AmrResult {
    assert!(p.block_cells >= 2 && p.block_cells % 2 == 0);
    let n = p.block_cells;
    let ranks = comm.size();
    let me = comm.rank();

    // Octant sub-communicator (comm_split usage, as in the real miniAMR's
    // non-world communicators). Color = my rank's octant by rank index.
    let octant = (me * 8 / ranks.max(1)).min(7) as i64;
    let oct_comm = comm.split(octant, me as i64).expect("non-negative color");

    // Initial mesh + data.
    let leaves = leaf_set(0, p);
    let index = build_index(&leaves);
    let mut mesh = Mesh {
        blocks: HashMap::new(),
        leaves,
        index,
    };
    for (i, &id) in mesh.leaves.iter().enumerate() {
        if owner_of(i, mesh.leaves.len(), ranks) == me {
            let mut data = vec![0.0f64; n * n * n];
            for (ci, x) in data.iter_mut().enumerate() {
                *x = unit_f64(mix64(id.morton() ^ (ci as u64) << 32 ^ p.seed));
            }
            mesh.blocks.insert(id, Block { data });
        }
    }

    let mut mass_trace = Vec::new();
    let mut final_hist = vec![0.0f64; HIST_BINS];
    let mut octant_mass = 0.0f64;

    for step in 0..p.steps {
        // ---- Remesh epoch: new leaf set, repartition, move payloads. ----
        if step > 0 && step % p.refine_every == 0 {
            remesh(comm, &mut mesh, step, p, ranks, me);
        }

        // ---- Halo exchange (non-blocking). ----
        let halos = halo_exchange(comm, &mesh, p, ranks, me);

        // ---- 7-point stencil update on every owned block. ----
        let ids: Vec<BlockId> = sorted_owned(&mesh);
        let mut new_blocks: HashMap<BlockId, Block> = HashMap::new();
        for id in &ids {
            let b = &mesh.blocks[id];
            let h = &halos[id];
            let mut out = vec![0.0f64; n * n * n];
            for z in 0..n {
                for y in 0..n {
                    for x in 0..n {
                        let c = b.at(n, x, y, z);
                        let xm = if x > 0 {
                            b.at(n, x - 1, y, z)
                        } else {
                            h.planes[0][y + n * z]
                        };
                        let xp = if x < n - 1 {
                            b.at(n, x + 1, y, z)
                        } else {
                            h.planes[1][y + n * z]
                        };
                        let ym = if y > 0 {
                            b.at(n, x, y - 1, z)
                        } else {
                            h.planes[2][x + n * z]
                        };
                        let yp = if y < n - 1 {
                            b.at(n, x, y + 1, z)
                        } else {
                            h.planes[3][x + n * z]
                        };
                        let zm = if z > 0 {
                            b.at(n, x, y, z - 1)
                        } else {
                            h.planes[4][x + n * y]
                        };
                        let zp = if z < n - 1 {
                            b.at(n, x, y, z + 1)
                        } else {
                            h.planes[5][x + n * y]
                        };
                        out[x + n * (y + n * z)] =
                            c + 0.1 * (xm + xp + ym + yp + zm + zp - 6.0 * c);
                    }
                }
            }
            new_blocks.insert(*id, Block { data: out });
        }
        mesh.blocks = new_blocks;

        // ---- Collectives. ----
        if (step + 1) % p.mass_every == 0 {
            let my: f64 = mesh
                .blocks
                .iter()
                .map(|(id, b)| {
                    let w = if id.level == 0 { 1.0 } else { 0.125 };
                    w * b.data.iter().sum::<f64>()
                })
                .sum();
            let total = comm.allreduce_one(my, ReduceOp::Sum);
            mass_trace.push(total);
        }
        if (step + 1) % p.hist_every == 0 {
            let mut mine = vec![0.0f64; HIST_BINS];
            for b in mesh.blocks.values() {
                for &x in &b.data {
                    let bin = ((x.clamp(0.0, 1.0)) * (HIST_BINS - 1) as f64) as usize;
                    mine[bin] += 1.0;
                }
            }
            comm.allreduce(&mine, &mut final_hist, ReduceOp::Sum);
        }
        if (step + 1) % p.octant_every == 0 {
            let my: f64 = mesh
                .blocks
                .values()
                .map(|b| b.data.iter().sum::<f64>())
                .sum();
            octant_mass = oct_comm.allreduce_one(my, ReduceOp::Sum);
        }
    }

    // Checksum.
    let mut my_ck = 0u64;
    for (id, b) in &mesh.blocks {
        for (i, x) in b.data.iter().enumerate() {
            my_ck ^= mix64(id.morton() ^ ((i as u64) << 20) ^ x.to_bits());
        }
    }
    let checksum = comm.allreduce_one(my_ck, ReduceOp::Sum);
    AmrResult {
        mass_trace,
        final_hist,
        octant_mass,
        leaves: mesh.leaves.len(),
        checksum,
    }
}

fn sorted_owned(mesh: &Mesh) -> Vec<BlockId> {
    let mut ids: Vec<BlockId> = mesh.blocks.keys().copied().collect();
    ids.sort_by_key(|l| l.morton());
    ids
}

/// Non-blocking halo exchange: every (dst leaf, face, src leaf) pair is
/// enumerated in global Morton order by both sides; remote pairs become one
/// message each.
fn halo_exchange<C: Communicator>(
    comm: &C,
    mesh: &Mesh,
    p: &AmrParams,
    ranks: usize,
    me: usize,
) -> HashMap<BlockId, Halo> {
    let n = p.block_cells;
    let mut halos: HashMap<BlockId, Halo> =
        mesh.blocks.keys().map(|&id| (id, Halo::new(n))).collect();

    // Enumerate all pairs in global deterministic order.
    struct Pair {
        dst: BlockId,
        face: usize,
        src: BlockId,
        quadrant: usize,
    }
    let mut recv_pairs: Vec<Pair> = Vec::new(); // dst owned by me, src remote
    let mut send_pairs: Vec<Pair> = Vec::new(); // src owned by me, dst remote
    for &dst in &mesh.leaves {
        let downer = mesh.owner(dst, ranks);
        for face in 0..6 {
            for (src, quadrant) in face_neighbors(dst, face, p, &mesh.index) {
                // Fine-source quadrant id for coarse dst: which quadrant of
                // dst's face this fine src covers.
                let sowner = mesh.owner(src, ranks);
                if downer == me && sowner == me {
                    // Local fill.
                    let payload = face_payload(src, &mesh.blocks[&src], dst, face, quadrant, n);
                    let q = if src.level > dst.level {
                        fine_quadrant_on_face(src, face)
                    } else {
                        usize::MAX
                    };
                    halos.get_mut(&dst).unwrap().apply(face, q, &payload, n);
                } else if downer == me {
                    recv_pairs.push(Pair {
                        dst,
                        face,
                        src,
                        quadrant,
                    });
                } else if sowner == me {
                    send_pairs.push(Pair {
                        dst,
                        face,
                        src,
                        quadrant,
                    });
                }
            }
        }
    }

    // Post receives (buffer per pair), then send, then complete.
    let mut recv_bufs: Vec<Vec<f64>> = recv_pairs
        .iter()
        .map(|pr| {
            let len = if pr.src.level > pr.dst.level {
                n * n / 4
            } else {
                n * n
            };
            vec![0.0f64; len]
        })
        .collect();
    {
        // Build all outgoing payloads first so the non-blocking sends can
        // borrow them, then complete sends and receives together: with
        // bounded lock-free queues, waiting on receives while sends sit
        // undrained (or vice versa) deadlocks — see `CommRequest::wait_all`.
        let send_payloads: Vec<Vec<f64>> = send_pairs
            .iter()
            .map(|pr| {
                face_payload(
                    pr.src,
                    &mesh.blocks[&pr.src],
                    pr.dst,
                    pr.face,
                    pr.quadrant,
                    n,
                )
            })
            .collect();
        // One tag per (face, payload size): a fine source sends a quarter
        // face. Cross-node wire tags do not carry the byte count, and the
        // batch wait below completes receives in no fixed order,
        // so two sizes under one tag could hand a full-face frame to a
        // quarter-face receive.
        let tag = |pr: &Pair| pr.face as u32 * 2 + u32::from(pr.src.level > pr.dst.level);
        let mut reqs = Vec::new();
        for (pr, buf) in recv_pairs.iter().zip(recv_bufs.iter_mut()) {
            let src_owner = mesh.owner(pr.src, ranks);
            reqs.push(comm.irecv(buf, src_owner, tag(pr)));
        }
        for (pr, payload) in send_pairs.iter().zip(send_payloads.iter()) {
            let dst_owner = mesh.owner(pr.dst, ranks);
            reqs.push(comm.isend(payload, dst_owner, tag(pr)));
        }
        pure_core::wait_all(reqs);
    }
    for (pr, buf) in recv_pairs.iter().zip(recv_bufs.iter()) {
        let q = if pr.src.level > pr.dst.level {
            fine_quadrant_on_face(pr.src, pr.face)
        } else {
            usize::MAX
        };
        halos.get_mut(&pr.dst).unwrap().apply(pr.face, q, buf, n);
    }
    halos
}

/// Which quadrant (v*2+u) of a coarse face the fine block `src` covers,
/// where `face` is the *destination's* face.
fn fine_quadrant_on_face(src: BlockId, face: usize) -> usize {
    let axis = face / 2;
    let (u_axis, v_axis) = match axis {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    };
    let (u, v) = quadrant_of(src, u_axis, v_axis);
    v * 2 + u
}

/// Remesh: derive the new leaf set, repartition, and move/derive block data.
fn remesh<C: Communicator>(
    comm: &C,
    mesh: &mut Mesh,
    step: usize,
    p: &AmrParams,
    ranks: usize,
    me: usize,
) {
    let n = p.block_cells;
    let new_leaves = leaf_set(step, p);
    let new_index = build_index(&new_leaves);

    // For each new leaf, its data derives from old leaves:
    //  * same leaf existed → transfer;
    //  * new fine leaf, old coarse parent existed → inject subregion;
    //  * new coarse leaf, old fine children existed → average 8 children.
    // Messages flow old-owner → new-owner in global (new) Morton order.
    enum SrcKind {
        Same(BlockId),
        FromParent(BlockId),
        FromChildren([BlockId; 8]),
    }
    let derive = |id: BlockId| -> SrcKind {
        if mesh.index.contains_key(&id) {
            SrcKind::Same(id)
        } else if id.level == 1 {
            SrcKind::FromParent(id.parent())
        } else {
            let mut ch = [BlockId {
                level: 1,
                c: [0; 3],
            }; 8];
            for (k, c) in ch.iter_mut().enumerate() {
                *c = BlockId {
                    level: 1,
                    c: [
                        2 * id.c[0] + (k & 1) as u16,
                        2 * id.c[1] + ((k >> 1) & 1) as u16,
                        2 * id.c[2] + ((k >> 2) & 1) as u16,
                    ],
                };
            }
            SrcKind::FromChildren(ch)
        }
    };

    const RETAG: u32 = 64;

    // Receives first (ordering per channel is global order on both sides).
    struct RecvPlan {
        new_id: BlockId,
        bufs: Vec<(BlockId, Vec<f64>)>, // source old leaf → payload
    }
    let mut plans: Vec<RecvPlan> = Vec::new();
    for (i, &id) in new_leaves.iter().enumerate() {
        if owner_of(i, new_leaves.len(), ranks) != me {
            continue;
        }
        let mut bufs = Vec::new();
        match derive(id) {
            SrcKind::Same(s) | SrcKind::FromParent(s) => {
                if mesh.owner(s, ranks) != me {
                    bufs.push((s, vec![0.0f64; n * n * n]));
                }
            }
            SrcKind::FromChildren(ch) => {
                for s in ch {
                    if mesh.owner(s, ranks) != me {
                        bufs.push((s, vec![0.0f64; n * n * n]));
                    }
                }
            }
        }
        plans.push(RecvPlan { new_id: id, bufs });
    }
    let mut reqs = Vec::new();
    for plan in plans.iter_mut() {
        for (src, buf) in plan.bufs.iter_mut() {
            let owner = mesh.owner(*src, ranks);
            reqs.push(comm.irecv(buf, owner, RETAG));
        }
    }

    // Sends: iterate new leaves in the same global order. Non-blocking and
    // polled together with the receives (see halo_exchange).
    for (i, &id) in new_leaves.iter().enumerate() {
        let new_owner = owner_of(i, new_leaves.len(), ranks);
        if new_owner == me {
            continue;
        }
        let mut send_src = |s: BlockId| {
            if mesh.owner(s, ranks) == me {
                reqs.push(comm.isend(&mesh.blocks[&s].data, new_owner, RETAG));
            }
        };
        match derive(id) {
            SrcKind::Same(s) | SrcKind::FromParent(s) => send_src(s),
            SrcKind::FromChildren(ch) => ch.into_iter().for_each(send_src),
        }
    }
    pure_core::wait_all(reqs);

    // Assemble new blocks.
    let mut new_blocks: HashMap<BlockId, Block> = HashMap::new();
    for plan in plans {
        let id = plan.new_id;
        let fetch = |s: BlockId, plan: &RecvPlan| -> Vec<f64> {
            if let Some(b) = mesh.blocks.get(&s) {
                b.data.clone()
            } else {
                plan.bufs
                    .iter()
                    .find(|(bs, _)| *bs == s)
                    .expect("payload received")
                    .1
                    .clone()
            }
        };
        let data = match derive(id) {
            SrcKind::Same(s) => fetch(s, &plan),
            SrcKind::FromParent(s) => {
                // Inject the parent's octant into the child at fine
                // resolution (piecewise constant).
                let parent = fetch(s, &plan);
                let ox = (id.c[0] % 2) as usize * n / 2;
                let oy = (id.c[1] % 2) as usize * n / 2;
                let oz = (id.c[2] % 2) as usize * n / 2;
                let mut out = vec![0.0f64; n * n * n];
                for z in 0..n {
                    for y in 0..n {
                        for x in 0..n {
                            out[x + n * (y + n * z)] =
                                parent[(ox + x / 2) + n * ((oy + y / 2) + n * (oz + z / 2))];
                        }
                    }
                }
                out
            }
            SrcKind::FromChildren(ch) => {
                // Restrict: each coarse cell is the average of 2³ fine cells
                // from the appropriate child.
                let kids: Vec<Vec<f64>> = ch.iter().map(|&s| fetch(s, &plan)).collect();
                let mut out = vec![0.0f64; n * n * n];
                for z in 0..n {
                    for y in 0..n {
                        for x in 0..n {
                            let k = (x >= n / 2) as usize
                                | (((y >= n / 2) as usize) << 1)
                                | (((z >= n / 2) as usize) << 2);
                            let (fx, fy, fz) =
                                (2 * (x % (n / 2)), 2 * (y % (n / 2)), 2 * (z % (n / 2)));
                            let kd = &kids[k];
                            let mut s = 0.0;
                            for dz in 0..2 {
                                for dy in 0..2 {
                                    for dx in 0..2 {
                                        s += kd[(fx + dx) + n * ((fy + dy) + n * (fz + dz))];
                                    }
                                }
                            }
                            out[x + n * (y + n * z)] = s / 8.0;
                        }
                    }
                }
                out
            }
        };
        new_blocks.insert(id, Block { data });
    }

    mesh.leaves = new_leaves;
    mesh.index = new_index;
    mesh.blocks = new_blocks;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> AmrParams {
        AmrParams::default()
    }

    #[test]
    fn leaf_set_is_deterministic_and_two_level() {
        let a = leaf_set(0, &p());
        let b = leaf_set(0, &p());
        assert_eq!(a, b);
        assert!(a.iter().all(|l| l.level <= 1));
        // Each base block contributes 1 or 8 leaves.
        let base_total = p().base.pow(3);
        let fine = a.iter().filter(|l| l.level == 1).count();
        let coarse = a.iter().filter(|l| l.level == 0).count();
        assert_eq!(coarse + fine / 8, base_total);
        assert_eq!(fine % 8, 0);
    }

    #[test]
    fn leaf_set_changes_as_sphere_moves() {
        let a = leaf_set(0, &p());
        let b = leaf_set(40, &p());
        assert_ne!(a, b, "refinement must track the moving sphere");
    }

    #[test]
    fn owner_partition_is_contiguous_and_balanced() {
        let n = 37;
        let ranks = 5;
        let mut counts = vec![0usize; ranks];
        let mut prev = 0;
        for i in 0..n {
            let o = owner_of(i, n, ranks);
            assert!(o >= prev, "owners must be nondecreasing");
            assert!(o < ranks);
            prev = o;
            counts[o] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "near-equal split");
    }

    #[test]
    fn morton_orders_children_after_parent_region() {
        let a = BlockId {
            level: 0,
            c: [0, 0, 0],
        };
        let child = BlockId {
            level: 1,
            c: [0, 0, 0],
        };
        let far = BlockId {
            level: 0,
            c: [3, 3, 3],
        };
        assert!(a.morton() < far.morton());
        assert!(child.morton() < far.morton());
    }

    #[test]
    fn face_neighbors_cover_expected_cases() {
        let leaves = leaf_set(0, &p());
        let index = build_index(&leaves);
        for &l in leaves.iter().take(64) {
            for face in 0..6 {
                let nbrs = face_neighbors(l, face, &p(), &index);
                assert!(nbrs.len() == 1 || nbrs.len() == 4);
                for (nb, _) in nbrs {
                    assert!(index.contains_key(&nb), "neighbor must be a leaf");
                }
            }
        }
    }

    #[test]
    fn face_payload_sizes() {
        let n = 8;
        let blk = Block {
            data: (0..n * n * n).map(|i| i as f64).collect(),
        };
        let c0 = BlockId {
            level: 0,
            c: [0, 0, 0],
        };
        let c1 = BlockId {
            level: 0,
            c: [1, 0, 0],
        };
        let f1 = BlockId {
            level: 1,
            c: [2, 0, 0],
        };
        assert_eq!(face_payload(c1, &blk, c0, 1, usize::MAX, n).len(), n * n);
        assert_eq!(face_payload(c0, &blk, f1, 0, usize::MAX, n).len(), n * n);
        assert_eq!(face_payload(f1, &blk, c0, 1, 0, n).len(), n * n / 4);
    }
}
