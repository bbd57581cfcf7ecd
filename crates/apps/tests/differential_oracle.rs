//! Differential oracle: seeded random programs — p2p traffic plus
//! collectives over mixed datatypes — run once against the Pure runtime
//! (single- and multi-node layouts) and once against the MPI-everywhere
//! baseline. Every rank folds every result it observes into a digest; the
//! per-rank digest vectors must be **bit-identical** across runtimes.
//!
//! Bit-identity discipline: order-sensitive reductions (`Sum`, `Prod`) use
//! wrapping integer arithmetic only; floats appear where the result is pure
//! data movement (`bcast`, `gather`, `alltoall`, p2p) or order-insensitive
//! selection (`Min`/`Max`), matching the cross-runtime guarantees the
//! mini-apps already rely on. `scan` is the exception: both runtimes run the
//! one `Communicator` default method, which folds in comm-rank order, so an
//! order-sensitive float scan must match too.

use mpi_baseline::{mpi_launch_map, MpiConfig};
use pure_core::prelude::*;

// Deterministic splitmix64: every rank derives the same program from the
// seed, and rank-dependent payloads from (seed, op, rank).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut s = a ^ b.rotate_left(24) ^ c.rotate_left(48);
    splitmix(&mut s)
}

fn absorb(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest = (*digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn absorb_i64s(digest: &mut u64, vals: &[i64]) {
    for v in vals {
        absorb(digest, &v.to_le_bytes());
    }
}

fn absorb_f64s(digest: &mut u64, vals: &[f64]) {
    for v in vals {
        absorb(digest, &v.to_bits().to_le_bytes());
    }
}

fn int_reduce_op(r: u64) -> ReduceOp {
    match r % 6 {
        0 => ReduceOp::Sum,
        1 => ReduceOp::Prod,
        2 => ReduceOp::Min,
        3 => ReduceOp::Max,
        4 => ReduceOp::BitAnd,
        _ => ReduceOp::BitOr,
    }
}

fn i64_payload(seed: u64, op: u64, rank: usize, len: usize) -> Vec<i64> {
    (0..len)
        .map(|j| mix(seed, op * 64 + j as u64, rank as u64) as i64)
        .collect()
}

fn f64_payload(seed: u64, op: u64, rank: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|j| {
            // Finite, NaN-free floats so Min/Max selection is total.
            let bits = mix(seed, op * 64 + j as u64, rank as u64);
            ((bits % 2_000_001) as f64 - 1_000_000.0) / 1024.0
        })
        .collect()
}

/// Interpret the random program for `seed` on any communicator; the return
/// value is this rank's digest of everything it observed.
fn run_program<C: Communicator>(c: &C, seed: u64) -> u64 {
    let n = c.size();
    let me = c.rank();
    let mut rng = seed;
    let mut digest = 0xCBF2_9CE4_8422_2325u64 ^ me as u64;
    let n_ops = 10 + (splitmix(&mut rng) % 6);
    for op in 0..n_ops {
        let len = 1 + (splitmix(&mut rng) % 6) as usize;
        let root = (splitmix(&mut rng) % n as u64) as usize;
        let kind = splitmix(&mut rng) % 12;
        match kind {
            0 => {
                // Integer allreduce (wrapping ops are order-insensitive).
                let rop = int_reduce_op(splitmix(&mut rng));
                let input = i64_payload(seed, op, me, len);
                let mut out = vec![0i64; len];
                c.allreduce(&input, &mut out, rop);
                absorb_i64s(&mut digest, &out);
            }
            1 => {
                // Integer reduce to a random root.
                let rop = int_reduce_op(splitmix(&mut rng));
                let input = i64_payload(seed, op, me, len);
                let mut out = vec![0i64; len];
                let out_opt = (me == root).then_some(&mut out[..]);
                c.reduce(&input, out_opt, root, rop);
                if me == root {
                    absorb_i64s(&mut digest, &out);
                }
            }
            2 => {
                // Float broadcast: pure data movement, bit-exact.
                let mut data = if me == root {
                    f64_payload(seed, op, root, len)
                } else {
                    vec![0.0; len]
                };
                c.bcast(&mut data, root);
                absorb_f64s(&mut digest, &data);
            }
            3 => {
                // Float allreduce Min/Max: order-insensitive selection.
                let rop = if splitmix(&mut rng) % 2 == 0 {
                    ReduceOp::Min
                } else {
                    ReduceOp::Max
                };
                let input = f64_payload(seed, op, me, len);
                let mut out = vec![0.0f64; len];
                c.allreduce(&input, &mut out, rop);
                absorb_f64s(&mut digest, &out);
            }
            4 => {
                // Gather equal blocks to a random root.
                let send = i64_payload(seed, op, me, len);
                let mut recv = vec![0i64; len * n];
                let recv_opt = (me == root).then_some(&mut recv[..]);
                c.gather(&send, recv_opt, root);
                if me == root {
                    absorb_i64s(&mut digest, &recv);
                }
            }
            5 => {
                let send = i64_payload(seed, op, me, len);
                let mut recv = vec![0i64; len * n];
                c.allgather(&send, &mut recv);
                absorb_i64s(&mut digest, &recv);
            }
            6 => {
                // Scatter from a random root.
                let send = (me == root).then(|| i64_payload(seed, op, root, len * n));
                let mut recv = vec![0i64; len];
                c.scatter(send.as_deref(), &mut recv, root);
                absorb_i64s(&mut digest, &recv);
            }
            7 => {
                // Inclusive integer prefix scan.
                let rop = int_reduce_op(splitmix(&mut rng));
                let input = i64_payload(seed, op, me, len);
                let mut out = vec![0i64; len];
                c.scan(&input, &mut out, rop);
                absorb_i64s(&mut digest, &out);
                // Float product scan: order-sensitive, so it is bit-identical
                // only because both runtimes fold in comm-rank order.
                let input = f64_payload(seed, op, me, len);
                let mut out = vec![0.0f64; len];
                c.scan(&input, &mut out, ReduceOp::Prod);
                absorb_f64s(&mut digest, &out);
            }
            8 => {
                // Float all-to-all: data movement only.
                let send = f64_payload(seed, op, me, len * n);
                let mut recv = vec![0.0f64; len * n];
                c.alltoall(&send, &mut recv);
                absorb_f64s(&mut digest, &recv);
            }
            9 => {
                // Ring sendrecv (deadlock-free paired exchange).
                let tag = (splitmix(&mut rng) % 1000) as Tag;
                let dst = (me + 1) % n;
                let src = (me + n - 1) % n;
                let send = i64_payload(seed, op, me, len);
                let mut recv = vec![0i64; len];
                c.sendrecv(&send, dst, &mut recv, src, tag);
                absorb_i64s(&mut digest, &recv);
            }
            10 => {
                // Counter-ring with explicit isend/irecv pairs.
                let tag = (splitmix(&mut rng) % 1000) as Tag;
                let dst = (me + n - 1) % n;
                let src = (me + 1) % n;
                let send = f64_payload(seed, op, me, len);
                let mut recv = vec![0.0f64; len];
                {
                    let rx = c.irecv(&mut recv, src, tag);
                    let tx = c.isend(&send, dst, tag);
                    rx.wait();
                    tx.wait();
                }
                absorb_f64s(&mut digest, &recv);
            }
            _ => {
                // Split into even/odd sub-communicators, reduce within each,
                // and barrier the parent back together.
                let sub = c.split((me % 2) as i64, me as i64);
                let sub = sub.expect("non-negative color always joins");
                let v = mix(seed, op, me as u64) as i64;
                let s = sub.allreduce_one(v, ReduceOp::Sum);
                absorb_i64s(&mut digest, &[s, sub.rank() as i64, sub.size() as i64]);
                c.barrier();
            }
        }
    }
    digest
}

fn pure_digests_on(backend: Backend, seed: u64, ranks: usize, rpn: usize) -> Vec<u64> {
    let mut cfg = Config::new(ranks).with_transport(backend);
    cfg.spin_budget = 16;
    if rpn > 0 {
        cfg = cfg.with_ranks_per_node(rpn);
    }
    let (_, digests) = launch_map(cfg, move |ctx| run_program(ctx.world(), seed));
    digests
}

/// The default sweeps honour `PURE_BACKEND`, so the CI backend matrix can
/// replay the whole oracle over real TCP sockets with no code change.
fn pure_digests(seed: u64, ranks: usize, rpn: usize) -> Vec<u64> {
    pure_digests_on(Backend::from_env(), seed, ranks, rpn)
}

fn mpi_digests(seed: u64, ranks: usize) -> Vec<u64> {
    let (_, digests) = mpi_launch_map(MpiConfig::new(ranks), move |ctx| {
        run_program(ctx.world(), seed)
    });
    digests
}

/// One seed = one random program; 32 seeds per test, 64 total across the
/// two layout tests. Failures name the seed so the program can be replayed.
fn sweep(layout_rpn: impl Fn(usize) -> usize, label: &str, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let mut rng = seed ^ 0xA5A5_5A5A;
        let ranks = 2 + (splitmix(&mut rng) % 4) as usize; // 2..=5
        let baseline = mpi_digests(seed, ranks);
        let pure = pure_digests(seed, ranks, layout_rpn(ranks));
        assert_eq!(
            pure, baseline,
            "differential oracle mismatch ({label}, seed {seed}, {ranks} ranks): \
             replay with `run_program` at this seed"
        );
    }
}

#[test]
fn random_programs_bit_identical_single_node() {
    sweep(|_| 0, "single-node", 0..32);
}

#[test]
fn random_programs_bit_identical_multi_node() {
    // Split the ranks over ~2 simulated nodes to route internode paths.
    sweep(|ranks| ranks.div_ceil(2), "multi-node", 32..64);
}

/// Cross-backend matrix: the same 64 seeded programs, every rank split over
/// ~2 nodes so cross-node frames flow, digested three ways — MPI baseline,
/// Pure over the simulated fabric, Pure over real TCP loopback sockets. All
/// three must agree bit for bit; the raw frame plane must be invisible to
/// application bytes.
#[test]
fn random_programs_bit_identical_netsim_vs_tcp() {
    for seed in 0..64u64 {
        let mut rng = seed ^ 0xA5A5_5A5A;
        let ranks = 2 + (splitmix(&mut rng) % 4) as usize; // 2..=5
        let rpn = ranks.div_ceil(2); // ≥2 nodes: every seed crosses the wire
        let baseline = mpi_digests(seed, ranks);
        let sim = pure_digests_on(Backend::Sim, seed, ranks, rpn);
        let tcp = pure_digests_on(Backend::Tcp, seed, ranks, rpn);
        assert_eq!(
            sim, baseline,
            "netsim backend diverged from baseline (seed {seed}, {ranks} ranks)"
        );
        assert_eq!(
            tcp, baseline,
            "tcp backend diverged from baseline (seed {seed}, {ranks} ranks)"
        );
    }
}

/// Many-leader leg: the same seeded programs over layouts of 1–2 ranks
/// per node, so up to 6 leaders run the cross-node phase — the only leg
/// where recursive doubling takes more than one round and the
/// non-power-of-two fold-in engages. The fold-in reorders the inter-node
/// reduction, which is exactly why the oracle's bit-identity discipline
/// (wrapping integers for order-sensitive reductions, floats only for data
/// movement, Min/Max selection and the shared scan) must hold: the results
/// must stay bit-identical to the MPI baseline on both the simulated
/// fabric and real TCP sockets.
#[test]
fn random_programs_bit_identical_on_many_leaders() {
    for seed in 0..16u64 {
        let mut rng = seed ^ 0x5EED_CAFE;
        let ranks = 4 + (splitmix(&mut rng) % 3) as usize; // 4..=6
        let rpn = 1 + (seed % 2) as usize; // 4-6 or 2-3 leaders
        let baseline = mpi_digests(seed, ranks);
        for backend in [Backend::Sim, Backend::Tcp] {
            let pure = pure_digests_on(backend, seed, ranks, rpn);
            assert_eq!(
                pure, baseline,
                "many-leader oracle mismatch ({backend:?}, seed {seed}, \
                 {ranks} ranks, {rpn}/node)"
            );
        }
    }
}

#[test]
fn probe_digests_are_nontrivial() {
    let a = pure_digests(1, 3, 0);
    let b = pure_digests(1, 3, 0);
    let c = mpi_digests(1, 3);
    let d = pure_digests(2, 3, 0);
    eprintln!("pure seed1: {a:x?}\nmpi  seed1: {c:x?}\npure seed2: {d:x?}");
    assert_eq!(a, b, "nondeterministic digests");
    assert_ne!(a, d, "digest ignores the seed");
    assert!(a.iter().all(|&x| x != 0));
}
