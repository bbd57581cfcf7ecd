//! End-to-end tests of the MPI-everywhere baseline: same scenarios as the
//! Pure runtime's e2e suite, so any semantic divergence between the two
//! runtimes shows up here.

use mpi_baseline::{mpi_launch, mpi_launch_map, MpiConfig};
use pure_core::prelude::*;

#[test]
fn ring_small_messages() {
    mpi_launch(MpiConfig::new(4), |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        let n = ctx.nranks();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        let mut token = [0u64];
        if me == 0 {
            w.send(&[1u64], next, 0);
            w.recv(&mut token, prev, 0);
            assert_eq!(token[0], n as u64);
        } else {
            w.recv(&mut token, prev, 0);
            w.send(&[token[0] + 1], next, 0);
        }
    });
}

#[test]
fn rendezvous_large_messages() {
    const N: usize = 9000; // > 8 KiB eager threshold in f64s? 9000*8 = 72 KB
    mpi_launch(MpiConfig::new(2), |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            let data: Vec<f64> = (0..N).map(|i| i as f64).collect();
            w.send(&data, 1, 1);
        } else {
            let mut buf = vec![0.0f64; N];
            w.recv(&mut buf, 0, 1);
            assert!(buf.iter().enumerate().all(|(i, &x)| x == i as f64));
        }
    });
}

#[test]
fn collectives_match_serial_reduction() {
    let n = 7; // odd: exercises the non-power-of-two pre/post phases
    mpi_launch(MpiConfig::new(n), |ctx| {
        let w = ctx.world();
        let me = ctx.rank() as u64;
        assert_eq!(w.allreduce_one(me, ReduceOp::Sum), (0..n as u64).sum());
        assert_eq!(w.allreduce_one(me, ReduceOp::Min), 0);
        assert_eq!(w.allreduce_one(me, ReduceOp::Max), n as u64 - 1);
        w.barrier();
        let mut data = if ctx.rank() == 3 {
            [9u32; 8]
        } else {
            [0u32; 8]
        };
        w.bcast(&mut data, 3);
        assert_eq!(data, [9u32; 8]);
        let input = [me];
        if ctx.rank() == 2 {
            let mut out = [0u64];
            w.reduce(&input, Some(&mut out), 2, ReduceOp::Sum);
            assert_eq!(out[0], (0..n as u64).sum());
        } else {
            w.reduce(&input, None, 2, ReduceOp::Sum);
        }
    });
}

#[test]
fn large_allreduce_crosses_rendezvous() {
    mpi_launch(MpiConfig::new(4), |ctx| {
        let w = ctx.world();
        let me = ctx.rank() as f64;
        let input: Vec<f64> = (0..4000).map(|i| me + i as f64).collect();
        let mut out = vec![0.0f64; 4000];
        w.allreduce(&input, &mut out, ReduceOp::Sum);
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, (0.0 + 1.0 + 2.0 + 3.0) + 4.0 * i as f64);
        }
    });
}

#[test]
fn multi_node_ring_and_collectives() {
    mpi_launch(MpiConfig::new(6).with_ranks_per_node(2), |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        let n = ctx.nranks();
        assert_eq!(ctx.node(), me / 2);
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        let mut token = [0u64];
        let rx = w.irecv(&mut token, prev, 5);
        w.send(&[me as u64], next, 5);
        rx.wait();
        assert_eq!(token[0], prev as u64);
        assert_eq!(w.allreduce_one(1u64, ReduceOp::Sum), n as u64);
    });
}

#[test]
fn nonblocking_out_of_order_waits() {
    mpi_launch(MpiConfig::new(2), |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            w.send(&[1u8; 4], 1, 0);
            w.send(&[2u8; 4], 1, 0);
        } else {
            let mut a = [0u8; 4];
            let mut b = [0u8; 4];
            let r1 = w.irecv(&mut a, 0, 0);
            let r2 = w.irecv(&mut b, 0, 0);
            r2.wait();
            r1.wait();
            assert_eq!((a[0], b[0]), (1, 2));
        }
    });
}

#[test]
fn split_partitions() {
    mpi_launch(MpiConfig::new(6), |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        let sub = w.split((me % 3) as i64, me as i64).unwrap();
        assert_eq!(sub.size(), 2);
        let s = sub.allreduce_one(me as u64, ReduceOp::Sum);
        assert_eq!(s, (me % 3) as u64 + (me % 3 + 3) as u64);
    });
}

#[test]
fn task_execute_runs_serially() {
    mpi_launch(MpiConfig::new(2), |ctx| {
        let w = ctx.world();
        assert!(!w.tasks_parallel());
        let counter = std::sync::atomic::AtomicU32::new(0);
        w.task_execute(16, &|chunk| {
            assert_eq!(chunk.len(), 1);
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 16);
    });
}

#[test]
fn launch_map_collects() {
    let (report, results) = mpi_launch_map(MpiConfig::new(3), |ctx| ctx.rank() as u32 * 2);
    assert_eq!(results, vec![0, 2, 4]);
    assert_eq!(report.per_rank.len(), 3);
}

#[test]
fn rank_panic_propagates() {
    let res = std::panic::catch_unwind(|| {
        mpi_launch(MpiConfig::new(2), |ctx| {
            if ctx.rank() == 0 {
                panic!("boom");
            }
            let mut b = [0u8];
            ctx.world().recv(&mut b, 0, 0);
        });
    });
    assert!(res.is_err());
}

/// The baseline's batch wait checks the abort flag like every other
/// baseline wait: a peer's panic unwinds rank 0 out of `wait_all` and
/// `mpi_launch` re-raises it. Guarded, so a hang fails the test instead of
/// the suite.
#[test]
fn rank_panic_unwinds_wait_all() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let res = std::panic::catch_unwind(|| {
            mpi_launch(MpiConfig::new(2), |ctx| {
                if ctx.rank() == 1 {
                    panic!("boom in rank one");
                }
                let mut b = [0u8];
                wait_all(vec![ctx.world().irecv(&mut b, 1, 0)]);
            });
        });
        let _ = tx.send(
            res.err()
                .and_then(|e| e.downcast::<&str>().ok().map(|s| *s)),
        );
    });
    let msg = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("still hung after 10 s");
    assert_eq!(
        msg,
        Some("boom in rank one"),
        "the peer's panic was not re-raised"
    );
}

#[test]
fn gather_family_on_baseline() {
    mpi_launch(MpiConfig::new(4).with_ranks_per_node(2), |ctx| {
        let w = ctx.world();
        let me = ctx.rank();
        // allgather
        let mut all = vec![0u64; 4];
        w.allgather(&[me as u64], &mut all);
        assert_eq!(all, vec![0, 1, 2, 3]);
        // gather to rank 2
        if me == 2 {
            let mut g = vec![0u64; 4];
            w.gather(&[me as u64 * 7], Some(&mut g), 2);
            assert_eq!(g, vec![0, 7, 14, 21]);
        } else {
            w.gather(&[me as u64 * 7], None, 2);
        }
        // scatter from rank 1
        let mut mine = [0i64];
        if me == 1 {
            w.scatter(Some(&[10i64, 11, 12, 13]), &mut mine, 1);
        } else {
            w.scatter(None, &mut mine, 1);
        }
        assert_eq!(mine[0], 10 + me as i64);
        // scan
        let mut pref = [0u64];
        w.scan(&[me as u64 + 1], &mut pref, ReduceOp::Sum);
        assert_eq!(pref[0], ((me + 1) * (me + 2) / 2) as u64);
        // alltoall
        let send: Vec<u32> = (0..4).map(|j| (me * 10 + j) as u32).collect();
        let mut recv = vec![0u32; 4];
        w.alltoall(&send, &mut recv);
        for (j, &got) in recv.iter().enumerate() {
            assert_eq!(got, (j * 10 + me) as u32);
        }
    });
}
