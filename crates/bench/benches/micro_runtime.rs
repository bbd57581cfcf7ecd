//! Criterion microbenchmarks of the **real** runtime primitives on this
//! machine: the PBQ ring, the rendezvous envelopes, SPTD collectives, the
//! task scheduler's claim path, and end-to-end send/recv on both runtimes.
//!
//! These complement the DES figures: they measure the actual lock-free data
//! structures, wherever this machine's core count allows. Sample sizes are
//! deliberately small so `cargo bench --workspace` stays fast.

use criterion::{criterion_group, criterion_main, Criterion};
use mpi_baseline::{mpi_launch, MpiConfig};
use pure_core::channel::envelope::EnvelopeQueue;
use pure_core::channel::pbq::PureBufferQueue;
use pure_core::prelude::*;
use std::hint::black_box;

fn bench_pbq(c: &mut Criterion) {
    let mut g = c.benchmark_group("pbq");
    g.sample_size(20);
    let q = PureBufferQueue::new(8, 256);
    let payload = [0xabu8; 64];
    let mut out = [0u8; 256];
    g.bench_function("send_recv_64B_single_thread", |b| {
        b.iter(|| {
            assert!(q.try_send(black_box(&payload)));
            assert_eq!(q.try_recv(black_box(&mut out)), Some(64));
        })
    });
    g.bench_function("batch4_send_recv_64B_single_thread", |b| {
        b.iter(|| {
            let msgs: [&[u8]; 4] = [&payload, &payload, &payload, &payload];
            assert_eq!(q.try_send_batch(black_box(msgs)), 4);
            assert_eq!(
                q.try_recv_batch(4, |_, bytes| assert_eq!(bytes.len(), 64)),
                4
            );
        })
    });
    g.finish();
}

fn bench_envelope(c: &mut Criterion) {
    let mut g = c.benchmark_group("envelope");
    g.sample_size(20);
    let q = EnvelopeQueue::new(4);
    let payload = vec![0x5au8; 16 * 1024];
    let mut buf = vec![0u8; 16 * 1024];
    g.bench_function("rendezvous_16K_single_thread", |b| {
        b.iter(|| {
            // SAFETY: buf outlives the exchange; consumed below.
            let t = unsafe { q.try_post(buf.as_mut_ptr(), buf.len()) }.unwrap();
            assert!(q.try_fill(black_box(&payload)));
            assert_eq!(q.try_consume(t), Some(16 * 1024));
        })
    });
    g.finish();
}

fn bench_p2p_real(c: &mut Criterion) {
    let mut g = c.benchmark_group("p2p_end_to_end");
    g.sample_size(10);
    for bytes in [8usize, 4096, 65_536] {
        g.bench_function(format!("pure_roundtrip_{bytes}B"), |b| {
            b.iter(|| {
                let mut cfg = Config::new(2);
                cfg.spin_budget = 4; // oversubscribed host: yield fast
                launch(cfg, |ctx| {
                    let w = ctx.world();
                    let tx = vec![1u8; bytes];
                    let mut rx = vec![0u8; bytes];
                    for _ in 0..20 {
                        if ctx.rank() == 0 {
                            w.send(&tx, 1, 0);
                            w.recv(&mut rx, 1, 1);
                        } else {
                            w.recv(&mut rx, 0, 0);
                            w.send(&tx, 0, 1);
                        }
                    }
                });
            })
        });
        g.bench_function(format!("mpi_roundtrip_{bytes}B"), |b| {
            b.iter(|| {
                mpi_launch(MpiConfig::new(2), |ctx| {
                    let w = ctx.world();
                    let tx = vec![1u8; bytes];
                    let mut rx = vec![0u8; bytes];
                    for _ in 0..20 {
                        if ctx.rank() == 0 {
                            w.send(&tx, 1, 0);
                            w.recv(&mut rx, 1, 1);
                        } else {
                            w.recv(&mut rx, 0, 0);
                            w.send(&tx, 0, 1);
                        }
                    }
                });
            })
        });
    }
    g.finish();
}

fn bench_collectives_real(c: &mut Criterion) {
    let mut g = c.benchmark_group("collectives_end_to_end");
    g.sample_size(10);
    g.bench_function("pure_allreduce_8B_x50_4ranks", |b| {
        b.iter(|| {
            let mut cfg = Config::new(4);
            cfg.spin_budget = 4;
            launch(cfg, |ctx| {
                for _ in 0..50 {
                    let _ = ctx.world().allreduce_one(ctx.rank() as u64, ReduceOp::Sum);
                }
            });
        })
    });
    g.bench_function("mpi_allreduce_8B_x50_4ranks", |b| {
        b.iter(|| {
            mpi_launch(MpiConfig::new(4), |ctx| {
                for _ in 0..50 {
                    let _ = ctx.world().allreduce_one(ctx.rank() as u64, ReduceOp::Sum);
                }
            });
        })
    });
    g.bench_function("pure_large_allreduce_4KB_x20_4ranks", |b| {
        b.iter(|| {
            let mut cfg = Config::new(4);
            cfg.spin_budget = 4;
            launch(cfg, |ctx| {
                let input = vec![ctx.rank() as f64; 512];
                let mut out = vec![0.0f64; 512];
                for _ in 0..20 {
                    ctx.world().allreduce(&input, &mut out, ReduceOp::Sum);
                }
            });
        })
    });
    g.finish();
}

fn bench_task_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("task_scheduler");
    g.sample_size(10);
    g.bench_function("execute_64_chunks_solo", |b| {
        b.iter(|| {
            let mut cfg = Config::new(1);
            cfg.spin_budget = 4;
            launch(cfg, |ctx| {
                let mut data = vec![0u64; 4096];
                let s = SharedSlice::new(&mut data);
                for _ in 0..20 {
                    ctx.execute_task(64, |chunk| {
                        for x in s.chunk_aligned(&chunk) {
                            *x = black_box(*x + 1);
                        }
                    });
                }
            });
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_pbq,
    bench_envelope,
    bench_p2p_real,
    bench_collectives_real,
    bench_task_scheduler
);
criterion_main!(benches);
