//! Quick manual timing of the PBQ single-op and batched paths.
use pure_core::channel::pbq::PureBufferQueue;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    const N: u64 = 20_000_000;
    let q = PureBufferQueue::new(8, 256);
    let payload = [0xabu8; 64];
    let mut out = [0u8; 256];
    for _ in 0..1000 {
        assert!(q.try_send(&payload));
        assert_eq!(q.try_recv(&mut out), Some(64));
    }
    let t0 = Instant::now();
    for _ in 0..N {
        assert!(q.try_send(black_box(&payload)));
        assert_eq!(q.try_recv(black_box(&mut out)), Some(64));
    }
    let ns = t0.elapsed().as_nanos() as f64 / N as f64;
    println!("{ns:.2} ns/pair (single)");

    let q = PureBufferQueue::new(8, 256);
    let msgs: [&[u8]; 4] = [&payload, &payload, &payload, &payload];
    for _ in 0..1000 {
        assert_eq!(q.try_send_batch(msgs), 4);
        assert_eq!(q.try_recv_batch(4, |_, b| assert_eq!(b.len(), 64)), 4);
    }
    let t0 = Instant::now();
    for _ in 0..(N / 4) {
        assert_eq!(q.try_send_batch(black_box(msgs)), 4);
        assert_eq!(q.try_recv_batch(4, |_, b| assert_eq!(b.len(), 64)), 4);
    }
    let ns = t0.elapsed().as_nanos() as f64 / N as f64;
    println!("{ns:.2} ns/pair (batch of 4)");
}
