//! Allocation-count regression tests: the messaging hot paths must be
//! zero-allocation per message in steady state. A counting `GlobalAlloc`
//! wraps the system allocator; each test measures the allocation-count
//! delta across a measured window after a warm-up phase and asserts it is
//! exactly zero.
//!
//! The count is per thread: each test reads the allocations of the thread
//! that drives its measured window, so neither a concurrently running test
//! nor libtest's runner thread (which allocates whenever a test finishes)
//! can pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pure_core::channel::pbq::PureBufferQueue;
use pure_core::prelude::*;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so touching it from inside
    // the allocator never allocates or re-enters.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may allocate after its TLS is gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations of the calling thread in the quietest of up to five runs of
/// `window`. On the wire path a high-water mark — a pool free list, a
/// socket backlog buffer, a queue's capacity — can reach a new depth in any
/// one window, because how far two endpoints run ahead of each other is the
/// scheduler's choice; a per-message allocation lands in every window.
fn quietest_window(window: impl FnMut()) -> u64 {
    quietest_shared_window(window, |delta| delta)
}

/// [`quietest_window`] for a window that several threads run together, such
/// as a collective: `agree` turns this thread's delta into one every
/// participant sees (a max-allreduce, run outside the measured window), so
/// all of them run the same number of windows.
fn quietest_shared_window(mut window: impl FnMut(), mut agree: impl FnMut(u64) -> u64) -> u64 {
    let mut delta = u64::MAX;
    for _ in 0..5 {
        let before = alloc_count();
        window();
        delta = delta.min(agree(alloc_count() - before));
        if delta == 0 {
            break;
        }
    }
    delta
}

#[test]
fn pbq_single_send_recv_steady_state_is_allocation_free() {
    let q = PureBufferQueue::new(8, 256);
    let payload = [0x5au8; 64];
    let mut out = [0u8; 256];
    // Warm up (first traversal of the ring touches nothing heap-side
    // either, but keep the measured window unambiguous).
    for _ in 0..32 {
        assert!(q.try_send(&payload));
        assert_eq!(q.try_recv(&mut out), Some(64));
    }
    let before = alloc_count();
    for _ in 0..10_000 {
        assert!(q.try_send(&payload));
        assert_eq!(q.try_recv(&mut out), Some(64));
    }
    let delta = alloc_count() - before;
    assert_eq!(delta, 0, "{delta} allocations in 10k send/recv pairs");
}

#[test]
fn pbq_batched_send_recv_steady_state_is_allocation_free() {
    let q = PureBufferQueue::new(8, 256);
    let payload = [0xc3u8; 64];
    let msgs: [&[u8]; 4] = [&payload, &payload, &payload, &payload];
    for _ in 0..32 {
        assert_eq!(q.try_send_batch(msgs), 4);
        assert_eq!(
            q.try_recv_batch(4, |_, bytes| assert_eq!(bytes.len(), 64)),
            4
        );
    }
    let before = alloc_count();
    for _ in 0..10_000 {
        assert_eq!(q.try_send_batch(msgs), 4);
        assert_eq!(
            q.try_recv_batch(4, |_, bytes| assert_eq!(bytes.len(), 64)),
            4
        );
    }
    let delta = alloc_count() - before;
    assert_eq!(delta, 0, "{delta} allocations in 10k batched rounds");
}

#[test]
fn pbq_recv_with_in_place_path_is_allocation_free() {
    let q = PureBufferQueue::new(8, 256);
    let payload = [7u8; 64];
    for _ in 0..32 {
        assert!(q.try_send(&payload));
        assert_eq!(q.try_recv_with(|bytes| bytes.len()), Some(64));
    }
    let before = alloc_count();
    let mut sum = 0u64;
    for _ in 0..10_000 {
        assert!(q.try_send(&payload));
        sum += q
            .try_recv_with(|bytes| bytes.iter().map(|&b| b as u64).sum::<u64>())
            .unwrap();
    }
    let delta = alloc_count() - before;
    assert_eq!(sum, 10_000 * 64 * 7);
    assert_eq!(delta, 0, "{delta} allocations in 10k in-place receives");
}

/// Cross-node: the pooled wire path end to end. After warm-up (pool slabs
/// allocated, match-store entries warm, transport buffers grown to steady
/// capacity), a send → flush → receive round over the internode transport
/// must allocate nothing per message — every wire frame lives in a recycled
/// pool slab and the receiver gets a zero-copy view of it. Asserted on both
/// the simulated fabric and real TCP loopback sockets, with coalescing off
/// (singleton frames) and on (gathered jumbos, scattered subslices).
///
/// Drives a raw 2-node `netsim::Cluster` from one thread so the measured
/// window is deterministic; faults and detection stay off (their control
/// planes are allowed to allocate).
#[test]
fn crossnode_pooled_wire_path_is_allocation_free() {
    use netsim::{Backend, Cluster, CoalescePlan, NetConfig, WireTag};
    const BATCH: usize = 8; // == the coalescer's count watermark
    for backend in [Backend::Sim, Backend::Tcp] {
        for coalesce in [false, true] {
            let mut net = NetConfig::default().with_backend(backend);
            if coalesce {
                net = net.with_coalescing(CoalescePlan::default());
            }
            let c = Cluster::new(2, net);
            let a = c.endpoint(0);
            let b = c.endpoint(1);
            let tag = WireTag::p2p(0, 0, 3);
            let payload = [0xE7u8; 56];
            let round = || {
                for _ in 0..BATCH {
                    a.send(1, tag, &payload);
                }
                a.flush_coalesced();
                let mut got = 0;
                while got < BATCH {
                    // TCP frames cross a real socket; spin until the kernel
                    // delivers (the poll itself is allocation-free).
                    if let Some(p) = b.try_recv(0, tag) {
                        assert_eq!(p[..], payload[..]);
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            };
            for _ in 0..64 {
                round();
            }
            let delta = quietest_window(|| {
                for _ in 0..500 {
                    round();
                }
            });
            assert_eq!(
                delta,
                0,
                "{backend:?} coalesce={coalesce}: {delta} allocations in \
                 every window of {} steady-state cross-node messages",
                500 * BATCH
            );
        }
    }
}

/// Cross-node, fully armed (reliable sublayer, coalescing, failure
/// detector), the part of a latency-bound exchange that is *waiting*: idle
/// `progress()` ticks, and an 8-byte ping-pong in which every message is a
/// lone subframe flushed by its sender's receive miss and every receive
/// polls until the reply lands. Neither allocates in steady state — ACKs,
/// heartbeats, scattered jumbos and the detector's per-tick bookkeeping
/// all run out of pooled slabs and bitmasks — and every tick pumps the
/// backend exactly once (`pumps == progress_polls`), on both backends.
#[test]
fn crossnode_blocked_wait_is_allocation_free_and_pumps_once_per_tick() {
    use netsim::{Backend, Cluster, CoalescePlan, DetectPlan, FaultPlan, NetConfig, WireTag};
    use std::sync::atomic::Ordering;
    for backend in [Backend::Sim, Backend::Tcp] {
        let net = NetConfig::default()
            .with_backend(backend)
            .with_faults(FaultPlan::drops(11, 0))
            .with_coalescing(CoalescePlan::default())
            .with_detection(DetectPlan {
                hb_interval_ns: 100_000,
                suspect_after_ns: 10_000_000_000,
                phi: 8,
            });
        let c = Cluster::new(2, net);
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(0, 0, 5);
        let idle = || {
            for _ in 0..64 {
                a.progress();
                b.progress();
            }
        };
        // `to.try_recv` until the message lands; `from` keeps missing, as
        // the rank blocked on the reply would.
        let deliver = |from: &netsim::NodeEndpoint, to: &netsim::NodeEndpoint, word: u64| {
            from.send(to.node(), tag, &word.to_le_bytes());
            assert!(
                from.try_recv(to.node(), tag).is_none(),
                "reply not sent yet"
            );
            loop {
                if let Some(p) = to.try_recv(from.node(), tag) {
                    assert_eq!(p[..], word.to_le_bytes());
                    return;
                }
                assert!(from.try_recv(to.node(), tag).is_none());
            }
        };
        let pingpong = || {
            for i in 0..64u64 {
                deliver(&a, &b, i);
                deliver(&b, &a, !i);
            }
        };
        // Warm the pools and queues past anything a window can have in
        // flight. An unACKed jumbo pins its slab, and how many a ping-pong
        // keeps unACKed at once depends on timing (the ACK leaves on the
        // 8th frame or after 50 µs): pin a burst no window can reach.
        for (from, to) in [(&a, &b), (&b, &a)] {
            for i in 0..32u64 {
                from.send(to.node(), tag, &i.to_le_bytes());
                from.flush_coalesced();
            }
            for _ in 0..32 {
                while to.try_recv(from.node(), tag).is_none() {}
            }
        }
        for (what, body) in [("idle ticks", &idle as &dyn Fn()), ("ping-pong", &pingpong)] {
            for _ in 0..8 {
                body(); // warm-up: link tables, health entries
            }
            let delta = quietest_window(|| {
                for _ in 0..32 {
                    body();
                }
            });
            assert_eq!(
                delta, 0,
                "{backend:?} {what}: {delta} allocations in every fully armed window"
            );
        }
        let polls = c.stats().progress_polls.load(Ordering::Relaxed);
        assert_eq!(
            c.stats().pumps.load(Ordering::Relaxed),
            polls,
            "{backend:?}: a progress tick pumps the backend exactly once"
        );
    }
}

/// End-to-end: the blocking send/recv fast path through the runtime's
/// channel layer (rank 0 to itself — producer and consumer on one thread,
/// so the window is deterministic) allocates nothing per message once the
/// channel exists.
#[test]
fn runtime_send_recv_fast_path_is_allocation_free() {
    let mut cfg = Config::new(1);
    cfg.spin_budget = 4;
    let (_, deltas) = launch_map(cfg, |ctx| {
        let w = ctx.world();
        let tx = [9u8; 64];
        let mut rx = [0u8; 64];
        // Warm-up creates the channel and fills every lazily-initialized
        // cache on the path.
        for _ in 0..32 {
            w.send(&tx, 0, 0);
            w.recv(&mut rx, 0, 0);
        }
        let before = alloc_count();
        for _ in 0..5_000 {
            w.send(&tx, 0, 0);
            w.recv(&mut rx, 0, 0);
        }
        assert_eq!(rx, tx);
        alloc_count() - before
    });
    assert_eq!(
        deltas[0], 0,
        "{} allocations in 5k steady-state send/recv pairs",
        deltas[0]
    );
}

/// The Partitioned Reducer on one node: a steady-state 1 MiB two-rank
/// allreduce reduces through a stack tile straight into both outputs, so
/// it allocates nothing — no per-call pointer table, no scratch growth.
#[test]
fn large_allreduce_steady_state_is_allocation_free() {
    let mut cfg = Config::new(2);
    cfg.spin_budget = 4;
    let (_, deltas) = launch_map(cfg, |ctx| {
        let w = ctx.world();
        let input = vec![ctx.rank() as f64 + 1.0; 1 << 17];
        let mut out = vec![0.0f64; 1 << 17];
        let mut agree = |delta: u64| w.allreduce_one(delta, ReduceOp::Max);
        // Warm-up: dropbox, SSW and telemetry state, and the agreement
        // allreduce's own path.
        for _ in 0..8 {
            w.allreduce(&input, &mut out, ReduceOp::Sum);
            agree(0);
        }
        let delta = quietest_shared_window(
            || {
                for _ in 0..50 {
                    w.allreduce(&input, &mut out, ReduceOp::Sum);
                }
            },
            &mut agree,
        );
        assert!(out.iter().all(|&x| x == 3.0));
        delta
    });
    assert_eq!(
        deltas,
        [0, 0],
        "allocations in every window of 50 steady-state 1 MiB allreduces"
    );
}
