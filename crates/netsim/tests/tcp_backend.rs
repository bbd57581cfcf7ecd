//! Backend parity: the protocol stack (reliable sublayer, coalescing,
//! failure detector) must behave identically over the TCP loopback mesh
//! and the simulated fabric — same delivery guarantees, same counters,
//! same teardown bounds. These tests run the same scenarios the in-crate
//! transport tests prove over netsim, but with every frame crossing a
//! real nonblocking 127.0.0.1 socket.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Instant;

use netsim::{Backend, Cluster, CoalescePlan, DetectPlan, FaultPlan, NetConfig, WireTag};

/// Raises a stop flag when dropped — on a failed assertion too.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn tcp_cfg() -> NetConfig {
    NetConfig::default().with_backend(Backend::Tcp)
}

#[test]
fn send_then_recv_over_loopback() {
    let c = Cluster::new(2, tcp_cfg());
    let a = c.endpoint(0);
    let b = c.endpoint(1);
    let tag = WireTag::p2p(0, 0, 7);
    a.send(1, tag, b"hello");
    let t0 = Instant::now();
    loop {
        if let Some(p) = b.try_recv(0, tag) {
            assert_eq!(p, b"hello");
            break;
        }
        assert!(t0.elapsed().as_secs() < 5, "frame never crossed loopback");
        thread::yield_now();
    }
    assert_eq!(b.try_recv(0, tag), None);
}

/// TCP is a byte stream: frame boundaries are reassembled by the backend,
/// and per-(src, tag) FIFO must hold across a flood that the kernel is
/// free to segment arbitrarily.
#[test]
fn fifo_per_key_across_segmentation() {
    let c = Cluster::new(2, tcp_cfg());
    let a = c.endpoint(0);
    let b = c.endpoint(1);
    let tag = WireTag::p2p(0, 0, 1);
    const N: u32 = 4096;
    for i in 0..N {
        // Mixed sizes force header/payload splits across read() calls.
        let mut payload = i.to_le_bytes().to_vec();
        payload.resize(4 + (i as usize % 96), 0xA5);
        a.send(1, tag, &payload);
    }
    let t0 = Instant::now();
    for i in 0..N {
        let p = loop {
            if let Some(p) = b.try_recv(0, tag) {
                break p;
            }
            assert!(t0.elapsed().as_secs() < 10, "stuck at frame {i}");
            thread::yield_now();
        };
        assert_eq!(
            u32::from_le_bytes(p[..4].try_into().unwrap()),
            i,
            "frames reordered"
        );
        assert_eq!(p.len(), 4 + (i as usize % 96), "frame truncated");
    }
    assert_eq!(b.try_recv(0, tag), None);
}

#[test]
fn tags_do_not_cross_match_over_loopback() {
    let c = Cluster::new(2, tcp_cfg());
    let a = c.endpoint(0);
    let b = c.endpoint(1);
    a.send(1, WireTag::p2p(0, 1, 9), b"to-thread-1");
    let t0 = Instant::now();
    loop {
        assert_eq!(b.try_recv(0, WireTag::p2p(0, 0, 9)), None);
        if let Some(p) = b.try_recv(0, WireTag::p2p(0, 1, 9)) {
            assert_eq!(p, b"to-thread-1");
            break;
        }
        assert!(t0.elapsed().as_secs() < 5);
        thread::yield_now();
    }
}

/// The reliable sublayer's guarantees are backend-independent: chaos
/// fault injection sits above the socket, so drops/dups/reorders/delays
/// are exercised identically and masked identically.
#[test]
fn reliable_delivery_survives_chaos_over_tcp() {
    for seed in 0..4 {
        let mut plan = FaultPlan::chaos(seed);
        plan.drop_pm = 200;
        plan.extra_delay_ns = 20_000;
        let c = Cluster::new(2, tcp_cfg().with_faults(plan));
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(0, 0, 5);
        const N: u8 = 50;
        for i in 0..N {
            a.send(1, tag, &[i, i.wrapping_mul(3)]);
        }
        let start = Instant::now();
        let mut got = Vec::new();
        while got.len() < N as usize {
            a.progress();
            if let Some(p) = b.try_recv(0, tag) {
                got.push(p);
            }
            assert!(
                start.elapsed().as_secs() < 10,
                "seed {seed}: stuck at {} of {N} frames",
                got.len()
            );
            thread::yield_now();
        }
        for (i, p) in got.iter().enumerate() {
            let i = i as u8;
            assert_eq!(p[..], [i, i.wrapping_mul(3)], "seed {seed}: frame {i}");
        }
        assert_eq!(b.try_recv(0, tag), None, "no duplicates may surface");
        let t0 = Instant::now();
        while a.reliable_outstanding() > 0 {
            a.progress();
            b.progress();
            assert!(t0.elapsed().as_secs() < 10, "links never drained");
            thread::yield_now();
        }
    }
}

/// Coalescing counters are wire-frame truths, not sim artifacts: 16 small
/// messages under an 8-frame watermark still travel as exactly 2 jumbo
/// frames over the socket.
#[test]
fn coalescing_packs_jumbos_over_tcp() {
    let c = Cluster::new(2, tcp_cfg().with_coalescing(CoalescePlan::default()));
    let a = c.endpoint(0);
    let b = c.endpoint(1);
    let tag = WireTag::p2p(0, 0, 3);
    for i in 0..16u8 {
        a.send(1, tag, &[i, i ^ 0x5A]);
    }
    assert_eq!(a.coalesce_pending(), 0, "both watermark flushes fired");
    let t0 = Instant::now();
    for i in 0..16u8 {
        let p = loop {
            if let Some(p) = b.try_recv(0, tag) {
                break p;
            }
            assert!(t0.elapsed().as_secs() < 5, "subframe {i} never arrived");
            thread::yield_now();
        };
        assert_eq!(p, vec![i, i ^ 0x5A]);
    }
    assert_eq!(b.try_recv(0, tag), None);
    assert_eq!(c.stats().frames.load(Ordering::Relaxed), 2);
    let (coalesced, flushes, _, _) = c.stats().coalesce_snapshot();
    assert_eq!((coalesced, flushes), (16, 2));
}

/// Several ranks and tags share the node pair's one reliable link when only
/// a fault plan is armed (no coalescing plan): every message is a jumbo of
/// its own on that link. Two rank threads send on their own tags while two
/// more tick the receiving node beside its receiver; each tag must arrive
/// complete and in order over the socket, lossless and under chaos faults,
/// with the coalescing counters untouched and every slab returned.
#[test]
fn ranks_and_tags_share_one_reliable_link_without_coalescing_over_tcp() {
    for plan in [FaultPlan::drops(5, 0), FaultPlan::chaos(5)] {
        let c = Cluster::new(2, tcp_cfg().with_faults(plan));
        const N: u32 = 2000;
        let stop = AtomicBool::new(false);
        thread::scope(|s| {
            // Also on a failed assertion below, or the scope never joins.
            let _stop = StopOnDrop(&stop);
            let stop = &stop;
            for t in 0..2usize {
                let a = c.endpoint(0);
                s.spawn(move || {
                    for i in 0..N {
                        a.send(1, WireTag::p2p(t, 0, 1), &i.to_le_bytes());
                        a.progress();
                    }
                    // A lossy link needs its sender until the last ACK.
                    while !stop.load(Ordering::Relaxed) {
                        a.progress();
                    }
                });
                let ticker = c.endpoint(1);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        ticker.progress();
                    }
                });
            }
            let b = c.endpoint(1);
            let start = Instant::now();
            let mut next = [0u32; 2];
            while next != [N; 2] {
                for (t, next) in next.iter_mut().enumerate() {
                    if let Some(p) = b.try_recv(0, WireTag::p2p(t, 0, 1)) {
                        let got = u32::from_le_bytes((&p[..]).try_into().unwrap());
                        assert_eq!(got, *next, "{plan:?}: tag {t} reordered");
                        *next += 1;
                    }
                }
                assert!(
                    start.elapsed().as_secs() < 60,
                    "{plan:?}: stuck at {next:?}"
                );
            }
            while b.reliable_outstanding() > 0 && start.elapsed().as_secs() < 60 {
                thread::yield_now();
            }
        });
        assert_eq!(
            c.endpoint(0).reliable_outstanding(),
            0,
            "link never drained"
        );
        let (coalesced, flushes, _, _) = c.stats().coalesce_snapshot();
        assert_eq!((coalesced, flushes), (0, 0), "no plan, nothing coalesced");
        c.purge_pooled();
        assert_eq!(c.pool_snapshot().outstanding(), 0, "{plan:?}: slabs leaked");
    }
}

/// ≥64 KiB chunked streams + small-message floods across a 4-node TCP
/// mesh, concurrently from every node to every node: nothing lost,
/// nothing reordered, everything byte-exact above `reliable`.
#[test]
fn four_node_stress_streams_and_floods() {
    const NODES: usize = 4;
    const FLOOD: u32 = 256;
    const CHUNKS: usize = 20;
    const CHUNK: usize = 4096; // 20 × 4 KiB ≈ 80 KiB per directed pair
    let mut plan = FaultPlan::chaos(11);
    plan.drop_pm = 50;
    let c = Cluster::new(
        NODES,
        tcp_cfg()
            .with_faults(plan)
            .with_coalescing(CoalescePlan::default()),
    );
    let chunk_byte =
        |src: usize, dst: usize, k: usize| -> u8 { (src * 31 + dst * 17 + k * 7) as u8 };
    let mut handles = Vec::new();
    for me in 0..NODES {
        let ep = c.endpoint(me);
        handles.push(thread::spawn(move || {
            let flood_tag = |src: usize, dst: usize| WireTag::p2p(src, dst, 1);
            let stream_tag = |src: usize, dst: usize| WireTag::p2p(src, dst, 2);
            for peer in 0..NODES {
                if peer == me {
                    continue;
                }
                for i in 0..FLOOD {
                    ep.send(peer, flood_tag(me, peer), &i.to_le_bytes());
                }
                for k in 0..CHUNKS {
                    ep.send(
                        peer,
                        stream_tag(me, peer),
                        &vec![chunk_byte(me, peer, k); CHUNK],
                    );
                }
            }
            ep.flush_coalesced();
            let t0 = Instant::now();
            let mut flood_got = [0u32; NODES];
            let mut chunks_got = [0usize; NODES];
            loop {
                let mut all = true;
                for peer in 0..NODES {
                    if peer == me {
                        continue;
                    }
                    while flood_got[peer] < FLOOD {
                        let Some(p) = ep.try_recv(peer, flood_tag(peer, me)) else {
                            break;
                        };
                        assert_eq!(
                            u32::from_le_bytes((&p[..]).try_into().unwrap()),
                            flood_got[peer],
                            "node {me}: flood from {peer} reordered"
                        );
                        flood_got[peer] += 1;
                    }
                    while chunks_got[peer] < CHUNKS {
                        let Some(p) = ep.try_recv(peer, stream_tag(peer, me)) else {
                            break;
                        };
                        let k = chunks_got[peer];
                        assert_eq!(p.len(), CHUNK, "node {me}: chunk {k} truncated");
                        assert!(
                            p.iter().all(|&b| b == chunk_byte(peer, me, k)),
                            "node {me}: chunk {k} from {peer} corrupted"
                        );
                        chunks_got[peer] += 1;
                    }
                    all &= flood_got[peer] == FLOOD && chunks_got[peer] == CHUNKS;
                }
                if all {
                    break;
                }
                ep.progress();
                assert!(
                    t0.elapsed().as_secs() < 60,
                    "node {me}: stuck at floods {flood_got:?} chunks {chunks_got:?}"
                );
            }
            // Drain our own outstanding frames so the cluster can tear
            // down without stranding a peer's receive.
            let t0 = Instant::now();
            while ep.reliable_outstanding() > 0 || ep.transport_unflushed() > 0 {
                ep.progress();
                assert!(
                    t0.elapsed().as_secs() < 30,
                    "node {me}: links never drained"
                );
                thread::yield_now();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// A silenced peer over TCP: the detector condemns it, its links are
/// garbage-collected (including the socket-level backlog via
/// `drop_peer`), and teardown stays bounded even though the socket is
/// still open — then an explicit `finalize_transport` closes cleanly.
#[test]
fn detector_condemns_silent_peer_over_tcp() {
    let detect = DetectPlan {
        hb_interval_ns: 100_000,
        suspect_after_ns: 5_000_000,
        phi: 4,
    };
    let c = Cluster::new(
        2,
        tcp_cfg()
            .with_faults(FaultPlan::drops(3, 0))
            .with_detection(detect),
    );
    let a = c.endpoint(0);
    let b = c.endpoint(1);
    let tag = WireTag::p2p(0, 0, 9);
    a.send(1, tag, b"ping");
    b.send(0, tag, b"pong");
    let t0 = Instant::now();
    loop {
        a.progress();
        b.progress();
        if a.try_recv(1, tag).is_some() {
            break;
        }
        assert!(t0.elapsed().as_secs() < 5, "live traffic never flowed");
        thread::yield_now();
    }
    b.silence();
    a.send(1, tag, b"doomed");
    let t0 = Instant::now();
    while a.peer_dead(1).is_none() {
        a.progress();
        assert!(
            t0.elapsed().as_secs() < 10,
            "detector never condemned the silent peer"
        );
        thread::yield_now();
    }
    assert_eq!(
        a.reliable_outstanding(),
        0,
        "links toward the corpse must be garbage-collected"
    );
    assert_eq!(
        a.transport_unflushed(),
        0,
        "drop_peer must shed the socket backlog toward the corpse"
    );
    a.finalize_transport();
}

/// Teardown on socket close is bounded: when one side FINs, the other
/// side's sends are swallowed (dead conn), its pumps see EOF instead of
/// hanging, and the unflushed counter reports zero so a finalize linger
/// terminates immediately.
#[test]
fn socket_close_bounds_teardown() {
    let c = Cluster::new(2, tcp_cfg());
    let a = c.endpoint(0);
    let b = c.endpoint(1);
    let tag = WireTag::p2p(0, 0, 2);
    a.send(1, tag, b"first");
    let t0 = Instant::now();
    loop {
        if b.try_recv(0, tag).is_some() {
            break;
        }
        assert!(t0.elapsed().as_secs() < 5);
        thread::yield_now();
    }
    // Node 1 departs: flush + FIN on its write halves, then node 0 keeps
    // sending into the closing socket. Nothing may hang or panic, and the
    // teardown condition (no unflushed bytes) must become true quickly.
    b.finalize_transport();
    let t0 = Instant::now();
    loop {
        a.send(1, tag, &[0u8; 512]);
        a.progress();
        if a.transport_unflushed() == 0 && t0.elapsed().as_millis() > 50 {
            break;
        }
        assert!(
            t0.elapsed().as_secs() < 10,
            "unflushed backlog never drained after peer close"
        );
        thread::yield_now();
    }
    a.finalize_transport();
}
