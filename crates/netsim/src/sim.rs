//! The in-process simulated backend of the raw frame plane: per-node
//! inboxes with an α–β latency model ([`SimTransport`]), and the sharded
//! per-node match store ([`MatchStore`]) every backend parks matchable
//! frames in.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::pool::FrameSlice;
use crate::transport::{NetConfig, PumpOutcome, Transport};

/// Match-store key: (source node, encoded wire tag).
pub(crate) type MatchKey = (usize, u64);

struct InFlight {
    key: MatchKey,
    payload: FrameSlice,
    /// Nanoseconds-since-cluster-birth at which this message may be matched.
    deliver_at_ns: u64,
}

/// Match-store shard count (power of two). Receivers on unrelated tags hash
/// to different shards and stop serializing on one store lock.
const STORE_SHARDS: usize = 8;

/// Which store shard a match key lives in.
fn shard_of(key: &MatchKey) -> usize {
    let h = (key.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ key.1.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    (h >> 61) as usize & (STORE_SHARDS - 1)
}

/// One node's matchable frames, keyed for receiver lookup and sharded by
/// key hash (see [`shard_of`]). Shared by every backend.
#[derive(Default)]
pub(crate) struct MatchStore {
    shards: [Mutex<HashMap<MatchKey, VecDeque<FrameSlice>>>; STORE_SHARDS],
}

impl MatchStore {
    pub(crate) fn push(&self, key: MatchKey, payload: FrameSlice) {
        let mut shard = self.shards[shard_of(&key)].lock();
        shard.entry(key).or_default().push_back(payload);
    }

    /// Pop the oldest payload under `key`. A drained queue stays in the map
    /// *warm*: removing it would re-allocate the entry on the next push,
    /// breaking the steady-state zero-allocations-per-message budget.
    pub(crate) fn pop(&self, key: &MatchKey) -> Option<FrameSlice> {
        let mut shard = self.shards[shard_of(key)].lock();
        shard.get_mut(key)?.pop_front()
    }

    /// Drop every matchable payload, releasing their slabs (teardown only).
    pub(crate) fn purge(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

// --- Simulated backend -----------------------------------------------------

#[derive(Default)]
struct SimNode {
    /// Freshly arrived messages, not yet sorted into the match store.
    inbox: Mutex<VecDeque<InFlight>>,
    store: MatchStore,
}

/// The in-process fabric shared by every [`SimTransport`] of one cluster.
pub(crate) struct SimFabric {
    nodes: Vec<SimNode>,
    birth: Instant,
    alpha_ns: u64,
    beta_ps_per_byte: u64,
}

impl SimFabric {
    pub(crate) fn mesh(n: usize, cfg: &NetConfig, birth: Instant) -> Vec<Arc<dyn Transport>> {
        let fabric = Arc::new(SimFabric {
            nodes: (0..n).map(|_| SimNode::default()).collect(),
            birth,
            alpha_ns: cfg.alpha_ns,
            beta_ps_per_byte: cfg.beta_ps_per_byte,
        });
        (0..n)
            .map(|me| {
                Arc::new(SimTransport {
                    me,
                    fabric: Arc::clone(&fabric),
                }) as Arc<dyn Transport>
            })
            .collect()
    }

    fn now_ns(&self) -> u64 {
        self.birth.elapsed().as_nanos() as u64
    }

    fn delay_ns(&self, bytes: usize) -> u64 {
        self.alpha_ns + (bytes as u64 * self.beta_ps_per_byte) / 1000
    }
}

/// One node's handle onto the simulated fabric.
struct SimTransport {
    me: usize,
    fabric: Arc<SimFabric>,
}

impl Transport for SimTransport {
    fn node(&self) -> usize {
        self.me
    }

    fn n_nodes(&self) -> usize {
        self.fabric.nodes.len()
    }

    fn send_frame(&self, dst: usize, tag_enc: u64, frame: FrameSlice) {
        let deliver_at_ns = self.fabric.now_ns() + self.fabric.delay_ns(frame.len());
        self.fabric.nodes[dst].inbox.lock().push_back(InFlight {
            key: (self.me, tag_enc),
            payload: frame,
            deliver_at_ns,
        });
    }

    fn recv_frame(&self, src: usize, tag_enc: u64) -> Option<FrameSlice> {
        self.fabric.nodes[self.me].store.pop(&(src, tag_enc))
    }

    fn push_local(&self, src: usize, tag_enc: u64, payload: FrameSlice) {
        self.fabric.nodes[self.me]
            .store
            .push((src, tag_enc), payload);
    }

    /// Drain every deliverable message from the inbox into the match store.
    /// A not-yet-deliverable message *blocks* later same-key messages (even
    /// small ones whose modeled latency has elapsed), preserving FIFO per
    /// channel — the ordering guarantee MPI gives per (src, dst, tag). The
    /// store push happens under the inbox lock so two concurrent pumps
    /// cannot interleave one channel's frames out of order.
    fn pump(&self, fenced: &dyn Fn(usize) -> bool) -> PumpOutcome {
        let sh = &self.fabric.nodes[self.me];
        let now = self.fabric.now_ns();
        let mut out = PumpOutcome::default();
        let mut inbox = sh.inbox.lock();
        let mut blocked: Vec<MatchKey> = Vec::new();
        let mut i = 0;
        while i < inbox.len() {
            let m = &inbox[i];
            if m.deliver_at_ns <= now && !blocked.contains(&m.key) {
                let m = inbox.remove(i).unwrap_or_else(|| {
                    crate::die_invariant("inbox index out of bounds while draining")
                });
                out.did_work = true;
                let src = m.key.0;
                out.arrivals.insert(src);
                if !fenced(src) {
                    sh.store.push(m.key, m.payload);
                }
            } else {
                blocked.push(m.key);
                i += 1;
            }
        }
        out
    }

    fn purge(&self) {
        let sh = &self.fabric.nodes[self.me];
        sh.inbox.lock().clear();
        sh.store.purge();
    }

    fn debug_line(&self) -> String {
        let inbox = self.fabric.nodes[self.me]
            .inbox
            .try_lock()
            .map(|q| q.len().to_string())
            .unwrap_or_else(|| "<locked>".into());
        format!("inbox {inbox}")
    }
}

#[cfg(test)]
mod tests {
    use std::thread;
    use std::time::Instant;

    use crate::{Cluster, NetConfig, WireTag};

    #[test]
    fn send_then_recv_same_payload() {
        let c = Cluster::new(2, NetConfig::default());
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(0, 0, 7);
        a.send(1, tag, b"hello");
        assert_eq!(b.try_recv(0, tag).as_deref(), Some(&b"hello"[..]));
        assert_eq!(b.try_recv(0, tag), None);
    }

    #[test]
    fn fifo_per_key() {
        let c = Cluster::new(2, NetConfig::default());
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(0, 0, 1);
        for i in 0..16u8 {
            a.send(1, tag, &[i]);
        }
        for i in 0..16u8 {
            assert_eq!(b.try_recv(0, tag).unwrap(), vec![i]);
        }
    }

    #[test]
    fn tags_do_not_cross_match() {
        let c = Cluster::new(2, NetConfig::default());
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        a.send(1, WireTag::p2p(0, 1, 9), b"to-thread-1");
        assert_eq!(b.try_recv(0, WireTag::p2p(0, 0, 9)), None);
        assert_eq!(
            b.try_recv(0, WireTag::p2p(0, 1, 9)).as_deref(),
            Some(&b"to-thread-1"[..])
        );
    }

    #[test]
    fn latency_defers_delivery() {
        let c = Cluster::new(
            2,
            NetConfig {
                alpha_ns: 50_000_000,
                ..NetConfig::default()
            },
        );
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(0, 0, 0);
        a.send(1, tag, b"slow");
        assert_eq!(b.try_recv(0, tag), None, "50 ms has not elapsed yet");
        let start = Instant::now();
        loop {
            if let Some(p) = b.try_recv(0, tag) {
                assert_eq!(p, b"slow");
                break;
            }
            assert!(start.elapsed().as_secs() < 5, "message never delivered");
            thread::yield_now();
        }
        assert!(start.elapsed().as_millis() >= 30, "delivered way too early");
    }

    #[test]
    fn cross_thread_traffic() {
        let c = Cluster::new(2, NetConfig::default());
        let a = c.endpoint(0);
        let b = c.endpoint(1);
        let tag = WireTag::p2p(2, 3, 42);
        let h = thread::spawn(move || {
            a.send(1, tag, &[1, 2, 3]);
        });
        h.join().unwrap();
        let mut got = None;
        for _ in 0..1000 {
            got = b.try_recv(0, tag);
            if got.is_some() {
                break;
            }
            thread::yield_now();
        }
        assert_eq!(got.unwrap(), vec![1, 2, 3]);
    }
}
