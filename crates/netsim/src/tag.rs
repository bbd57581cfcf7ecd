//! Wire-tag encoding.
//!
//! §4.1.3 of the paper: MPI has no native way to route a message to a
//! particular *thread* of the receiving process, so Pure encodes the sender
//! thread id and receiver thread id into upper bits of the MPI tag. The paper
//! used 6 bits per id (64 threads per node). We generalize to 12 bits per id
//! (up to 4,096 ranks per simulated node) and keep 32 bits of user tag plus a
//! 7-bit *class* discriminator that separates point-to-point traffic from the
//! reserved collective planes.

/// Message class planes sharing one transport.
pub const CLASS_P2P: u8 = 0;
/// Node-leader collective traffic (reductions, broadcasts, barriers).
pub const CLASS_COLLECTIVE: u8 = 1;
/// Runtime-internal bootstrap traffic (rank maps, consensus).
pub const CLASS_BOOTSTRAP: u8 = 2;
/// Jumbo frames carrying subframes between two nodes' progress engines —
/// every data frame, once a coalescing or fault plan arms the per-peer
/// links. One such link exists per ordered node pair, so thread ids and
/// user tag are zero; the original tags ride inside the subframe headers.
pub const CLASS_COALESCE: u8 = 3;
/// Failure-detector heartbeats between two nodes' progress engines. Like
/// the coalesce link there is exactly one per ordered node pair (thread ids
/// and user tag are zero); heartbeats are fire-and-forget liveness evidence,
/// so they ride the raw plane — never the reliable sublayer and never a
/// coalescing buffer (a retransmitted or parked heartbeat would be a lie).
pub const CLASS_HEARTBEAT: u8 = 4;
/// Top bit of the 7-bit class field: set on acknowledgement frames of the
/// reliable sublayer. ORed onto the data class so every data plane gets its
/// own ACK plane (a shared ACK class would let a P2P and a collective link
/// with equal thread ids and user tag swallow each other's ACKs).
pub const CLASS_ACK_BIT: u8 = 0x40;

const LOCAL_BITS: u32 = 12;
const LOCAL_MASK: u64 = (1 << LOCAL_BITS) - 1;
const USER_BITS: u32 = 32;
const USER_MASK: u64 = (1 << USER_BITS) - 1;

/// A fully-routed wire tag: which thread on the source node sent it, which
/// thread on the destination node should match it, the application tag, and
/// the traffic class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WireTag {
    /// Sender's local (within-node) thread index.
    pub src_local: u16,
    /// Receiver's local (within-node) thread index.
    pub dst_local: u16,
    /// Application-level tag.
    pub user: u32,
    /// Traffic class (`CLASS_*`).
    pub class: u8,
}

impl WireTag {
    /// Point-to-point tag between two threads.
    pub fn p2p(src_local: usize, dst_local: usize, user: u32) -> Self {
        Self::new(src_local, dst_local, user, CLASS_P2P)
    }

    /// Collective-plane tag between two node leaders.
    pub fn collective(src_local: usize, dst_local: usize, user: u32) -> Self {
        Self::new(src_local, dst_local, user, CLASS_COLLECTIVE)
    }

    /// The (single, per node pair) coalesced-jumbo link tag.
    pub fn coalesce() -> Self {
        Self::new(0, 0, 0, CLASS_COALESCE)
    }

    /// The (single, per node pair) failure-detector heartbeat tag.
    pub fn heartbeat() -> Self {
        Self::new(0, 0, 0, CLASS_HEARTBEAT)
    }

    fn new(src_local: usize, dst_local: usize, user: u32, class: u8) -> Self {
        assert!(
            src_local as u64 <= LOCAL_MASK && dst_local as u64 <= LOCAL_MASK,
            "netsim: thread index exceeds {} bits (the paper's tag-bit budget); \
             raise LOCAL_BITS or run fewer ranks per node",
            LOCAL_BITS
        );
        Self {
            src_local: src_local as u16,
            dst_local: dst_local as u16,
            user,
            class,
        }
    }

    /// The ACK tag mirroring a data tag: same user tag, thread ids swapped
    /// (ACKs flow receiver → sender), class marked with [`CLASS_ACK_BIT`].
    pub fn ack_for(data: WireTag) -> Self {
        Self {
            src_local: data.dst_local,
            dst_local: data.src_local,
            user: data.user,
            class: data.class | CLASS_ACK_BIT,
        }
    }

    /// True for acknowledgement-plane tags.
    pub fn is_ack(self) -> bool {
        self.class & CLASS_ACK_BIT != 0
    }

    /// Pack into the 64-bit on-the-wire representation.
    ///
    /// Layout (high → low): class:7 | src_local:12 | dst_local:12 | user:32.
    pub fn encode(self) -> u64 {
        ((self.class as u64) << (2 * LOCAL_BITS + USER_BITS))
            | ((self.src_local as u64 & LOCAL_MASK) << (LOCAL_BITS + USER_BITS))
            | ((self.dst_local as u64 & LOCAL_MASK) << USER_BITS)
            | (self.user as u64 & USER_MASK)
    }

    /// Inverse of [`WireTag::encode`].
    pub fn decode(raw: u64) -> Self {
        Self {
            class: (raw >> (2 * LOCAL_BITS + USER_BITS)) as u8,
            src_local: ((raw >> (LOCAL_BITS + USER_BITS)) & LOCAL_MASK) as u16,
            dst_local: ((raw >> USER_BITS) & LOCAL_MASK) as u16,
            user: (raw & USER_MASK) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let t = WireTag::p2p(3, 61, 12345);
        assert_eq!(WireTag::decode(t.encode()), t);
    }

    #[test]
    fn roundtrip_extremes() {
        for (s, d, u, c) in [
            (0usize, 0usize, 0u32, CLASS_P2P),
            (4095, 4095, u32::MAX, CLASS_COLLECTIVE),
            (1, 4095, 7, CLASS_BOOTSTRAP),
            (4095, 0, u32::MAX - 1, CLASS_P2P),
        ] {
            let t = WireTag::new(s, d, u, c);
            assert_eq!(WireTag::decode(t.encode()), t);
        }
    }

    #[test]
    fn distinct_tags_encode_distinctly() {
        let a = WireTag::p2p(1, 2, 3).encode();
        let b = WireTag::p2p(2, 1, 3).encode();
        let c = WireTag::p2p(1, 2, 4).encode();
        let d = WireTag::collective(1, 2, 3).encode();
        assert!(a != b && a != c && a != d && b != c && b != d && c != d);
    }

    #[test]
    fn coalesce_link_is_its_own_plane() {
        let j = WireTag::coalesce();
        assert!(!j.is_ack());
        assert_ne!(j.encode(), WireTag::p2p(0, 0, 0).encode());
        assert_ne!(j.encode(), WireTag::collective(0, 0, 0).encode());
        assert_eq!(WireTag::decode(j.encode()), j);
        assert!(WireTag::ack_for(j).is_ack());
    }

    #[test]
    fn heartbeat_link_is_its_own_plane() {
        let h = WireTag::heartbeat();
        assert!(!h.is_ack());
        assert_ne!(h.encode(), WireTag::coalesce().encode());
        assert_ne!(h.encode(), WireTag::p2p(0, 0, 0).encode());
        assert_eq!(WireTag::decode(h.encode()), h);
    }

    #[test]
    fn ack_tag_mirrors_and_marks() {
        let d = WireTag::collective(3, 9, 77);
        let a = WireTag::ack_for(d);
        assert!(a.is_ack() && !d.is_ack());
        assert_eq!((a.src_local, a.dst_local), (9, 3));
        assert_eq!(a.user, 77);
        assert_ne!(a.encode(), d.encode());
        assert_eq!(WireTag::decode(a.encode()), a);
    }

    #[test]
    #[should_panic(expected = "tag-bit budget")]
    fn overflow_panics() {
        let _ = WireTag::p2p(5000, 0, 0);
    }
}
