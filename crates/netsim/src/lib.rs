//! # netsim — a simulated inter-node interconnect
//!
//! The Pure paper runs MPI between nodes of a Cray XC40 (Aries network) and
//! its own lock-free machinery within nodes. This repository has no cluster,
//! so `netsim` stands in for "MPI across nodes": an in-process transport
//! connecting *simulated nodes*, with
//!
//! * tagged point-to-point messages between nodes,
//! * the paper's tag-encoding trick (§4.1.3): the sending and receiving
//!   *thread* ids within their nodes are packed into upper bits of the wire
//!   tag so that thread-level routing works over a node-level transport,
//! * an α–β latency model (`T = α + β · bytes`) so that multi-node runs on a
//!   single machine still exhibit a latency hierarchy, and
//! * per-endpoint traffic statistics.
//!
//! The default backend is deliberately modest: a lock-protected inbox per
//! node plus a lock-protected match store, which is an honest model of an
//! MPI progress engine running in `MPI_THREAD_MULTIPLE` mode (a global-ish
//! lock serializes progress). The raw frame plane is pluggable behind the
//! [`Transport`] trait; [`tcp`] provides a second backend over real
//! nonblocking TCP sockets, in-process (loopback mesh) or between actual
//! OS processes. Higher-level cross-node collective *algorithms* live in
//! `pure-core::internode`, composed from these primitives.

pub mod coalesce;
pub mod faults;
pub mod pool;
pub mod reliable;
mod sim;
pub mod tag;
pub mod tcp;
mod transport;

pub use coalesce::CoalescePlan;
pub use faults::{
    DetectPlan, EndpointFaultKind, EndpointFaultPlan, FaultDecision, FaultPlan, PeerHealth,
};
pub use pool::{FrameBuf, FramePool, FrameSlice, PoolStats};
pub use tag::WireTag;
pub use tcp::{multiproc_endpoint, TcpTransport};
pub use transport::{
    ArrivalSet, Backend, Cluster, NetConfig, NetStats, NodeEndpoint, PumpOutcome, Transport,
};

/// Cold panic path for invariants that are guaranteed by construction but
/// still checked on the way down, so a violation dies loudly with context
/// instead of corrupting transport state (mirrors `pure-core`'s convention).
#[cold]
#[inline(never)]
pub(crate) fn die_invariant(what: &str) -> ! {
    panic!("netsim: internal invariant violated: {what}");
}
