//! # pure-core — the Pure runtime, in Rust
//!
//! A reproduction of *Pure: Evolving Message Passing To Better Leverage
//! Shared Memory Within Nodes* (Psota & Solar-Lezama, PPoPP 2024): a
//! message-passing programming model whose ranks are **threads**, giving the
//! runtime license to use lock-free shared-memory data structures for
//! messaging and collectives within a node, and to let blocked ranks *steal
//! chunks* of other ranks' declared tasks instead of idling.
//!
//! ## Quick start
//!
//! ```
//! use pure_core::prelude::*;
//!
//! let cfg = Config::new(4); // 4 ranks, one simulated node
//! pure_core::launch(cfg, |ctx| {
//!     let rank = ctx.rank();
//!     let world = ctx.world();
//!     // Message passing, MPI-style.
//!     if rank == 0 {
//!         world.send(&[rank as u64], 1, 0);
//!     } else if rank == 1 {
//!         let mut got = [0u64];
//!         world.recv(&mut got, 0, 0);
//!         assert_eq!(got, [0]);
//!     }
//!     // Collectives.
//!     let sum = world.allreduce_one(rank as u64, ReduceOp::Sum);
//!     assert_eq!(sum, 0 + 1 + 2 + 3);
//!     // An optional Pure Task: chunks may be stolen by blocked ranks.
//!     let mut out = vec![0.0f64; 1024];
//!     let shared = SharedSlice::new(&mut out);
//!     ctx.execute_task(16, |chunk| {
//!         for x in shared.chunk_aligned(&chunk) {
//!             *x = 2.0;
//!         }
//!     });
//!     assert!(out.iter().all(|&x| x == 2.0));
//! });
//! ```
//!
//! ## Architecture (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | §4.0.1 rank bring-up, mapping | [`runtime`] |
//! | §4.0.2 SSW-Loop | [`task::ssw`] |
//! | §4.1.1 PureBufferQueue | [`channel::pbq`] |
//! | §4.1.2 rendezvous envelopes | [`channel::envelope`] |
//! | §4.1.3 inter-node + tag encoding | `internode`, `netsim` crate |
//! | §4.2.1 SPTD + flat combining | [`collectives::sptd`], [`collectives::ops`] |
//! | §4.2.2 Partitioned Reducer | [`collectives::ops`] |
//! | §4.3 task scheduler | [`task::scheduler`] |
//! | §3.1 communicators | [`comm`] |

#![warn(missing_docs)]

pub mod api;
pub mod api_listing;
pub mod channel;
pub mod collectives;
pub mod comm;
pub mod datatype;
pub mod error;
mod internode;
pub mod msg;
pub mod runtime;
pub mod task;
pub mod telemetry;
pub mod util;
pub mod writing_pure_programs;

pub use api::{wait_all, CommRequest, Communicator};
pub use comm::PureComm;
pub use datatype::{PureDatatype, ReduceOp, Reducible};
pub use error::{PureError, PureResult};
pub use msg::Request;
pub use runtime::{
    launch, launch_map, launch_surviving, Config, LaunchReport, OnPeerDeath, RankCtx, RankFaults,
    RankStats, Tag,
};
pub use task::{ChunkRange, PureTask, SharedSlice};
pub use telemetry::{Counter, CounterSnapshot, RuntimeStats, TraceEvent};

/// The convenient glob-import surface.
pub mod prelude {
    pub use crate::api::{wait_all, CommRequest, Communicator};
    pub use crate::comm::PureComm;
    pub use crate::datatype::{PureDatatype, ReduceOp, Reducible};
    pub use crate::error::{PureError, PureResult};
    pub use crate::runtime::{
        launch, launch_map, launch_surviving, Config, LaunchReport, OnPeerDeath, RankCtx,
        RankFaults, Tag,
    };
    pub use crate::task::{ChunkRange, PureTask, SharedSlice};
    pub use crate::telemetry::{Counter, RuntimeStats};
    pub use netsim::{
        Backend, CoalescePlan, DetectPlan, EndpointFaultKind, EndpointFaultPlan, NetConfig,
    };
}
