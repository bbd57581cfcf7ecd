//! # cluster-sim — a discrete-event cluster simulator
//!
//! The paper's evaluation ran on NERSC Cori: up to 1,024 Cray XC40 nodes,
//! 65,536 ranks. This repository has no Cray, so the paper-scale experiments
//! run here: a deterministic discrete-event simulation of a multicore
//! cluster in which the *protocol structure* of each runtime — Pure's
//! lock-free queues, SPTD collectives and chunk stealing; MPI's lock-based
//! queues and p2p-tree collectives; MPI+OpenMP's fork/join regions; AMPI's
//! virtualized ranks with migration-based load balancing — plays out over
//! virtual time with Haswell-plausible cost constants.
//!
//! * [`cost`] — the cost model (message latencies by placement and stack,
//!   collective algorithms, steal overheads); every constant is documented
//!   and structurally motivated.
//! * [`program`] — the op language simulated ranks execute.
//! * [`engine`] — the event-driven executor (rank state machines, chunk
//!   stealing, cooperative AMPI cores, load balancing).
//! * [`workloads`] — generators reproducing each benchmark's communication
//!   and imbalance structure (rand-stencil, NAS DT SH, CoMD variants,
//!   miniAMR — the latter two reuse the *actual* mesh/decomposition code
//!   from the `miniapps` crate), plus the Figure 6/7 microbenchmarks.
//!
//! ## Example
//!
//! ```
//! use cluster_sim::{Op, Sim, SimConfig, SimRuntime, VecProgram, RankProgram};
//!
//! // Two ranks: rank 0 runs a stealable 8-chunk task then signals rank 1,
//! // which blocks on the message (and, under Pure, steals chunks while
//! // waiting).
//! let programs: Vec<Box<dyn RankProgram>> = vec![
//!     Box::new(VecProgram::new(vec![
//!         Op::Task { chunks: vec![100_000; 8] },
//!         Op::Send { dst: 1, bytes: 8 },
//!     ])),
//!     Box::new(VecProgram::new(vec![Op::Recv { src: 0 }])),
//! ];
//! let cfg = SimConfig::new(2, 2, SimRuntime::Pure { tasks: true });
//! let result = Sim::new(cfg, programs).run();
//! assert!(result.chunks_stolen > 0);
//! assert!(result.makespan_ns < 8 * 100_000);
//! ```

pub mod cost;
pub mod engine;
pub mod program;
pub mod workloads;

pub use cost::{
    net_tree_depth, CollKind, CollStack, CostModel, MsgStack, NetCollAlgo, Placement,
    HIER_CANDIDATES,
};
pub use engine::{render_timeline, SegKind, Sim, SimConfig, SimResult, SimRuntime, TraceSegment};
pub use program::{FnProgram, GroupId, Op, RankProgram, VecProgram};
