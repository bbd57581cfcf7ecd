//! # Appendix E — the Pure API, paper ↔ Rust
//!
//! The paper's Appendix E lists the Pure C++ API. This module is the
//! cross-reference into this crate (nothing is exported from here; it is
//! documentation).
//!
//! ## Runtime & ranks (§4.0.1)
//!
//! | Paper | Here |
//! |---|---|
//! | `libpure` runtime bootstrap, `__original_main` | [`crate::launch`] / [`crate::launch_map`] run the SPMD closure on every rank thread |
//! | Makefile `PURE_RT_NUM_THREADS` / processes per node | [`crate::Config::ranks`], [`crate::Config::ranks_per_node`] |
//! | CrayPAT rank-reorder files | [`crate::Config::rank_map`] |
//! | rank id / count | [`crate::RankCtx::rank`], [`crate::RankCtx::nranks`], [`crate::comm::PureComm::rank`], [`crate::comm::PureComm::size`] |
//!
//! ## Messaging (§3.1, §4.1)
//!
//! | Paper | Here |
//! |---|---|
//! | `pure_send_msg(buf, count, dt, dest, tag, comm)` | [`crate::comm::PureComm::send`] (count = slice length, datatype = `T: PureDatatype`) |
//! | `pure_recv_msg(...)` | [`crate::comm::PureComm::recv`] |
//! | non-blocking variants + wait | [`crate::comm::PureComm::isend`] / [`crate::comm::PureComm::irecv`] → [`crate::Request::wait`], [`crate::Request::test`]; batch (`pure_wait_all`): [`crate::wait_all`] |
//! | `PURE_DOUBLE`, `PURE_INT`, … | the [`crate::PureDatatype`] impls (`f64`, `i32`, …) |
//! | buffered mode / rendezvous threshold | [`crate::Config::small_msg_max`] |
//!
//! ## Collectives (§4.2)
//!
//! | Paper | Here |
//! |---|---|
//! | `pure_allreduce` | [`crate::comm::PureComm::allreduce`] (SPTD ≤ [`crate::Config::small_coll_max`]; above it the Partitioned Reducer, which on one node writes each reduced chunk straight into every member's output and across nodes reduces into the leader's scratch) |
//! | `pure_reduce` | [`crate::comm::PureComm::reduce`] |
//! | `pure_bcast` | [`crate::comm::PureComm::bcast`] |
//! | `pure_barrier` | [`crate::comm::PureComm::barrier`] |
//! | `pure_comm_split` | [`crate::comm::PureComm::split`] |
//! | *(extensions beyond the paper's four; default methods composed from broadcast, shared with the baseline)* | [`crate::Communicator::gather`], [`crate::Communicator::allgather`], [`crate::Communicator::scatter`], [`crate::Communicator::scan`], [`crate::Communicator::alltoall`] |
//!
//! ## Pure Tasks (§3.2, §4.3)
//!
//! | Paper | Here |
//! |---|---|
//! | `PureTask` lambda with `(start_chunk, end_chunk, per_exe_args)` | [`crate::PureTask`] closures receiving [`crate::ChunkRange`] + `Option<&E>` |
//! | `task.execute()` | [`crate::PureTask::execute`] / [`crate::RankCtx::execute_task`] |
//! | `per_exe_args` | [`crate::PureTask::execute_with`] / [`crate::RankCtx::execute_task_with`] |
//! | `pure_aligned_idx_range<T>` | [`crate::ChunkRange::aligned`] (unaligned variant: [`crate::ChunkRange::unaligned`]) |
//! | thread-safety inside tasks | [`crate::SharedSlice`] hands out disjoint per-chunk sub-slices |
//! | `PURE_MAX_TASK_CHUNKS` | the `chunks` argument of `execute_task` |
//! | scheduler modes (single-chunk / guided; random / NUMA / sticky; helpers) | single-chunk claims with a random-start victim scan, the paper's evaluated mode (the others showed no significant difference and are not shipped); helpers: [`crate::Config::helpers_per_node`] (steal-only threads) |
//! | SSW-Loop (a blocked rank spins, steals, and drives cross-node progress) | every blocking wait; no progress thread, no option |
//!
//! ## Migration tooling (§1, §5)
//!
//! The paper's MPI-to-Pure source-to-source translator is reproduced as the
//! `mpi2pure` crate/binary in this workspace.
