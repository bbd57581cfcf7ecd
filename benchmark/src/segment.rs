//! One launch of a workload — a *segment* — on Pure or on `mpi-baseline`,
//! timed from outside: launch call, rank entry, first barrier, first op,
//! last op, launch return.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use mpi_baseline::{mpi_launch_map, MpiConfig};
use netsim::{Backend, CoalescePlan, DetectPlan, FaultPlan, NetConfig};
use pure_core::telemetry::TraceEvent;
use pure_core::{launch_map, Config, Counter, LaunchReport};

use crate::report::Measured;
use crate::spans::{Span, SpanBuf};
use crate::spec::{Net, Wire};
use crate::stats::{iqr_share, median, BlockStat};
use crate::traced::Traced;
use crate::workloads::{epoch, now_ns, rank_program, Inputs, Plan, RankOut};

/// Every launch runs under this progress deadline, so that a hang becomes
/// counted failures instead of a stuck run.
const DEADLINE: Duration = Duration::from_secs(20);

/// The failure detector as the workloads arm it: the default heartbeat
/// cadence and phi, so every frame pays the detector's bookkeeping, but a
/// suspicion floor of 10 s in place of the default 50 ms. On a 2-vCPU guest
/// a rank thread can lose its core for longer than 50 ms, and the default
/// then condemns a live peer and aborts the launch; a benchmark must run on
/// inputs where no op fails.
const DETECT: DetectPlan = DetectPlan {
    hb_interval_ns: 1_000_000,
    suspect_after_ns: 10_000_000_000,
    phi: 8,
};

/// Spans each rank can record in one traced launch.
const SPAN_CAPACITY: usize = 400_000;
/// Events the runtime's own ring tracer keeps per rank in a traced launch.
const RING_EVENTS: usize = 4096;

/// The interconnect of a configuration. `fault_seed` seeds the fault plan
/// that arms the reliable sublayer.
pub fn net_config(net: Net, fault_seed: u64) -> NetConfig {
    let mut cfg = NetConfig::default().with_backend(net.backend);
    if let Some(drop_pm) = net.drop_pm {
        cfg = cfg.with_faults(FaultPlan::drops(fault_seed, drop_pm));
    }
    if net.coalesce {
        cfg = cfg.with_coalescing(CoalescePlan::default());
    }
    if net.detect {
        cfg = cfg.with_detection(DETECT);
    }
    cfg
}

/// The Pure configuration of `wire`: ranks as threads, cooperative
/// progress, no helper threads, default spin budget, every wait bounded.
pub fn pure_config(wire: Wire, fault_seed: u64) -> Config {
    match wire {
        Wire::Intra => Config::new(2),
        Wire::Solo => Config::new(1),
        Wire::Nodes(net) => Config::new(2)
            .with_ranks_per_node(1)
            .with_net(net_config(net, fault_seed)),
    }
    .with_deadline(DEADLINE)
}

/// The baseline's configuration for the same placement. The baseline has no
/// progress engine to flush a coalescing buffer or drain a reliable link at
/// exit, so across nodes it runs over the same backend with no plan armed.
pub fn mpi_config(wire: Wire) -> MpiConfig {
    match wire {
        Wire::Intra => MpiConfig::new(2),
        Wire::Solo => MpiConfig::new(1),
        Wire::Nodes(net) => {
            let mut cfg = MpiConfig::new(2).with_ranks_per_node(1);
            cfg.net = NetConfig::default().with_backend(net.backend);
            cfg
        }
    }
}

/// Which runtime a segment ran on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runtime {
    /// `pure_core::launch_map`.
    Pure,
    /// `mpi_baseline::mpi_launch_map`.
    Mpi,
}

/// What a traced Pure segment keeps besides its numbers.
#[derive(Debug, Default)]
pub struct TraceOut {
    /// The benchmark's spans, per rank, and how many each rank dropped.
    pub spans: Vec<(Vec<Span>, u64)>,
    /// The runtime's ring-tracer events, per rank.
    pub ring: Vec<Vec<TraceEvent>>,
}

/// The outcome of one launch.
#[derive(Debug)]
pub struct Segment {
    /// Runtime.
    pub runtime: Runtime,
    /// `None` when the launch aborted (deadline, panic): its ops count as
    /// failed, and the timing fields below are meaningless.
    pub ranks: Option<Vec<RankOut>>,
    /// Launch call.
    pub t_call_ns: u64,
    /// Launch returned.
    pub t_return_ns: u64,
    /// The timed part reduced to a block (`None`: aborted, or no timed part).
    pub block: Option<BlockStat>,
    /// Pure only: the launch report.
    pub report: Option<LaunchReport>,
    /// Traced Pure segments only.
    pub trace: Option<TraceOut>,
}

impl Segment {
    fn rank0(&self) -> Option<&RankOut> {
        self.ranks.as_ref().map(|r| &r[0])
    }

    /// Launch call -> rank 0 finished its first op.
    pub fn setup_ns(&self) -> Option<u64> {
        self.rank0().map(|r| r.t_first_op_ns - self.t_call_ns)
    }

    /// Launch call -> rank 0 entered its function.
    pub fn launch_ns(&self) -> Option<u64> {
        self.rank0().map(|r| r.t_enter_ns - self.t_call_ns)
    }

    /// Rank 0 entered -> rank 0 left the first barrier.
    pub fn first_barrier_ns(&self) -> Option<u64> {
        self.rank0().map(|r| r.t_barrier_ns - r.t_enter_ns)
    }

    /// Rank 0's last op done -> launch returned.
    pub fn teardown_ns(&self) -> Option<u64> {
        self.rank0().map(|r| self.t_return_ns - r.t_last_op_ns)
    }

    /// Rank 0's latency samples of the timed part, in order, each covering
    /// [`crate::spec::Shape::ops_per_sample`] ops.
    pub fn samples_ns(&self) -> &[u32] {
        self.rank0().map_or(&[], |r| &r.samples_ns)
    }

    /// Ops that failed validation, summed over ranks.
    pub fn bad(&self) -> u64 {
        self.ranks
            .as_ref()
            .map_or(0, |r| r.iter().map(|o| o.bad).sum())
    }

    /// Ops run (warm-up included), as rank 0 counted them.
    pub fn ops(&self) -> u64 {
        self.rank0().map_or(0, |r| r.ops)
    }

    /// A runtime counter summed over ranks (0 on the baseline).
    pub fn counter(&self, c: Counter) -> u64 {
        self.report.as_ref().map_or(0, |r| r.stats.total(c))
    }

    /// Frame-pool buffers still out after the launch returned; must be 0.
    pub fn pool_outstanding(&self) -> i64 {
        self.report.as_ref().map_or(0, |r| {
            let s = &r.stats;
            (s.pool_hits + s.pool_misses) as i64 - (s.pool_recycled + s.pool_freed) as i64
        })
    }
}

/// Median of `f` over the launches where it is defined, scaled by `scale`,
/// with the launches' own spread; not a number when none completed.
pub fn median_over<'a>(
    segs: impl IntoIterator<Item = &'a Segment>,
    scale: f64,
    f: impl Fn(&Segment) -> Option<u64>,
) -> Measured {
    let v: Vec<f64> = segs
        .into_iter()
        .filter_map(f)
        .map(|x| x as f64 * scale)
        .collect();
    if v.is_empty() {
        return Measured::plain(f64::NAN, "no completed launch");
    }
    Measured::new(
        median(&v),
        iqr_share(&v),
        format!("median of {} launches", v.len()),
    )
}

/// Launch `plan` on `runtime` and time it from outside. With `trace`, each
/// Pure rank records spans around its calls and the runtime's ring tracer is
/// armed as well.
pub fn run_segment(
    runtime: Runtime,
    wire: Wire,
    inputs: &Inputs,
    plan: &Plan,
    trace: bool,
) -> Segment {
    let t_call_ns = now_ns();
    let (ranks, report, trace_out) = match runtime {
        Runtime::Pure => {
            let mut cfg = pure_config(wire, inputs.seed);
            if trace {
                cfg = cfg.with_trace(RING_EVENTS);
            }
            let res = catch_unwind(AssertUnwindSafe(|| {
                launch_map(cfg, |ctx| {
                    if trace {
                        let buf = SpanBuf::new(SPAN_CAPACITY, epoch());
                        let out =
                            rank_program(&Traced::new(ctx.world(), &buf), inputs, plan, Some(&buf));
                        (out, Some(buf.into_spans()))
                    } else {
                        (rank_program(ctx.world(), inputs, plan, None), None)
                    }
                })
            }));
            match res {
                Ok((mut report, per_rank)) => {
                    let (outs, spans): (Vec<_>, Vec<_>) = per_rank.into_iter().unzip();
                    let trace_out = trace.then(|| TraceOut {
                        spans: spans.into_iter().flatten().collect(),
                        ring: std::mem::take(&mut report.stats.trace),
                    });
                    (Some(outs), Some(report), trace_out)
                }
                Err(_) => (None, None, None),
            }
        }
        Runtime::Mpi => {
            let cfg = mpi_config(wire);
            let res = catch_unwind(AssertUnwindSafe(|| {
                mpi_launch_map(cfg, |ctx| rank_program(ctx.world(), inputs, plan, None))
            }));
            (res.ok().map(|(_, outs)| outs), None, None)
        }
    };
    let t_return_ns = now_ns();
    let block = ranks
        .as_ref()
        .map(|r| &r[0])
        .filter(|r| !r.samples_ns.is_empty())
        .map(|r| BlockStat::from_samples(&r.samples_ns, plan.shape.ops_per_sample(), r.busy_ns));
    Segment {
        runtime,
        ranks,
        t_call_ns,
        t_return_ns,
        block,
        report,
        trace: trace_out,
    }
}

/// Where a configuration's traffic goes: a real link is never crossed.
pub fn link_of(wire: Wire) -> &'static str {
    match wire {
        Wire::Intra | Wire::Solo => "shared memory (one node)",
        Wire::Nodes(Net {
            backend: Backend::Sim,
            ..
        }) => "in-process simulated fabric",
        Wire::Nodes(Net {
            backend: Backend::Tcp,
            ..
        }) => "TCP over the host's loopback interface",
    }
}
