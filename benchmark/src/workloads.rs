//! The rank programs: what each rank of a 2-rank launch does for each
//! workload shape, written once against [`Communicator`] so the identical op
//! sequence runs on Pure, on `mpi-baseline`, and under [`crate::traced`].
//!
//! Every launch has the same outline. Both ranks pass a barrier, run one op,
//! run untimed warm-up *batches* of ops, then timed batches, each phase until
//! rank 0 — the only rank that looks at the clock — says stop. Rank 0 tells
//! rank 1 after every batch with an 8-byte control message on its own tag,
//! sent outside the timed span of the batch.
//!
//! Every payload is stamped from `(seed, op index)` and checked by the rank
//! that receives it; a mismatch is a failed op, never a panic.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use miniapps::comd::{run_comd, ComdParams, Imbalance};
use miniapps::{mix64, unit_f64};
use pure_core::{Communicator, ReduceOp};

use crate::spans::SpanBuf;
use crate::spec::{Shape, WORDS_96K};

/// Tag of the measured traffic.
const TAG_DATA: u32 = 1;
/// Tag of the stream workloads' 1-byte acks.
const TAG_ACK: u32 = 2;
/// Tag of rank 0's continue/stop messages.
const TAG_CTL: u32 = 3;

/// What rank 1 XORs into a ping before echoing it, so a stale or looped-back
/// ping cannot pass for a pong.
const ECHO: u64 = 0x5A5A_5A5A_5A5A_5A5A;

/// Bytes in each of the two buffer sets the 96 KiB stream rotates through:
/// four times the 4 MiB L2 of a core on the host this was sized on, so that
/// every copy misses L2. (The 260 MiB last-level cache that host reports
/// holds both sets; a set four times *that* would be over a GiB a side, and
/// the sizes in between sit half in, half out of it and flip between two
/// speeds from launch to launch.)
pub const STREAM_SET_BYTES: usize = 16 << 20;

/// Nanoseconds since the process-wide epoch all timestamps share.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The process-wide epoch.
pub fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The 8-byte stamp of op `i` under `seed`.
#[inline]
pub fn stamp(seed: u64, i: u64) -> u64 {
    mix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Inputs generated from the seed before any launch: the program under test
/// only ever sees these.
pub struct Inputs {
    /// The seed everything below derives from.
    pub seed: u64,
    /// Source buffers of the 96 KiB stream (rank 0), pre-filled.
    src: Mutex<Vec<u64>>,
    /// Destination buffers of the 96 KiB stream (rank 1).
    dst: Mutex<Vec<u64>>,
    /// Allreduce operands of each rank: `(input, output)`.
    red: [Mutex<(Vec<f64>, Vec<f64>)>; 2],
    /// CoMD parameters (sphere placed from the seed).
    pub comd: ComdParams,
}

/// Word `k` of pre-filled stream buffer `b`.
#[inline]
fn fill_word(seed: u64, b: usize, k: usize) -> u64 {
    mix64(seed ^ ((b as u64) << 24) ^ k as u64)
}

/// CoMD steps per solve.
const COMD_STEPS: usize = 5;

/// The CoMD problem: 2 ranks of 4x4x4 cells side by side on x, one sphere of
/// radius 0.45 x the shortest box edge elided. The sphere's centre comes out
/// of `ComdParams::seed` inside `run_comd`; candidate seeds are drawn from
/// `seed` until the centre falls in the middle of one rank's subdomain, so
/// that every seed hollows out one rank and leaves the other whole — the
/// imbalance is the workload, and it must not vary with the seed.
fn comd_params(seed: u64) -> ComdParams {
    let cells = 4usize;
    let box_x = (2 * cells) as f64;
    let mut candidate = mix64(seed ^ 0xC0_4D);
    for _ in 0..10_000 {
        // Mirrors run_comd's placement of sphere 0: x = unit(mix(seed ^ 0x5EA)) * Lx.
        let x = unit_f64(mix64(candidate ^ 0x5EA)) * box_x;
        let off = x % cells as f64 - cells as f64 / 2.0;
        if off.abs() < 0.2 {
            break;
        }
        candidate = mix64(candidate);
    }
    ComdParams {
        cells_per_rank: [cells; 3],
        steps: COMD_STEPS,
        energy_every: COMD_STEPS,
        imbalance: Imbalance::StaticSpheres {
            count: 1,
            radius: 0.45,
        },
        seed: candidate,
        ..ComdParams::default()
    }
}

impl Inputs {
    /// Generate the inputs `shape` needs from `seed`.
    pub fn generate(seed: u64, shape: Shape) -> Self {
        let (src, dst) = match shape {
            Shape::Stream { words, .. } if words == WORDS_96K => {
                let n_buf = STREAM_SET_BYTES / (words * 8);
                let src: Vec<u64> = (0..n_buf * words)
                    .map(|i| fill_word(seed, i / words, i % words))
                    .collect();
                (src, vec![0u64; n_buf * words])
            }
            _ => (Vec::new(), Vec::new()),
        };
        let red = [0usize, 1].map(|rank| {
            Mutex::new(match shape {
                Shape::Allreduce { elems } => (
                    (0..elems)
                        .map(|k| (rank + 1) as f64 * red_base(seed, k))
                        .collect(),
                    vec![0.0; elems],
                ),
                _ => (Vec::new(), Vec::new()),
            })
        });
        Self {
            seed,
            src: Mutex::new(src),
            dst: Mutex::new(dst),
            red,
            comd: comd_params(seed),
        }
    }
}

/// What one launch is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Message pattern.
    pub shape: Shape,
    /// Ops per batch.
    pub batch: u64,
    /// How long to run untimed warm-up batches after the first op (at least
    /// one batch runs).
    pub warm: Duration,
    /// How long to keep running timed batches (`None`: no timed part, the
    /// launch ends after the first op).
    pub slice: Option<Duration>,
    /// Route the CoMD force sweep through `task_execute`.
    pub comd_tasks: bool,
}

/// What a rank hands back.
#[derive(Debug, Default)]
pub struct RankOut {
    /// Rank function entered.
    pub t_enter_ns: u64,
    /// First barrier left.
    pub t_barrier_ns: u64,
    /// First op finished.
    pub t_first_op_ns: u64,
    /// Last op finished.
    pub t_last_op_ns: u64,
    /// Per-op (or per-window) latencies of the timed part, rank 0 only.
    pub samples_ns: Vec<u32>,
    /// Summed duration of the timed batches, rank 0 only.
    pub busy_ns: u64,
    /// Ops this rank took part in, warm-up included.
    pub ops: u64,
    /// Ops of the timed part.
    pub timed_ops: u64,
    /// Ops whose payload or result failed validation at this rank.
    pub bad: u64,
    /// Allocations counted during the timed part (traced runs).
    pub allocs: u64,
    /// CoMD: `(atoms, checksum)` of the solves (all identical, or `bad`).
    pub comd: Option<(u64, u64)>,
}

/// Per-rank state of one launch: buffers and the op counter.
struct Ops<'a, C> {
    comm: &'a C,
    me: usize,
    seed: u64,
    shape: Shape,
    /// Index of the next op.
    next: u64,
    bad: u64,
    spans: Option<&'a SpanBuf>,
    /// 8-byte scratch for stream messages and control.
    word: [u64; 1],
    ack: [u8; 1],
    /// Ping and broadcast payload; word 0 carries the stamp.
    msg: Vec<u64>,
    /// 96 KiB stream: this rank's buffer set (source on 0, destination on 1).
    set: Option<std::sync::MutexGuard<'a, Vec<u64>>>,
    /// Allreduce operands `(input, output)` of this rank.
    red: std::sync::MutexGuard<'a, (Vec<f64>, Vec<f64>)>,
    comd: &'a ComdParams,
    comd_tasks: bool,
    comd_ref: Option<(u64, u64)>,
}

/// Allreduce operand `k` before scaling by `rank + 1`: a small integer, so
/// the two-rank sum is exact in f64 whatever the reduction order.
#[inline]
fn red_base(seed: u64, k: usize) -> f64 {
    (mix64(seed ^ 0xA11 ^ k as u64) % 1024) as f64
}

impl<'a, C: Communicator> Ops<'a, C> {
    fn new(comm: &'a C, inputs: &'a Inputs, plan: &Plan, spans: Option<&'a SpanBuf>) -> Self {
        let me = comm.rank();
        let set = match plan.shape {
            // A launch that failed while holding the set leaves plain words
            // behind, valid whatever their values: take the guard back.
            Shape::Stream { words, .. } if words == WORDS_96K => Some(
                if me == 0 { &inputs.src } else { &inputs.dst }
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            ),
            _ => None,
        };
        Self {
            comm,
            me,
            seed: inputs.seed,
            shape: plan.shape,
            next: 0,
            bad: 0,
            spans,
            word: [0],
            ack: [0],
            msg: match plan.shape {
                Shape::PingPong { words } | Shape::Bcast { words } => vec![0; words],
                _ => Vec::new(),
            },
            set,
            red: inputs.red[me]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            comd: &inputs.comd,
            comd_tasks: plan.comd_tasks,
            comd_ref: None,
        }
    }

    /// Run `n` ops; rank 0 pushes one latency sample per op (per window for
    /// streams) when `samples` is given.
    fn run(&mut self, n: u64, mut samples: Option<&mut Vec<u32>>) {
        match self.shape {
            Shape::PingPong { .. }
            | Shape::Allreduce { .. }
            | Shape::Comd
            | Shape::Barrier
            | Shape::Bcast { .. }
            | Shape::Task { .. } => {
                let mut t0 = Instant::now();
                for _ in 0..n {
                    self.one_op();
                    if let Some(s) = samples.as_deref_mut() {
                        let t1 = Instant::now();
                        s.push((t1 - t0).as_nanos().min(u32::MAX as u128) as u32);
                        t0 = t1;
                    }
                }
            }
            Shape::Stream { window, .. } => {
                debug_assert_eq!(n % window, 0);
                for _ in 0..n / window {
                    let t0 = Instant::now();
                    self.one_window(window);
                    if let Some(s) = samples.as_deref_mut() {
                        s.push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                    }
                }
            }
        }
    }

    /// One op of a non-stream shape, under an `op` span when traced.
    fn one_op(&mut self) {
        let i = self.next;
        self.next += 1;
        if let Some(sp) = self.spans {
            sp.set_op(i);
            sp.begin("op");
        }
        match self.shape {
            Shape::PingPong { .. } => self.pingpong(i),
            Shape::Allreduce { .. } => self.allreduce(i),
            Shape::Comd => self.comd_solve(),
            Shape::Barrier => self.comm.barrier(),
            Shape::Bcast { .. } => self.bcast(i),
            Shape::Task { chunks } => self.comm.task_execute(chunks, &|r| {
                std::hint::black_box(r);
            }),
            Shape::Stream { .. } => unreachable!("streams run by window"),
        }
        if let Some(sp) = self.spans {
            sp.end();
        }
    }

    fn pingpong(&mut self, i: u64) {
        let v = stamp(self.seed, i);
        if self.me == 0 {
            self.msg[0] = v;
            self.comm.send(&self.msg, 1, TAG_DATA);
            self.comm.recv(&mut self.msg, 1, TAG_DATA);
            self.bad += u64::from(self.msg[0] != v ^ ECHO);
        } else {
            self.comm.recv(&mut self.msg, 0, TAG_DATA);
            self.bad += u64::from(self.msg[0] != v);
            self.msg[0] ^= ECHO;
            self.comm.send(&self.msg, 0, TAG_DATA);
        }
    }

    fn bcast(&mut self, i: u64) {
        let v = stamp(self.seed, i);
        if self.me == 0 {
            self.msg[0] = v;
        }
        self.comm.bcast(&mut self.msg, 0);
        self.bad += u64::from(self.msg[0] != v);
    }

    fn allreduce(&mut self, i: u64) {
        // Element 0 carries the op index; the rest is fixed, so no op pays
        // for a pass over its own input.
        let (input, output) = &mut *self.red;
        input[0] = (self.me + 1) as f64 * i as f64;
        self.comm.allreduce(input, output, ReduceOp::Sum);
        let n = output.len();
        let probe = [(stamp(self.seed, i) as usize) % n, n - 1];
        let ok = output[0] == 3.0 * i as f64
            && probe
                .iter()
                .all(|&k| k == 0 || output[k] == 3.0 * red_base(self.seed, k));
        self.bad += u64::from(!ok);
    }

    fn comd_solve(&mut self) {
        let r = if let Some(sp) = self.spans {
            sp.scoped("apps.run_comd", || {
                run_comd(self.comm, self.comd, self.comd_tasks)
            })
        } else {
            run_comd(self.comm, self.comd, self.comd_tasks)
        };
        // Atom conservation and determinism: every solve of the run must end
        // with the same atom count and checksum as the first.
        let got = (r.atoms, r.checksum);
        let want = *self.comd_ref.get_or_insert(got);
        self.bad += u64::from(got != want || r.atoms == 0);
    }

    /// One window of a stream: `window` messages 0 -> 1, one ack 1 -> 0.
    fn one_window(&mut self, window: u64) {
        let Shape::Stream { words, .. } = self.shape else {
            unreachable!("one_window on a non-stream shape")
        };
        let first = self.next;
        self.next += window;
        if let Some(sp) = self.spans {
            sp.set_op(first);
            sp.begin("op");
        }
        let ack = stamp(self.seed, first) as u8;
        for i in first..first + window {
            let v = stamp(self.seed, i);
            match (&mut self.set, self.me) {
                (None, 0) => {
                    self.word[0] = v;
                    self.comm.send(&self.word, 1, TAG_DATA);
                }
                (None, _) => {
                    self.comm.recv(&mut self.word, 0, TAG_DATA);
                    self.bad += u64::from(self.word[0] != v);
                }
                (Some(set), me) => {
                    let n_buf = set.len() / words;
                    let b = (i % n_buf as u64) as usize;
                    let buf = &mut set[b * words..(b + 1) * words];
                    if me == 0 {
                        // Stamp the ends; the body keeps its pre-filled
                        // pattern, so sending costs no extra pass over it.
                        buf[0] = v;
                        buf[words - 1] = !v;
                        self.comm.send(buf, 1, TAG_DATA);
                    } else {
                        self.comm.recv(buf, 0, TAG_DATA);
                        let k = 1 + (v as usize) % (words - 2);
                        let ok = buf[0] == v
                            && buf[words - 1] == !v
                            && buf[k] == fill_word(self.seed, b, k);
                        self.bad += u64::from(!ok);
                    }
                }
            }
        }
        if self.me == 0 {
            self.comm.recv(&mut self.ack, 1, TAG_ACK);
            self.bad += u64::from(self.ack[0] != ack);
        } else {
            self.ack[0] = ack;
            self.comm.send(&self.ack, 0, TAG_ACK);
        }
        if let Some(sp) = self.spans {
            sp.end();
        }
    }

    /// Rank 0 decides, rank 1 learns: `true` means stop.
    fn agree_stop(&mut self, stop: bool) -> bool {
        if self.comm.size() == 1 {
            stop
        } else if self.me == 0 {
            self.word[0] = u64::from(stop);
            self.comm.send(&self.word, 1, TAG_CTL);
            stop
        } else {
            self.comm.recv(&mut self.word, 0, TAG_CTL);
            self.word[0] != 0
        }
    }
}

/// Latency samples one launch has room for; filling it ends the timed part
/// early. The room is the same for every workload and run length, and is
/// written to before the clock starts, so that recording a sample never
/// allocates or faults and the buffer weighs the same in every run's RSS.
const SAMPLE_ROOM: usize = 2_000_000;

/// The program every rank of every workload launch runs.
pub fn rank_program<C: Communicator>(
    comm: &C,
    inputs: &Inputs,
    plan: &Plan,
    spans: Option<&SpanBuf>,
) -> RankOut {
    let mut out = RankOut {
        t_enter_ns: now_ns(),
        ..RankOut::default()
    };
    comm.barrier();
    out.t_barrier_ns = now_ns();
    let mut ops = Ops::new(comm, inputs, plan, spans);
    let unit = plan.shape.ops_per_sample();
    ops.run(unit, None);
    out.t_first_op_ns = now_ns();

    if let Some(slice) = plan.slice {
        let clock_owner = ops.me == 0;
        let mut samples = if clock_owner {
            vec![1u32; SAMPLE_ROOM]
        } else {
            Vec::new()
        };
        samples.clear();
        let per_batch = (plan.batch / unit) as usize;

        let start = Instant::now();
        loop {
            ops.run(plan.batch, None);
            if ops.agree_stop(clock_owner && start.elapsed() >= plan.warm) {
                break;
            }
        }

        let allocs0 = crate::alloc::count();
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            ops.run(plan.batch, clock_owner.then_some(&mut samples));
            out.busy_ns += t0.elapsed().as_nanos() as u64;
            out.timed_ops += plan.batch;
            let stop = clock_owner
                && (start.elapsed() >= slice || samples.len() + per_batch > SAMPLE_ROOM);
            if ops.agree_stop(stop) {
                break;
            }
        }
        out.allocs = crate::alloc::count() - allocs0;
        samples.shrink_to_fit();
        out.samples_ns = samples;
    }
    out.t_last_op_ns = now_ns();
    out.ops = ops.next;
    out.bad = ops.bad;
    out.comd = ops.comd_ref;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(stamp(7, 3), stamp(7, 3));
        assert_ne!(stamp(7, 3), stamp(8, 3));
        assert_ne!(stamp(7, 3), stamp(7, 4));
        assert_eq!(comd_params(11).seed, comd_params(11).seed);
        assert_ne!(comd_params(11).seed, comd_params(12).seed);
    }

    #[test]
    fn comd_sphere_sits_mid_subdomain_for_any_seed() {
        for seed in 0..200 {
            let p = comd_params(seed);
            let x = unit_f64(mix64(p.seed ^ 0x5EA)) * 8.0;
            assert!((x % 4.0 - 2.0).abs() < 0.2, "seed {seed}: x = {x}");
        }
    }
}
