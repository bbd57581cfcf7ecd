//! Quickstart: the paper's §2 example — a 1-D stencil with unpredictable
//! per-element work — written against the Pure runtime, with and without
//! Pure Tasks.
//!
//! ```sh
//! cargo run --release --example quickstart [ranks]
//! ```
//!
//! The two runs must produce bit-identical arrays; the task run additionally
//! reports how many chunks were stolen by ranks that were blocked in
//! `pure_recv_msg` — the paper's Figure 1 in action.

use miniapps::stencil::{checksum, rand_stencil, StencilParams};
use pure_core::prelude::*;

fn main() {
    let ranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let p = StencilParams {
        arr_sz: 4096,
        iters: 8,
        mean_work: 120,
        ..Default::default()
    };

    println!(
        "rand-stencil: {ranks} ranks × {} elements × {} iters",
        p.arr_sz, p.iters
    );

    let mut cfg = Config::new(ranks);
    cfg.spin_budget = 32;
    let (rep_plain, sums_plain) =
        launch_map(cfg, |ctx| checksum(&rand_stencil(ctx.world(), &p, false)));
    println!(
        "  message-passing only : {:>10.3?}  (msgs sent: {})",
        rep_plain.elapsed,
        rep_plain.per_rank.iter().map(|r| r.msgs_sent).sum::<u64>()
    );

    let mut cfg = Config::new(ranks);
    cfg.spin_budget = 32;
    let (rep_tasks, sums_tasks) =
        launch_map(cfg, |ctx| checksum(&rand_stencil(ctx.world(), &p, true)));
    println!(
        "  with Pure Tasks      : {:>10.3?}  (chunks stolen: {})",
        rep_tasks.elapsed,
        rep_tasks.total_chunks_stolen()
    );

    assert_eq!(sums_plain, sums_tasks, "tasks must not change results");
    println!("  checksums identical ✓ (rank 0: {:#018x})", sums_plain[0]);
    println!("\nOn a multicore machine the task run overlaps blocked ranks with stolen");
    println!("chunks; on this machine it at least demonstrates identical semantics.");
}
