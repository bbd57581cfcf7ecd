#!/usr/bin/env bash
# Build the benchmark (offline, optimized) and run it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--smoke] [--selfcheck]
#       the suite: every workload, each in a process of its own
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is its JSON result
#   benchmark/run.sh --list
#       the workloads and metrics with their definitions
#
# Run it from anywhere. The build goes to $CARGO_TARGET_DIR when that is set
# (relative paths are taken from the caller's directory, as cargo takes them)
# and to benchmark/target otherwise; traces and reports go to benchmark/out.
# Nothing outside the checkout is written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

# Build output goes to stderr: stdout carries only what the benchmark prints.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/pure-benchmark" --out-dir "$here/out" "$@"
