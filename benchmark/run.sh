#!/usr/bin/env bash
# The one command of the repo benchmark: builds the `benchmark` binary
# (release, offline) and hands it every argument.
#
#   benchmark/run.sh                       every workload, untraced then traced
#   benchmark/run.sh --workload NAME       one workload, untraced then traced
#   benchmark/run.sh --smoke               1 s windows, for CI
#   benchmark/run.sh --check-repeat        the untraced set twice, held to the bounds
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one run; last stdout line is the JSON result
#
# Exits non-zero when the build fails, an output differs from its
# reference, or a request fails.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Build products, result files and traces all live here (git-ignored).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
export CIRCNN_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export CIRCNN_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

# Cargo's own chatter goes to stderr; stdout stays the benchmark's.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

# One CPU for the whole benchmark, server and load generator alike. The
# reference box is a few vCPUs of a shared host: a wake-up that crosses
# vCPUs goes through the hypervisor, and that — not the code — was most of
# what the serving workloads measured and nearly all of their run-to-run
# spread (README, "One CPU"). The last CPU this shell may use, because the
# first one takes the machine's housekeeping. Without `taskset` the run is
# unpinned and says so in its result file (`cpus_allowed`).
cpus="$(taskset -cp $$ 2>/dev/null | sed -e 's/.*: *//')" || cpus=""
cpu="${cpus##*[,-]}"
if [[ "$cpu" =~ ^[0-9]+$ ]]; then
  exec taskset -c "$cpu" "$CARGO_TARGET_DIR/release/benchmark" "$@"
fi
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
