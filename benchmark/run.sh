#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it with the arguments
# given: --workload NAME --seed N --seconds S --trace 0|1. This is the
# `command` of ../BENCHMARK.json; run it from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
# In the repo, build where the root .gitignore and lint.toml already look
# away; a driver that sets CARGO_TARGET_DIR keeps its own choice.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/pbrs-benchmark"
data=benchmark/out/data
mkdir -p "$data"
# The virtual disk is not what this benchmark measures, and on a shared box
# its flush latency drifts by a factor of two. So the chunk files live in
# memory: a tmpfs mounted over the data directory, inside the checkout, in
# a mount namespace of the benchmark's own — nothing outside the process
# sees it, and it is gone when the process is, however it ends. Where that
# is not permitted the data stays on the checkout's filesystem and its
# fsync cost enters put_ingest, disk_rebuild and setup_s; the binary says
# on standard error which of the two it was.
if unshare --mount true 2>/dev/null; then
    exec unshare --mount bash -c \
        'mount -t tmpfs -o size=2g tmpfs "$1" 2>/dev/null || true; shift; exec "$@"' \
        _ "$data" "$bin" "$@"
fi
exec "$bin" "$@"
