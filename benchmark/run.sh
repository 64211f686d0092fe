#!/usr/bin/env bash
# Builds the benchmark and runs it. From anywhere:
#
#   benchmark/run.sh [--seed N] [--seconds S]        every workload, untraced then traced
#   benchmark/run.sh --aa [--seed N] [--seconds S]   two sets of one build, compared
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                    one workload; result object on the last line
#
# Exits non-zero when the build fails or any output check fails.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# Build output goes to stderr: stdout carries only the benchmark's own lines.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/sickle-benchmark" "$@"
