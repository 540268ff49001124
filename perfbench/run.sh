#!/usr/bin/env bash
# Builds the benchmark in release mode, then runs it:
#
#   bash perfbench/run.sh --workload <router_paper|fabric_dragonfly|churn_chaos> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); cargo's messages go to stderr,
# so the last line of standard output is the benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
