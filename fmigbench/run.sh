#!/usr/bin/env bash
# Builds the benchmark from this checkout, then runs it with the
# arguments given, e.g.
#
#   bash fmigbench/run.sh --workload front-large --seed 1 --seconds 8 --trace 0
#
# Run it from the root of a checkout. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); scratch inputs go under it.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f fmigbench/Cargo.toml ]]; then
    echo "fmigbench: run from the root of an fmig checkout" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path fmigbench/Cargo.toml >&2
exec "$target/release/fmigbench" --work-dir "$target/fmigbench-work" "$@"
