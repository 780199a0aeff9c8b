#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# `--trace 1` runs the binary with the counting allocator, `--trace 0`
# the one without it. Set CARGO_TARGET_DIR to choose the build directory.
set -euo pipefail
bin=perfbench
prev=
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=perfbench-traced
    fi
    prev=$arg
done
exec cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml --bin "$bin" -- "$@"
