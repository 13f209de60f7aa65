#!/usr/bin/env bash
# Build the benchmark in release mode and run the full set once, or
# with --twice run two sets of the same commit and compare them against
# the benchmark's own bounds (the self-agreement check: no `regressed`,
# no `unresolved`). Any other argument is handed to the benchmark
# (--seed N, --seconds S, --quick).
set -euo pipefail
cd "$(dirname "$0")/.."

twice=0
args=()
for arg in "$@"; do
    if [ "$arg" = "--twice" ]; then twice=1; else args+=("$arg"); fi
done

cargo build --release --offline --manifest-path benchmark/Cargo.toml
target_dir="${CARGO_TARGET_DIR:-benchmark/target}"
bin="$target_dir/release/gridagg-benchmark"

start=$(date +%s)
if [ "$twice" = 1 ]; then
    "$bin" "${args[@]}" --label first
    "$bin" "${args[@]}" --label second
    "$bin" compare benchmark/out/set-first.json benchmark/out/set-second.json
else
    "$bin" "${args[@]}"
fi
echo "run.sh: $(( $(date +%s) - start )) s in total"
