#!/usr/bin/env bash
# Builds nbl-satd and the benchmark binary from source (release, offline),
# then runs one workload:
#
#   bash satd-bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); traced runs write their spans under it.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo_dir="$(dirname "$bench_dir")"
target_dir="${CARGO_TARGET_DIR:-.bench_build}"
case "$target_dir" in
    /*) ;;
    *) target_dir="$PWD/$target_dir" ;;
esac
export CARGO_TARGET_DIR="$target_dir"

cargo build --release --offline --quiet --manifest-path "$repo_dir/Cargo.toml" \
    -p nbl-net --bin nbl-satd >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2

exec "$target_dir/release/satd-bench" --server "$target_dir/release/nbl-satd" \
    --trace-dir "$target_dir/satd-bench" "$@"
