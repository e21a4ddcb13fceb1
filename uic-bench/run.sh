#!/usr/bin/env bash
# Builds the uic-serve binary and the uic-bench harness from source, then
# runs the harness with the given arguments (see README.md beside this
# script). Builds land in $CARGO_TARGET_DIR (default: .bench_build at the
# repository root). Cargo writes to standard error, so standard output
# carries only the harness's METRIC lines and its closing result object.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --quiet --offline \
  --manifest-path "$root/Cargo.toml" -p uic-serve --bin uic-serve 1>&2
cargo build --release --quiet --offline --manifest-path "$bench_dir/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/uic-bench" "$@"
