#!/usr/bin/env bash
# Regenerates every paper artifact into results/, at full scale, with one
# `paper` process that records each distinct recording once.
# Usage: scripts/run_experiments.sh [--check] [extra args, e.g. --jobs 4]
# --check writes into a temporary directory instead and cmp's every
# artifact with results/ (a full-scale run, so pass no --scale).
# Workers default to all cores (override with --jobs N or GENCACHE_JOBS);
# output is bit-identical for any job count.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "${1:-}" != "--check" ]; then
  cargo run --release -q -p gencache-bench --bin paper -- --out results "$@"
  exit 0
fi
shift
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
cargo run --release -q -p gencache-bench --bin paper -- --out "$out" "$@"
for artifact in "$out"/*.txt; do
  cmp "results/${artifact##*/}" "$artifact" \
    || { echo "results/${artifact##*/} differs from a fresh run"; exit 1; }
done
echo "all artifacts match results/"
