#!/usr/bin/env bash
# The benchmark's one entry point.
#
#   benchmark/run.sh [--seed N] [--out DIR] [--smoke] [--repeats K] [--label L]
#       build, run the four workloads (each in its own process), then
#       the four traced runs; print `name workload value unit` per metric
#       and write <out>/BENCH_<label>.json
#   benchmark/run.sh compare A.json B.json
#       judge B against A by the bounds in BENCHMARK.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run, as the driver invokes it (see BENCHMARK.json `command`)
set -euo pipefail
cd "$(dirname "$0")/.."

build=(cargo build --release --offline --manifest-path benchmark/Cargo.toml)
"${build[@]}" >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/dblab-benchmark"

case "${1:-}" in
compare) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then exec "$bin" "$@"; fi
done
exec "$bin" suite "$@"
