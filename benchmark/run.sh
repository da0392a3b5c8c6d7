#!/usr/bin/env bash
# The benchmark's single entry point. Builds the package (offline, release,
# same profile as the root workspace) and runs it from the repository root,
# so `benchmark/out/` is where results and spans land.
#
#   benchmark/run.sh [--seed 42] [--reps 7] [--smoke] [--selfcheck]    all workloads, one process
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1     one workload, one JSON result line
#   benchmark/run.sh --manifest                                         print BENCHMARK.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
