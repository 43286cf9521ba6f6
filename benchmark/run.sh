#!/usr/bin/env bash
# One command: build the benchmark offline, then run it.
#
#   benchmark/run.sh                       every workload, each in a child
#                                          process, untraced then traced
#   benchmark/run.sh --repeat-check        two sets of runs must agree
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                          one run, as BENCHMARK.json's command
#   benchmark/run.sh --write-expected      regenerate expected/*.digest
#   benchmark/run.sh --print-manifest      the text of BENCHMARK.json
#
# Result lines go to standard output, tables to standard error. Sets no knob
# of the program: thread count and kernel backend are whatever it selects.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
    set -- --all
fi
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
