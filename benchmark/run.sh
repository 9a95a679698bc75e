#!/usr/bin/env bash
# The benchmark's one command: builds gmbench (release, offline) and runs it.
#
#   benchmark/run.sh                                    every workload, untraced  (= run --all)
#   benchmark/run.sh run --all --runs 3 --traced        ... three times each, plus the traced pass
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                       one workload, one result line
#   benchmark/run.sh compare OLD.json NEW.json
#   benchmark/run.sh check
#
# Cargo's own output goes to stderr; stdout is gmbench's.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- run --all
fi
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
