#!/usr/bin/env bash
# miso-e2e: builds the benchmark and runs it.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--selfcheck]
#       every workload (or one), each run in a process of its own: a timed
#       run for the end-to-end metrics, then a traced run for the per-layer
#       metrics. Prints every metric by name and writes benchmark/out/.
#       --selfcheck runs the set twice on the same build and fails if the
#       two disagree by more than the bounds in BENCHMARK.json.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run, as BENCHMARK.json's command: the last line of standard
#       output is the result as one JSON object.
#
# Nothing outside this directory and the cargo target directory is written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR means relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/miso-e2e"

for arg in "$@"; do
    if [ "$arg" = "--trace" ]; then
        exec "$bin" --out "$here/out" "$@"
    fi
done
exec python3 "$here/report.py" --bin "$bin" "$@"
