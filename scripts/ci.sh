#!/usr/bin/env bash
# Tier-1 verification entry point: formatting, lints, build, tests.
# Run from the repository root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors: an ambiguous or dangling link fails)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> non-test Rust lines per crate (information only, gates nothing)"
bash scripts/lines.sh

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (default-members: every crate of the workspace)"
cargo test -q

echo "==> corpus_gen --scale 0.05 --check (the generation probe runs, and width 1 generates the pool width's bytes)"
cargo run --release -q --example corpus_gen -- --scale 0.05 --check

echo "==> cargo test --release -q -p miso-common (the pool's one unsafe block, exercised with optimisations on)"
cargo test --release -q -p miso-common

echo "==> goldens (the eleven paper figures and both .csv through the figures binary, at MISO_THREADS=1 and 8; cargo test diffed the fault-path figures)"
# Run from a scratch directory: the binary writes results/<name>.report.json
# (and fig4/fig8 a .csv) relative to where it stands, and the committed
# files must not move. `cargo test` above already diffed every figure
# in-process (crates/bench/tests/{golden,faults}.rs); this is the binary
# itself, at both thread counts.
root="$PWD"
golden="$(mktemp -d)"
trap 'rm -rf "$golden"' EXIT
figures="fig3 fig4 fig5 fig6 fig7 fig8 fig9 table2 fig_motivation ablation maintenance"
cargo build --release -q -p miso-bench --bin figures
for threads in 1 8; do
    for fig in $figures; do
        (cd "$golden" && MISO_THREADS=$threads "$root/target/release/figures" "$fig" >"$fig.txt")
        diff -u "results/$fig.txt" "$golden/$fig.txt"
    done
    diff -u results/fig4.csv "$golden/results/fig4.csv"
    diff -u results/fig8.csv "$golden/results/fig8.csv"
done

echo "==> miso-e2e builds against this tree, answers one workload correctly, serves no stale view"
# benchmark/ is a package of its own, so the workspace build above never
# compiles it: a changed signature that benchmark/src/adapter.rs calls would
# otherwise first fail in the benchmark pipeline.
CARGO_TARGET_DIR="$root/target/miso-e2e" bash benchmark/run.sh \
    --workload stream_growth --seed 7 --seconds 1 --trace 0 | tail -n 1 | tee "$golden/e2e.json"
grep -q '"correct": *true' "$golden/e2e.json"
# Simulated time is a function of the generated logs' sizes: a generator
# that writes one byte differently, or draws in another order, fails here
# and not in a benchmark.
# The growth steps' folds are one job per batch: one start-up and one scan
# of the batch between them, so a charge per fold also fails here.
grep -q '"sim_s": *{"value": *25707.380525,' "$golden/e2e.json" ||
    { echo "ci: stream_growth sim_s is not 25707.380525"; exit 1; }
# The traced run replays every query's chosen plan against the oracle by
# checksum: no answer may come from a view that did not follow the log.
CARGO_TARGET_DIR="$root/target/miso-e2e" bash benchmark/run.sh \
    --workload stream_growth --seed 7 --seconds 1 --trace 1 | tail -n 1 >"$golden/e2e-trace.json"
grep -q '"correct": *true' "$golden/e2e-trace.json"
grep -q '"views.stale_answers": *{"value": *0,' "$golden/e2e-trace.json"
# Every log scan of the workload fuses into its consumer: one that goes back
# to materializing JSON records fails here, not in a later benchmark.
grep -q '"exec.col_fallback_rows": *{"value": *0,' "$golden/e2e-trace.json"
# Maintenance decides nothing new: the traced growth stream's seed-7 counts
# are pinned, so a fold that falls back, moves or drops a view differently,
# or materializes other bytes, fails here and not in a benchmark. The stage
# rule (`miso_hv::Stages`) is pinned by the stages HV runs. Every refresh
# folds (fold state is captured at harvest); the one fallback drops a view
# whose parent is gone. A delta sub-plan two folds of a batch repeat runs
# once, through the batch's sub-plan memo, which the engine's morsels count.
# The operators run: 381 unshared, 331 when the folds seeded each other by
# fingerprint; the memo runs the leaf scans under a replayed node too.
for count in core.maint_fallbacks=1 core.views_moved=24 core.views_dropped=16 \
    exec.morsels=297 hv.bytes_materialized=1815000 core.maint_delta_frac=1 \
    hv.stages_run=20 exec.ops_executed=349; do
    grep -q "\"${count%=*}\": *{\"value\": *${count#*=}," "$golden/e2e-trace.json" ||
        { echo "ci: ${count%=*} is not ${count#*=}"; exit 1; }
done
# The serving loop over a warm master: its UDF templates scan through the
# log image, and every delivered answer is checked against the oracle.
CARGO_TARGET_DIR="$root/target/miso-e2e" bash benchmark/run.sh \
    --workload serve_warm --seed 7 --seconds 1 --trace 1 | tail -n 1 >"$golden/e2e-serve.json"
grep -q '"correct": *true' "$golden/e2e-serve.json"
# Sharing a wave's repeated sub-plans charges every run as if it ran
# alone: the stages HV runs, the bytes it materializes, the bytes DW scans
# and the answers delivered are the seed-7 counts of a wave that shares
# nothing. What sharing does move is the operators run: 893 unshared.
for count in hv.stages_run=190 hv.bytes_materialized=11163225 dw.bytes_scanned=5822307 \
    serve.delivered=1024 exec.ops_executed=770; do
    grep -q "\"${count%=*}\": *{\"value\": *${count#*=}," "$golden/e2e-serve.json" ||
        { echo "ci: serve_warm ${count%=*} is not ${count#*=}"; exit 1; }
done
# And timed: the path the benchmark gate measures computes each epoch's
# base runs and the oracle's answers as pool batches, so it is checked here
# too. Simulated time is the engine's event order: a wave that changed a
# run's cost, or the order of dispatches, fails here.
CARGO_TARGET_DIR="$root/target/miso-e2e" bash benchmark/run.sh \
    --workload serve_warm --seed 7 --seconds 1 --trace 0 | tail -n 1 >"$golden/e2e-serve-timed.json"
grep -q '"correct": *true' "$golden/e2e-serve-timed.json"
grep -q '"sim_s": *{"value": *47769.919783,' "$golden/e2e-serve-timed.json" ||
    { echo "ci: serve_warm sim_s is not 47769.919783"; exit 1; }
# The traced steady stream replays each query step by step through the
# adapter: `hv_execute`, the cuts taken with `output(cut)` as rows, and
# `dw_execute` resumed from those rows — 192 queries and 63 reorg migrations
# over the row adaptors, which nothing else in CI reaches.
CARGO_TARGET_DIR="$root/target/miso-e2e" bash benchmark/run.sh \
    --workload stream_steady --seed 7 --seconds 1 --trace 1 | tail -n 1 >"$golden/e2e-steady.json"
grep -q '"correct": *true' "$golden/e2e-steady.json"
# Planning and reorganization decide nothing new: the traced steady
# stream's seed-7 planning counts and reorg decisions are pinned, so an
# enumerator that drops or repeats a split, a what-if probe that plans
# differently, a reorg that moves or drops views differently, or a stage
# rule that ends or writes other jobs, fails here and not in a benchmark.
for count in optimizer.cost_evals=7187 plan.split_enumerations=917 \
    core.whatif_calls=21693 views.cost_probes=21693 core.knapsack_dp_cells=545477 \
    core.reorgs=63 core.views_moved=132 core.views_dropped=126 \
    hv.stages_run=117 hv.bytes_materialized=3264511; do
    grep -q "\"${count%=*}\": *{\"value\": *${count#*=}," "$golden/e2e-steady.json" ||
        { echo "ci: ${count%=*} is not ${count#*=}"; exit 1; }
done
# And once untraced: the timed path is the one the benchmark gate measures,
# so it is built and its answers checked here before the pipeline does it.
CARGO_TARGET_DIR="$root/target/miso-e2e" bash benchmark/run.sh \
    --workload stream_steady --seed 7 --seconds 1 --trace 0 | tail -n 1 >"$golden/e2e-steady-timed.json"
grep -q '"correct": *true' "$golden/e2e-steady-timed.json"
# Simulated time follows every plan, reorganization and migration of the
# looped stream: one decided or costed differently fails here.
grep -q '"sim_s": *{"value": *58767.115585,' "$golden/e2e-steady-timed.json" ||
    { echo "ci: stream_steady sim_s is not 58767.115585"; exit 1; }
# The cold stream, timed: every log is read for the first time, so the
# fused reader's typed and list columns answer every query here.
CARGO_TARGET_DIR="$root/target/miso-e2e" bash benchmark/run.sh \
    --workload stream_cold --seed 7 --seconds 1 --trace 0 | tail -n 1 >"$golden/e2e-cold-timed.json"
grep -q '"correct": *true' "$golden/e2e-cold-timed.json"
# The one lexing pass serves every cold query: a reader that drops or adds
# a row, or writes a column's bytes differently, moves the simulated time
# and fails here.
grep -q '"sim_s": *{"value": *42134.849899,' "$golden/e2e-cold-timed.json" ||
    { echo "ci: stream_cold sim_s is not 42134.849899"; exit 1; }

echo "ci: all checks passed"
