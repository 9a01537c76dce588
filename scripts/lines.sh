#!/usr/bin/env bash
# Non-test Rust lines of the workspace's crates: the lines of each
# `crates/*/src/**/*.rs` file before its first `#[cfg(test)]` (the whole
# file when it has none). Prints one line per crate, the total, and the
# five largest files as `non-test (all)`. Information only: it gates
# nothing. Run from anywhere: `bash scripts/lines.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s globstar nullglob

# One "<crate> <non-test> <all> <path>" line per file.
files="$(for f in crates/*/src/**/*.rs; do
    awk -v path="$f" '
        /^[[:space:]]*#\[cfg\(test\)\]/ && !cut { cut = NR - 1 }
        END { split(path, part, "/"); print part[2], (cut ? cut : NR), NR, path }' "$f"
done)"

echo "non-test lines per crate:"
awk '{ n[$1] += $2 } END { for (c in n) printf "  %-10s %6d\n", c, n[c] }' <<<"$files" | sort
awk '{ total += $2 } END { printf "  %-10s %6d\n", "total", total }' <<<"$files"

echo "five largest files, non-test (all):"
sort -k2,2nr <<<"$files" | head -n 5 | awk '{ printf "  %-34s %6d (%d)\n", $4, $2, $3 }'
