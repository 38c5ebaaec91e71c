#!/usr/bin/env bash
# Non-test lines of product code, per crate and in total: for every
# crates/*/src/**/*.rs, the lines before the file's first `#[cfg(test)]`
# at the start of a line (all of it when there is none). This is the
# number ROADMAP aim 2 tracks; tests, benches, examples, bench/ and
# vendor/ are outside it.
#
# Usage:
#   ./scripts/loc.sh [repo-root]     # default: this checkout
set -euo pipefail

cd "${1:-"$(dirname "$0")/.."}"

total=0
for crate in crates/*/; do
    [[ -d "$crate/src" ]] || continue
    lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }')
    printf '%-14s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-14s %6d\n' total "$total"
