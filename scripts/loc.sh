#!/usr/bin/env bash
# Non-test lines of product code, per crate and in total: for every
# crates/*/src/**/*.rs, the lines before the file's test module, which is
# the first `#[cfg(test)]` at the start of a line that opens a
# `mod NAME {` (the module is taken to run to the end of the file). A
# `#[cfg(test)]` on a `mod NAME;` declaration names a test-only file:
# neither those two lines nor that file count. Any other `#[cfg(test)]`
# item (a test-only function above the module, say) fails the script,
# naming its line: move it into the test module. This is the number
# ROADMAP aim 2 tracks; tests, benches, examples, bench/ and vendor/ are
# outside it.
#
# Usage:
#   ./scripts/loc.sh [repo-root]     # default: this checkout
set -euo pipefail

cd "${1:-"$(dirname "$0")/.."}"

# The files that `#[cfg(test)] mod NAME;` declarations in "$@" name.
test_only_files() {
    awk 'held && /^mod [A-Za-z0-9_]+;/ {
            name = $2; sub(/;.*/, "", name)
            dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
            stem = FILENAME; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
            if (stem != "lib" && stem != "main" && stem != "mod") dir = dir "/" stem
            print dir "/" name ".rs"; print dir "/" name "/mod.rs"
        }
        { held = /^#\[cfg\(test\)\]/ }' "$@"
}

# The non-test lines of the files in "$@".
count() {
    awk 'FNR == 1 { test = 0; held = 0 }
        test { next }
        held {
            held = 0
            if ($0 ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{/) { test = 1; next }
            if ($0 ~ /^mod [A-Za-z0-9_]+;/) next
            printf "%s:%d: a #[cfg(test)] item outside the test module\n", FILENAME, FNR - 1 > "/dev/stderr"
            bad = 1
            exit 1
        }
        /^#\[cfg\(test\)\]/ { held = 1; next }
        { n++ }
        END { if (bad) exit 1; print n + 0 }' "$@"
}

total=0
for crate in crates/*/; do
    [[ -d "$crate/src" ]] || continue
    mapfile -t files < <(find "${crate%/}/src" -name '*.rs' | sort)
    mapfile -t skip < <(test_only_files "${files[@]}")
    mapfile -t files < <(printf '%s\n' "${files[@]}" | grep -vxF -f <(printf '%s\n' "${skip[@]}" ''))
    lines=$(count "${files[@]}")
    printf '%-14s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-14s %6d\n' total "$total"
