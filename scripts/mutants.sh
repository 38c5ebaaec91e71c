#!/usr/bin/env bash
# Checked-in mutants must stay killed. Each tests/mutants/NNN-name.patch
# plants one fault that a test once caught, as a unified diff against the
# revision it ships with, under a header:
#
#   Mutant: what the fault is
#   Kill: the cargo test command that must fail with the patch applied
#   PROPTEST_CASES: the case count that command runs at
#
# One `git archive` copy of the revision is unpacked in a temp directory
# (with its own target directory), and for each patch: the kill command
# must pass on the clean copy, the patch must apply without fuzz, the
# command must still build with it, and then it must fail. The patch is
# reverted before the next. Prints a kill table, and exits 1 if any
# mutant survives, any patch no longer applies, or any command fails on
# the clean copy or does not build on the mutated one.
#
# Usage:
#   scripts/mutants.sh [rev]     # default HEAD; TMPDIR picks the temp dir
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
rev="${1:-HEAD}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
git -C "$root" archive "$rev" | tar -x -C "$work/src"
export CARGO_TARGET_DIR="$work/target"
cd "$work/src"

field() { sed -n "s/^$1: //p" "$2" | head -n 1; }

# Runs a kill command at a case count; `build` compiles it only.
run() {
    local mode=$1 cases=$2 command=$3
    if [[ $mode == build ]]; then
        command=${command/cargo test/cargo test --no-run}
    fi
    PROPTEST_CASES=$cases bash -c "$command" > "$work/last.log" 2>&1
}

# Whether each command passed on the clean copy, by case count and command.
declare -A clean

# Sets `verdict` for one patch.
judge() {
    local patch=$1 kill cases
    kill=$(field Kill "$patch")
    cases=$(field PROPTEST_CASES "$patch")
    if [[ -z $kill || -z $cases ]]; then
        verdict="NO HEADER"
        return
    fi
    if [[ -z ${clean["$cases $kill"]:-} ]]; then
        clean["$cases $kill"]=$(run test "$cases" "$kill" && echo pass || echo fail)
    fi
    if [[ ${clean["$cases $kill"]} == fail ]]; then
        verdict="FAILS CLEAN"
    elif ! patch -p1 --dry-run --fuzz=0 --silent < "$patch" > /dev/null; then
        verdict="DOES NOT APPLY"
    else
        patch -p1 --fuzz=0 --silent < "$patch"
        if ! run build "$cases" "$kill"; then
            verdict="DOES NOT BUILD"
        elif run test "$cases" "$kill"; then
            verdict="SURVIVED"
        else
            verdict="killed"
        fi
        patch -p1 -R --fuzz=0 --silent < "$patch"
    fi
}

failed=0
rows=()
shopt -s nullglob
patches=(tests/mutants/*.patch)
[[ ${#patches[@]} -gt 0 ]] || { echo "no patches under tests/mutants" >&2; exit 1; }
for patch in "${patches[@]}"; do
    judge "$patch"
    [[ $verdict == killed ]] || failed=1
    rows+=("$(printf '%-40s %-15s %6s  %s' "$(basename "$patch" .patch)" "$verdict" \
        "$(field PROPTEST_CASES "$patch")" "$(field Kill "$patch")")")
done

printf '%-40s %-15s %6s  %s\n' mutant verdict cases command
printf '%s\n' "${rows[@]}"
exit "$failed"
