#!/usr/bin/env bash
# Behaviour pins: builds release once and diffs every pinned experiment
# output against its checked-in expectation. Exits non-zero on any diff.
#
#   scripts/pins.expected      E15 (exp_online, 4 hashes), its A/B twin
#                              (--no-coalesce, 4), E16 (--trace mini.swf, 2)
#                              and E18 (exp_federation, 12 merged hashes)
#   results/churn_report.txt   E14: the whole `exp_churn --runs 6 --cycles 4`
#                              table (seeded; repeats byte-for-byte)
#   results/coschedule_report.txt  E9: the whole `exp_coschedule
#                              --iterations 1500` table (seeded likewise)
#
# Usage:
#   ./scripts/check_pins.sh            # check
#   ./scripts/check_pins.sh --bless    # rewrite the expectations (only for a
#                                      # deliberate, documented re-pin)
set -euo pipefail

cd "$(dirname "$0")/.."
cargo build --release -q -p ecosched-experiments \
    --bin exp_online --bin exp_federation --bin exp_churn --bin exp_coschedule
bin="${CARGO_TARGET_DIR:-target}/release"

hashes=$(mktemp)
churn=$(mktemp)
cosched=$(mktemp)
trap 'rm -f "$hashes" "$churn" "$cosched"' EXIT

# One "# <command>" header per run, then its hash lines.
pin() {
    echo "# $*"
    "$bin/$1" "${@:2}" 2>/dev/null | grep 'hash='
}
{
    pin exp_online
    pin exp_online --no-coalesce
    pin exp_online --trace crates/experiments/fixtures/mini.swf
    pin exp_federation
} > "$hashes"
"$bin/exp_churn" --runs 6 --cycles 4 2>/dev/null > "$churn"
"$bin/exp_coschedule" --iterations 1500 2>/dev/null > "$cosched"

if [[ "${1:-}" == "--bless" ]]; then
    cp "$hashes" scripts/pins.expected
    cp "$churn" results/churn_report.txt
    cp "$cosched" results/coschedule_report.txt
    echo "pins rewritten"
    exit 0
fi

status=0
diff -u scripts/pins.expected "$hashes" || status=1
diff -u results/churn_report.txt "$churn" || status=1
diff -u results/coschedule_report.txt "$cosched" || status=1
if [[ $status -eq 0 ]]; then
    echo "pins ok: $(grep -c 'hash=' "$hashes") hashes + the E14 and E9 tables"
else
    echo "pinned behaviour changed (see diff above)" >&2
fi
exit $status
