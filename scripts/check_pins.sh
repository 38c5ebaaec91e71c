#!/usr/bin/env bash
# Behaviour pins: builds release once and diffs every pinned experiment
# output against its checked-in expectation. Exits non-zero on any diff.
#
#   scripts/pins.expected      E15 (exp_online, 4 hashes), its A/B twin
#                              (--no-coalesce, 4), E16 (--trace mini.swf, 2)
#                              and E18 (exp_federation, 12 merged hashes),
#                              each cell also with the hash of its whole
#                              report (`report_hash`: what was decided —
#                              spend, waits, utilisation — which the log
#                              hashes, inputs and timings only, miss)
#   results/pins/exp_online*.txt, exp_federation.txt
#                              the whole stdout of those four runs
#   results/churn_report.txt   E14: the whole `exp_churn --runs 6 --cycles 4`
#                              table (seeded; repeats byte-for-byte)
#   results/coschedule_report.txt  E9: the whole `exp_coschedule
#                              --iterations 1500` table (seeded likewise)
#   results/pins/<bin>.txt     whole stdout of every other seeded paper
#                              binary on batch markets:
#                              `fig2_3_example` (E1); `exp_time_min`,
#                              `exp_cost_min`, `exp_alternatives`,
#                              `exp_rho_sweep` (E6) and `exp_strategy` (E11)
#                              at `--iterations 300`; `exp_flexibility`
#                              (E13), `exp_length_rule` (E8), `exp_market`
#                              (E10) and `exp_env_validation` (E12) at
#                              their defaults
#   results/pins/exp_scaling.txt  E7: the slots-examined table and the
#                              ratio line, cut off before the wall times
#                              `exp_scaling` prints after them (two runs'
#                              times differ)
#   results/pins/*.metrics.json  the `--metrics-dump` registry of
#                              `exp_federation --single` (the federation
#                              family and four shard-labelled engine
#                              families), the two of `exp_online --trace
#                              mini.swf` (`.ALP` / `.AMP`, the unlabelled
#                              engine family) and the one of `exp_online
#                              --single --scenario churn --algo AMP`, whose
#                              failovers adopt alternatives of leases that
#                              dropped some (so a label that forgets the
#                              dropped count moves the failover histogram):
#                              every series name, label set and value, in
#                              registration order
#
# Usage:
#   ./scripts/check_pins.sh            # check
#   ./scripts/check_pins.sh --bless    # rewrite the expectations (only for a
#                                      # deliberate, documented re-pin)
set -euo pipefail

cd "$(dirname "$0")/.."
paper_bins=(fig2_3_example exp_time_min exp_cost_min exp_alternatives exp_rho_sweep
    exp_strategy exp_flexibility exp_length_rule exp_market exp_env_validation)
cargo build --release -q -p ecosched-experiments \
    --bin exp_online --bin exp_federation --bin exp_churn --bin exp_coschedule --bin exp_scaling \
    "${paper_bins[@]/#/--bin=}"
bin="${CARGO_TARGET_DIR:-target}/release"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

mkdir "$out/pins"
# `pin NAME CMD…` keeps CMD's whole stdout as pins/NAME.txt and prints a
# "# CMD…" header, then its hash lines.
pin() {
    "$bin/$2" "${@:3}" 2>/dev/null > "$out/pins/$1.txt"
    echo "# ${*:2}"
    grep 'hash=' "$out/pins/$1.txt"
}
{
    pin exp_online exp_online
    pin exp_online_no_coalesce exp_online --no-coalesce
    pin exp_online_trace exp_online --trace crates/experiments/fixtures/mini.swf
    pin exp_federation exp_federation
} > "$out/pins.expected"
"$bin/exp_churn" --runs 6 --cycles 4 2>/dev/null > "$out/churn_report.txt"
"$bin/exp_coschedule" --iterations 1500 2>/dev/null > "$out/coschedule_report.txt"
"$bin/exp_scaling" 2>/dev/null | sed '/^Wall time/,$d' > "$out/pins/exp_scaling.txt"
for b in "${paper_bins[@]}"; do
    case $b in
        exp_time_min | exp_cost_min | exp_alternatives | exp_rho_sweep | exp_strategy)
            flags=(--iterations 300) ;;
        *) flags=() ;;
    esac
    "$bin/$b" "${flags[@]}" 2>/dev/null > "$out/pins/$b.txt"
done
"$bin/exp_federation" --single --metrics-dump "$out/pins/exp_federation_single.metrics.json" \
    > /dev/null 2>&1
"$bin/exp_online" --trace crates/experiments/fixtures/mini.swf \
    --metrics-dump "$out/exp_online_trace" > /dev/null 2>&1
for algo in ALP AMP; do
    mv "$out/exp_online_trace.$algo" "$out/pins/exp_online_trace.$algo.metrics.json"
done
"$bin/exp_online" --single --scenario churn --algo AMP \
    --metrics-dump "$out/pins/exp_online_churn_AMP.metrics.json" > /dev/null 2>&1

if [[ "${1:-}" == "--bless" ]]; then
    cp "$out/pins.expected" scripts/pins.expected
    cp "$out/churn_report.txt" "$out/coschedule_report.txt" results/
    mkdir -p results/pins
    cp "$out"/pins/* results/pins/
    echo "pins rewritten"
    exit 0
fi

status=0
diff -u scripts/pins.expected "$out/pins.expected" || status=1
diff -u results/churn_report.txt "$out/churn_report.txt" || status=1
diff -u results/coschedule_report.txt "$out/coschedule_report.txt" || status=1
diff -ru results/pins "$out/pins" || status=1
if [[ $status -eq 0 ]]; then
    echo "pins ok: $(grep -c 'hash=' "$out/pins.expected") hashes + the E14 and E9 tables + 4 engine/federation and ${#paper_bins[@]} paper-binary outputs + the E7 counts + 4 metrics dumps"
else
    echo "pinned behaviour changed (see diff above)" >&2
fi
exit $status
