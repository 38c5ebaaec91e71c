#!/usr/bin/env bash
# Repeats CI's observability overhead step (`.github/workflows/ci.yml`,
# "Observability overhead gate") in N fresh processes. Each run measures
# the `obs_overhead` bench at 31 samples into a report file of its own and
# prints its recorder-on / recorder-off median ratio, as the CI step does;
# the last line gives the median of the N ratios and how many exceed the
# gate's 1.02. The gate itself is not changed: this only reads it N times.
#
# Usage:
#   scripts/obs_pairs.sh N       # TMPDIR picks where the reports go
set -euo pipefail

n=${1:-}
if ! [[ $n =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: scripts/obs_pairs.sh N   (N runs, N >= 1)" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cargo bench -q -p ecosched-bench --bench obs_overhead --no-run
for i in $(seq 1 "$n"); do
    ECOSCHED_BENCH_REPORT="$work/run-$i.json" CRITERION_SAMPLES=31 \
        cargo bench -q -p ecosched-bench --bench obs_overhead > /dev/null 2>&1
    python3 - "$work/run-$i.json" "$i" <<'EOF' | tee -a "$work/ratios"
import json, sys
report = json.load(open(sys.argv[1]))
off = report["obs_overhead/recorder_off"]["median_ns"]
on = report["obs_overhead/recorder_on"]["median_ns"]
print(f"run {sys.argv[2]}: recorder off {off:.0f} ns, on {on:.0f} ns, ratio {on / off:.4f}")
EOF
done
python3 - "$work/ratios" <<'EOF'
import statistics, sys
ratios = [float(line.rsplit(" ", 1)[1]) for line in open(sys.argv[1])]
over = sum(r > 1.02 for r in ratios)
print(f"median ratio {statistics.median(ratios):.4f}; {over} of {len(ratios)} runs exceed 1.02")
EOF
