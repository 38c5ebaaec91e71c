#!/usr/bin/env bash
# bench/aa.sh [N] — does the benchmark agree with itself?
#
# Runs two interleaved sets of N (default 5) untraced runs of every
# workload on the same build, run i of either set with seed i, and prints
# per workload and end-to-end metric: each set's median and its spread
# (interquartile range over median), how much worse the second median is
# than the first, and the metric's bound from BENCHMARK.json. Fails if a
# spread (other than setup_s's) or a difference exceeds the bound.
set -euo pipefail
cd "$(dirname "$0")/.."
n="${1:-5}"

cargo build --offline --release --quiet --manifest-path bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench/target}/release/ecosched-e2e-bench"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mkdir -p bench/out
runs=bench/out/aa.ndjson
: > "$runs"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for workload in $workloads; do
    for seed in $(seq 1 "$n"); do
        for set in 1 2; do
            result=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
            printf '{"workload": "%s", "set": %s, "seed": %s, "result": %s}\n' \
                "$workload" "$set" "$seed" "$result" >> "$runs"
        done
    done
    echo "$workload: $n runs per set done" >&2
done

python3 - "$runs" <<'PY'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(sys.argv[1])]
ok = all(r["result"]["correct"] for r in runs)
print(f"{'workload':18} {'metric':17} {'median 1':>12} {'median 2':>12} {'spread 1':>9} {'spread 2':>9} {'worse by':>9} {'bound':>6}")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        sets = [[r["result"]["metrics"][m["name"]]["value"] for r in runs
                 if r["workload"] == w["name"] and r["set"] == s] for s in (1, 2)]
        medians = [statistics.median(v) for v in sets]
        spreads = []
        for v, median in zip(sets, medians):
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [median] * 3
            spreads.append((q[2] - q[0]) / median)
        worse = (medians[1] - medians[0]) / medians[0] * (1 if m["better"] == "lower" else -1)
        bad = worse > m["bound"] or (m["name"] != "setup_s" and max(spreads) > m["bound"])
        ok &= not bad
        print(f"{w['name']:18} {m['name']:17} {medians[0]:12.4f} {medians[1]:12.4f} "
              f"{spreads[0]:9.2%} {spreads[1]:9.2%} {worse:+9.2%} {m['bound']:6.0%}{'  <-- FAIL' if bad else ''}")
sys.exit(0 if ok else 1)
PY
