#!/usr/bin/env bash
# The pair protocol of ROADMAP "How a PR is judged", as one command.
#
#   scripts/bench_pairs.sh <parent-rev> [pairs=10] [--workload W] [--seed N]
#
# Builds bench/ at <parent-rev> (from a `git archive` copy, cached under
# ${TMPDIR:-/tmp} by commit) and in the working tree, once each, then runs
# each side's `ecosched-e2e-bench --workload W --seed N --seconds
# <run_seconds> --trace 0` from that side's root, as `bench/run.sh` does
# after its build, `pairs` times, alternating which side goes first. No
# run rebuilds anything, so an edit made during the runs cannot change
# what either side measures. For every
# workload (all of BENCHMARK.json's unless --workload names one) and
# every end-to-end metric it prints both sides' medians and quartiles,
# in how many pairs the working tree read better, and the verdict
# against the metric's BENCHMARK.json bound; a "GAIN" is what
# choosing-metrics §8 lets a PR claim (better in >= 9/10 of the pairs
# and the medians apart by more than the parent's interquartile range).
# With fewer than 10 pairs, a metric that reads worse in every pair is
# "UNSETTLED — rerun at 10 pairs", not "within bound": five losses in
# five pairs have been a real loss of a percent or two.
#
# Appends one line — {commit, parent, cores, rustc, seed, pairs,
# medians} of the working tree's side — to results/bench_trajectory.ndjson
# and restores bench/Cargo.lock, which building rewrites. Exits 1 when a
# run fails its correctness check or a metric is outside its bound.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() { sed -n '2,6p' "$0" >&2; exit 2; }
[ $# -ge 1 ] || usage
parent_rev=$1; shift
pairs=10
seed=42
only=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) only=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        [0-9]*) pairs=$1; shift ;;
        *) usage ;;
    esac
done

parent_sha=$(git rev-parse --verify "$parent_rev^{commit}")
parent_dir="${TMPDIR:-/tmp}/ecosched-bench-parent-$parent_sha"
if [ ! -d "$parent_dir" ]; then
    mkdir -p "$parent_dir.partial"
    git archive "$parent_sha" | tar -x -C "$parent_dir.partial"
    mv "$parent_dir.partial" "$parent_dir"
fi
runs=$(mktemp)
trap 'rm -f "$runs"; git checkout -q -- bench/Cargo.lock' EXIT

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ -n "$only" ]; then
    workloads=("$only")
else
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

# Build both sides once, before timing anything. The binary is where
# bench/run.sh finds it: under CARGO_TARGET_DIR, or else the checkout's
# bench/target, each side building from and running in its own root. A
# target directory named by an absolute path would be one binary for both.
case "${CARGO_TARGET_DIR:-}" in
    /*) echo "CARGO_TARGET_DIR=$CARGO_TARGET_DIR would be shared by both sides" >&2; exit 2 ;;
esac
echo "building parent $parent_sha in $parent_dir and the working tree…" >&2
for root in "$parent_dir" .; do
    (cd "$root" && cargo build --offline --release --quiet --manifest-path bench/Cargo.toml)
done
bin="${CARGO_TARGET_DIR:-bench/target}/release/ecosched-e2e-bench"

one() { # side root workload
    local out
    out=$(cd "$2" && "$bin" --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    printf '{"side": "%s", "workload": "%s", "result": %s}\n' "$1" "$3" "$out" >> "$runs"
}
for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        echo "$workload: pair $pair of $pairs" >&2
        if [ $((pair % 2)) -eq 1 ]; then
            one parent "$parent_dir" "$workload"; one change . "$workload"
        else
            one change . "$workload"; one parent "$parent_dir" "$workload"
        fi
    done
done

commit=$(git rev-parse HEAD)
git diff --quiet HEAD -- . ':!bench/Cargo.lock' || commit="$commit-dirty"
python3 - "$runs" "$commit" "$parent_sha" "$(nproc)" "$(rustc --version)" "$seed" "$pairs" <<'EOF'
import json, statistics, sys

runs_path, commit, parent, cores, rustc, seed, pairs = sys.argv[1:]
bench = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(runs_path)]
status = 0

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]

medians = {}
for workload in dict.fromkeys(r["workload"] for r in runs):
    sides = {side: [r["result"] for r in runs if r["workload"] == workload and r["side"] == side]
             for side in ("parent", "change")}
    for side, results in sides.items():
        bad = [r for r in results if not r["correct"] or r["failed"]]
        if bad:
            print(f"{workload}: {len(bad)} {side} run(s) failed the correctness check")
            status = 1
    medians[workload] = {}
    for metric in bench["end_to_end"]:
        name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        p = [r["metrics"][name]["value"] for r in sides["parent"]]
        c = [r["metrics"][name]["value"] for r in sides["change"]]
        pm, cm = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
        losses = sum((y > x) if lower else (y < x) for x, y in zip(p, c))
        ties = sum(x == y for x, y in zip(p, c))
        worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
        if worse > bound:
            verdict, status = f"REGRESSION (bound {bound:.0%})", 1
        elif wins >= 0.9 * (len(p) - ties) and wins and abs(cm - pm) > (p3 - p1):
            verdict = "GAIN"
        elif len(p) < 10 and losses == len(p):
            verdict = "UNSETTLED — rerun at 10 pairs"
        else:
            verdict = "within bound"
        print(f"{workload}/{name} [{metric['unit']}]: parent {pm:.4g} ({p1:.4g}–{p3:.4g}) "
              f"change {cm:.4g} ({c1:.4g}–{c3:.4g}), {-worse:+.1%} better, "
              f"wins {wins}/{len(p)} — {verdict}")
        medians[workload][name] = cm

with open("results/bench_trajectory.ndjson", "a") as out:
    out.write(json.dumps({"commit": commit, "parent": parent, "cores": int(cores),
                          "rustc": rustc, "seed": int(seed), "pairs": int(pairs),
                          "medians": medians}) + "\n")
sys.exit(status)
EOF
