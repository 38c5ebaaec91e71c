#!/usr/bin/env bash
# The benchmark's one command.
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       builds the benchmark and runs one workload in one process; the last
#       line of standard output is the JSON result (this is what
#       BENCHMARK.json's command runs)
#   bench/run.sh [--seed N] [--seconds S]
#       builds, runs every workload untraced and then traced, each in its own
#       process, prints one "workload/metric value unit (n=samples)" line per
#       metric, writes bench/out/results.json, and fails if any check failed
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --offline --release --quiet --manifest-path bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench/target}/release/ecosched-e2e-bench"

case " $* " in *" --workload "*) exec "$bin" "$@" ;; esac

workloads=(paper_study batch_replan engine_churn engine_widemarket federation_s4 service_session)
mkdir -p bench/out
status=0
entries=()
for workload in "${workloads[@]}"; do
    results=()
    for trace in 0 1; do
        out=$("$bin" --workload "$workload" --trace "$trace" "$@")
        printf '%s\n' "$out" | sed '$d'
        result=$(printf '%s\n' "$out" | tail -n 1)
        case "$result" in *'"correct": true'*) ;; *) status=1 ;; esac
        results+=("$result")
    done
    entries+=("\"$workload\": {\"end_to_end\": ${results[0]}, \"per_layer\": ${results[1]}}")
done

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
{
    printf '{"commit": "%s", "cores": %s, "rustc": "%s", "workloads": {\n' \
        "$commit" "$(nproc)" "$(rustc --version)"
    for i in "${!entries[@]}"; do
        sep=$([ "$i" -lt $((${#entries[@]} - 1)) ] && echo , || true)
        printf '  %s%s\n' "${entries[$i]}" "$sep"
    done
    printf '}}\n'
} > bench/out/results.json
echo "wrote bench/out/results.json" >&2
[ "$status" -eq 0 ] || echo "FAILED: a correctness check failed (see the FAILED CHECK lines)" >&2
exit "$status"
