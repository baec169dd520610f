#!/usr/bin/env bash
# The benchmark's single entry point. Builds the package, then:
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
#       one run; the last line of stdout is the result (BENCHMARK.json's command)
#   run.sh [--seed N] [--seconds S] [--out DIR]
#       all five workloads in order, untraced then traced, and one combined
#       results file for --compare
#   run.sh --compare A.json B.json
#       A against B under the bounds of BENCHMARK.json; exit 1 if B is worse
#
# Runs from the repo root whatever the caller's directory; reads and
# writes nothing outside it.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Build output goes to stderr: stdout carries results only.
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release"

workloads=(gateway_plan gateway_churn loopback_mux paper_sim geo_sim)
seed=1
# The window the driver uses, so a local full run is comparable with its.
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
out=benchmark/out
trace=
single=

args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
        --compare) exec "$bin/aqua-benchmark" "$@" ;;
        --workload) single=1 ;;
        --trace) trace="${args[i + 1]:-}" ;;
        --seed) seed="${args[i + 1]:-}" ;;
        --seconds) seconds="${args[i + 1]:-}" ;;
        --out) out="${args[i + 1]:-}" ;;
    esac
done

if [[ -n "$single" ]]; then
    if [[ "$trace" == 1 ]]; then
        exec "$bin/aqua-benchmark-traced" "$@"
    fi
    exec "$bin/aqua-benchmark" "$@"
fi

status=0
for workload in "${workloads[@]}"; do
    common=(--workload "$workload" --seed "$seed" --seconds "$seconds" --out "$out")
    "$bin/aqua-benchmark" "${common[@]}" --trace 0 || status=1
    "$bin/aqua-benchmark-traced" "${common[@]}" --trace 1 || status=1
done

combined="$out/results-seed$seed.json"
{
    echo '['
    first=1
    for workload in "${workloads[@]}"; do
        for kind in untraced traced; do
            file="$out/$workload-seed$seed-$kind.json"
            [[ -f "$file" ]] || continue
            [[ -n "$first" ]] || echo ','
            first=
            cat "$file"
        done
    done
    echo ']'
} >"$combined"
echo "combined results: $combined" >&2
exit "$status"
