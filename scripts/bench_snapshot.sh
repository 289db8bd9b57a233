#!/usr/bin/env bash
# Run the Criterion bench suite and commit-ready perf snapshot.
#
# Each benchmark emits one JSON line ({"name", "median_ns", "min_ns",
# "max_ns", "samples"}) into a temp file via the CRITERION_MINI_JSON hook of
# the vendored criterion harness; this script wraps the lines into a single
# JSON document with host metadata and writes BENCH_<hostname>.json at the
# repo root. Committing successive snapshots from the same machine gives a
# perf trajectory across PRs.
#
# With --diff-against FILE the fresh run is additionally compared to the
# committed snapshot FILE: any gated entry (nn_forward/, nn_kernels/,
# decision_latency/, sim_scale/, train_throughput/, serve_latency/,
# serve_scale/, ipc_ring/) whose median regresses by more than
# --max-regress percent (default 25) fails the script. A gated baseline
# entry that the fresh run did not produce, in a group the run did produce
# (a deleted or renamed row), is listed as a warning without changing the
# exit status. The comparison only makes sense between runs on the same
# machine, so it is skipped (with a warning) when
# FILE's host differs from this one — which lets CI wire the invocation
# unconditionally while only dedicated runners enforce it.
#
# Usage:
#   scripts/bench_snapshot.sh                 # full suite
#   scripts/bench_snapshot.sh nn_forward ...  # selected benches
#   scripts/bench_snapshot.sh --diff-against BENCH_vm.json nn_forward
#   scripts/bench_snapshot.sh --diff-against BENCH_vm.json --max-regress 25
#
# The nn benches depend on the kernel backend; set TCRM_KERNEL=scalar|simd
# to pin it (the snapshot records the setting, "auto" when unset).

set -euo pipefail
cd "$(dirname "$0")/.."

DIFF_AGAINST=""
MAX_REGRESS=25
BENCHES=()
while [ $# -gt 0 ]; do
    case "$1" in
        --diff-against)
            [ $# -ge 2 ] || { echo "usage: --diff-against <snapshot.json>" >&2; exit 2; }
            DIFF_AGAINST="$2"
            shift 2
            ;;
        --max-regress)
            [ $# -ge 2 ] || { echo "usage: --max-regress <percent>" >&2; exit 2; }
            MAX_REGRESS="$2"
            shift 2
            ;;
        *)
            BENCHES+=("$1")
            shift
            ;;
    esac
done
if [ ${#BENCHES[@]} -eq 0 ]; then
    BENCHES=(nn_forward training_step train_throughput decision_latency sim_engine sim_scale workload_gen extended_schedulers serve_latency serve_scale ipc_ring)
fi

LINES_FILE="$(mktemp)"
BASELINE_FILE="$(mktemp)"
trap 'rm -f "$LINES_FILE" "$BASELINE_FILE"' EXIT
export CRITERION_MINI_JSON="$LINES_FILE"

# Preserve the baseline before the run: the fresh snapshot overwrites
# BENCH_<host>.json, which is typically the very file being diffed against.
if [ -n "$DIFF_AGAINST" ] && [ -f "$DIFF_AGAINST" ]; then
    cp "$DIFF_AGAINST" "$BASELINE_FILE"
fi

for bench in "${BENCHES[@]}"; do
    echo "== running bench: $bench"
    cargo bench -p tcrm-bench --bench "$bench"
done

HOST="$(hostname -s 2>/dev/null || echo unknown)"
OUT="BENCH_${HOST}.json"
{
    echo '{'
    echo "  \"host\": \"${HOST}\","
    echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"rustc\": \"$(rustc --version)\","
    echo "  \"kernel\": \"${TCRM_KERNEL:-auto}\","
    echo '  "results": ['
    sed 's/^/    /;$!s/$/,/' "$LINES_FILE"
    echo '  ]'
    echo '}'
} > "$OUT"

echo "wrote $OUT ($(grep -c median_ns "$OUT") benchmarks)"

if [ -n "$DIFF_AGAINST" ]; then
    if [ ! -s "$BASELINE_FILE" ]; then
        echo "diff: baseline $DIFF_AGAINST not found, skipping" >&2
        exit 0
    fi
    BASE_HOST="$(sed -n 's/.*"host": "\([^"]*\)".*/\1/p' "$BASELINE_FILE" | head -1)"
    if [ "$BASE_HOST" != "$HOST" ]; then
        echo "diff: baseline host '$BASE_HOST' != this host '$HOST'," \
             "cross-machine medians are not comparable — skipping" >&2
        exit 0
    fi
    # The nn medians also depend on the kernel backend: comparing a scalar
    # run against a simd baseline (or vice versa) would report a bogus
    # "regression" — or mask a real one. Old snapshots without the field
    # predate the backend split and are treated as "auto".
    BASE_KERNEL="$(sed -n 's/.*"kernel": "\([^"]*\)".*/\1/p' "$BASELINE_FILE" | head -1)"
    if [ "${BASE_KERNEL:-auto}" != "${TCRM_KERNEL:-auto}" ]; then
        echo "diff: baseline kernel backend '${BASE_KERNEL:-auto}' !=" \
             "this run's '${TCRM_KERNEL:-auto}' — skipping" >&2
        exit 0
    fi
    echo "== diffing gated medians against $DIFF_AGAINST (fail > ${MAX_REGRESS}%)"
    # Both files hold one {"name":...,"median_ns":...} object per line.
    awk -v max="$MAX_REGRESS" '
        /"name":/ {
            line = $0
            gsub(/.*"name":"/, "", line); name = line; gsub(/".*/, "", name)
            line = $0
            gsub(/.*"median_ns":/, "", line); gsub(/[,}].*/, "", line)
            if (name !~ /^(nn_forward|nn_kernels|decision_latency|sim_scale|train_throughput|serve_latency|serve_scale|ipc_ring)\//) next
            if (NR == FNR) { base[name] = line + 0; order[++nbase] = name; next }
            fresh[name] = 1
            group = name; sub(/\/.*/, "", group); ran[group] = 1
            if (!(name in base) || base[name] <= 0) next
            pct = (line / base[name] - 1) * 100
            printf "  %-55s %12.1f -> %12.1f ns  (%+.1f%%)\n", name, base[name], line, pct
            if (pct > max) { bad++ }
        }
        END {
            for (i = 1; i <= nbase; i++) {
                name = order[i]
                group = name; sub(/\/.*/, "", group)
                if ((group in ran) && !(name in fresh)) {
                    printf "  warning: %s is in the baseline but not in this run\n", name > "/dev/stderr"
                    missing++
                }
            }
            if (missing > 0) {
                printf "warning: %d gated baseline row(s) missing from this run (deleted, renamed or not selected)\n", missing > "/dev/stderr"
            }
            if (bad > 0) { printf "%d benchmark(s) regressed more than %s%%\n", bad, max; exit 1 }
        }
    ' "$BASELINE_FILE" "$OUT"
    echo "diff: no regression beyond ${MAX_REGRESS}%"
fi
