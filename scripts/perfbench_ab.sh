#!/usr/bin/env bash
# A/B the repository benchmark: a base revision against the working tree.
#
# Builds the perfbench binary of <rev> in a git worktree under
# target/perfbench-ab/ and the working tree's next to it, then runs one
# <workload> measurement of each per seed, for the `pairs` seeds starting at
# first-seed (default 1), alternating which side runs first from pair to
# pair. Passing a first-seed past the seeds used while developing a change
# confirms a claim on held-out seeds. For every end-to-end metric
# BENCHMARK.json declares it prints the per-pair ratio (working tree / rev),
# each side's median and quartiles, and how many pairs the working tree won
# (ties count for neither side). A metric reads "gain" only when at least
# ten pairs ran, the working tree won at least nine tenths of them, and the
# medians differ by more than the distance between the quartiles of <rev>'s
# runs; a run with a failed benchmark check is reported and makes the
# script exit non-zero. The worktree is kept for later runs; remove it with
# `git worktree remove target/perfbench-ab/tree-<sha>`.
#
# Files under perfbench/ are left as they are: the lock file cargo may
# rewrite while building the working tree is restored afterwards.
#
# Usage:
#   scripts/perfbench_ab.sh <rev> <workload> [pairs] [seconds] [first-seed]
#   scripts/perfbench_ab.sh HEAD~1 engine_dense 10 20
#   scripts/perfbench_ab.sh HEAD~1 engine_dense 10 20 11   # seeds 11..20
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <rev> <workload> [pairs] [seconds] [first-seed]" >&2
    exit 2
fi
REV="$1"
WORKLOAD="$2"
PAIRS="${3:-10}"
SECONDS_PER_RUN="${4:-20}"
FIRST_SEED="${5:-1}"

cd "$(git rev-parse --show-toplevel)"
SHA="$(git rev-parse --verify --quiet "$REV^{commit}")" || {
    echo "perfbench_ab: unknown revision '$REV'" >&2
    exit 2
}
AB_DIR="target/perfbench-ab"
TREE="$AB_DIR/tree-$SHA"
mkdir -p "$AB_DIR"
if [ ! -d "$TREE" ]; then
    git worktree add --detach "$TREE" "$SHA" >/dev/null
fi

LOCK_BACKUP="$(mktemp)"
RESULTS="$(mktemp)"
cp perfbench/Cargo.lock "$LOCK_BACKUP"
trap 'cp "$LOCK_BACKUP" perfbench/Cargo.lock; rm -f "$LOCK_BACKUP" "$RESULTS"' EXIT

build() {
    local manifest="$1" target_dir="$2"
    cargo build --release --quiet --offline --manifest-path "$manifest" \
        --target-dir "$target_dir" >&2
}
echo "== building $REV ($SHA) and the working tree" >&2
build "$TREE/perfbench/Cargo.toml" "$AB_DIR/target-rev"
build perfbench/Cargo.toml "$AB_DIR/target-work"
BIN_REV="$AB_DIR/target-rev/release/tcrm-perfbench"
BIN_WORK="$AB_DIR/target-work/release/tcrm-perfbench"

# One measurement; appends "<side> <seed> <json>" to the results file.
measure() {
    local side="$1" bin="$2" seed="$3" line
    line="$("$bin" --workload "$WORKLOAD" --seed "$seed" --seconds "$SECONDS_PER_RUN" \
        --trace 0 | tail -n 1)"
    echo "$side $seed $line" >>"$RESULTS"
}
for pair in $(seq 1 "$PAIRS"); do
    seed=$((FIRST_SEED + pair - 1))
    if [ $((pair % 2)) -eq 1 ]; then
        order="rev work"
    else
        order="work rev"
    fi
    echo "== pair $pair/$PAIRS, seed $seed ($order)" >&2
    for side in $order; do
        if [ "$side" = rev ]; then
            measure rev "$BIN_REV" "$seed"
        else
            measure work "$BIN_WORK" "$seed"
        fi
    done
done

python3 - "$RESULTS" BENCHMARK.json "$REV" "$WORKLOAD" <<'EOF'
import json
import statistics
import sys

results_path, benchmark_path, rev, workload = sys.argv[1:5]
runs = {"rev": {}, "work": {}}
failed = 0
for line in open(results_path):
    side, seed, payload = line.split(" ", 2)
    result = json.loads(payload)
    failed += result["failed"]
    runs[side][int(seed)] = result["metrics"]
seeds = sorted(set(runs["rev"]) & set(runs["work"]))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


print(f"{workload}: {len(seeds)} pairs, ratio = working tree / {rev}")
for metric in json.load(open(benchmark_path))["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    pairs = [
        (runs["rev"][s][name]["value"], runs["work"][s][name]["value"])
        for s in seeds
        if name in runs["rev"][s] and name in runs["work"][s]
    ]
    if not pairs:
        continue
    ratios = [w / r if r else float("nan") for r, w in pairs]
    wins = sum((w > r) if higher else (w < r) for r, w in pairs)
    rq1, rmed, rq3 = quartiles([r for r, _ in pairs])
    wq1, wmed, wq3 = quartiles([w for _, w in pairs])
    gain = (
        len(pairs) >= 10
        and wins * 10 >= 9 * len(pairs)
        and abs(wmed - rmed) > rq3 - rq1
    )
    print(f"  {name} ({metric['unit']}, {metric['better']} is better)")
    print("    ratios " + " ".join(f"{x:.3f}" for x in ratios))
    print(f"    {rev}: median {rmed:.6g}  quartiles {rq1:.6g} .. {rq3:.6g}")
    print(f"    working tree: median {wmed:.6g}  quartiles {wq1:.6g} .. {wq3:.6g}")
    print(f"    wins {wins}/{len(pairs)}  median ratio {statistics.median(ratios):.3f}"
          + ("  -> gain" if gain else ""))
print(f"  failed checks: {failed}")
sys.exit(1 if failed else 0)
EOF
