#!/usr/bin/env bash
# A/B the repository benchmark: a base revision against the working tree.
#
# Builds the perfbench binary of <rev> in a git worktree under
# target/perfbench-ab/ and the working tree's next to it, then, for each
# workload of the comma-separated <workloads> list, runs one measurement of
# each side per seed, for the `pairs` seeds starting at first-seed
# (default 1), alternating which side runs first from pair to pair.
# Passing a first-seed past the seeds used while developing a change
# confirms a claim on held-out seeds. For every workload and every
# end-to-end metric BENCHMARK.json declares it prints the per-pair ratio
# (working tree / rev), each side's median and quartiles, and how many pairs
# the working tree won (ties count for neither side). A metric reads
# "gain" when at least ten pairs ran, the working tree won at least nine
# tenths of them, and the medians differ by more than the distance between
# the quartiles of <rev>'s runs; it reads "worse" under the same rule with
# the sides swapped (<rev> won at least nine tenths of the pairs). The
# script exits non-zero when any metric reads "worse" or any run reports a
# failed benchmark check. The worktree is kept for later runs; remove it
# with `git worktree remove target/perfbench-ab/tree-<sha>`.
#
# Files under perfbench/ are left as they are: the lock file cargo may
# rewrite while building the working tree is restored afterwards.
#
# Usage:
#   scripts/perfbench_ab.sh <rev> <workloads> [pairs] [seconds] [first-seed]
#   scripts/perfbench_ab.sh HEAD~1 engine_dense 10 20
#   scripts/perfbench_ab.sh HEAD~1 engine_dense 10 20 11   # seeds 11..20
#   scripts/perfbench_ab.sh HEAD~1 engine_dense,serve_overload,sweep_main,train_ppo 10 20
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <rev> <workloads> [pairs] [seconds] [first-seed]" >&2
    exit 2
fi
REV="$1"
WORKLOADS="$2"
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

# One measurement; appends "<workload> <side> <seed> <json>" to the results
# file.
measure() {
    local workload="$1" side="$2" bin="$3" seed="$4" line
    line="$("$bin" --workload "$workload" --seed "$seed" --seconds "$SECONDS_PER_RUN" \
        --trace 0 | tail -n 1)"
    echo "$workload $side $seed $line" >>"$RESULTS"
}
for workload in ${WORKLOADS//,/ }; do
    for pair in $(seq 1 "$PAIRS"); do
        seed=$((FIRST_SEED + pair - 1))
        if [ $((pair % 2)) -eq 1 ]; then
            order="rev work"
        else
            order="work rev"
        fi
        echo "== $workload pair $pair/$PAIRS, seed $seed ($order)" >&2
        for side in $order; do
            if [ "$side" = rev ]; then
                measure "$workload" rev "$BIN_REV" "$seed"
            else
                measure "$workload" work "$BIN_WORK" "$seed"
            fi
        done
    done
done

python3 - "$RESULTS" BENCHMARK.json "$REV" <<'EOF'
import json
import statistics
import sys

results_path, benchmark_path, rev = sys.argv[1:4]
runs = {}
failed = 0
for line in open(results_path):
    workload, side, seed, payload = line.split(" ", 3)
    result = json.loads(payload)
    failed += result["failed"]
    runs.setdefault(workload, {"rev": {}, "work": {}})[side][int(seed)] = result["metrics"]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


worse = 0
for workload, sides in runs.items():
    seeds = sorted(set(sides["rev"]) & set(sides["work"]))
    print(f"{workload}: {len(seeds)} pairs, ratio = working tree / {rev}")
    for metric in json.load(open(benchmark_path))["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = [
            (sides["rev"][s][name]["value"], sides["work"][s][name]["value"])
            for s in seeds
            if name in sides["rev"][s] and name in sides["work"][s]
        ]
        if not pairs:
            continue
        ratios = [w / r if r else float("nan") for r, w in pairs]
        wins = sum((w > r) if higher else (w < r) for r, w in pairs)
        losses = sum((w < r) if higher else (w > r) for r, w in pairs)
        rq1, rmed, rq3 = quartiles([r for r, _ in pairs])
        wq1, wmed, wq3 = quartiles([w for _, w in pairs])
        clear = len(pairs) >= 10 and abs(wmed - rmed) > rq3 - rq1
        label = ""
        if clear and wins * 10 >= 9 * len(pairs):
            label = "  -> gain"
        elif clear and losses * 10 >= 9 * len(pairs):
            label = "  -> worse"
            worse += 1
        print(f"  {name} ({metric['unit']}, {metric['better']} is better)")
        print("    ratios " + " ".join(f"{x:.3f}" for x in ratios))
        print(f"    {rev}: median {rmed:.6g}  quartiles {rq1:.6g} .. {rq3:.6g}")
        print(f"    working tree: median {wmed:.6g}  quartiles {wq1:.6g} .. {wq3:.6g}")
        print(f"    wins {wins}/{len(pairs)}  losses {losses}/{len(pairs)}"
              f"  median ratio {statistics.median(ratios):.3f}" + label)
print(f"failed checks: {failed}")
print(f"worse metrics: {worse}")
sys.exit(1 if failed or worse else 0)
EOF
