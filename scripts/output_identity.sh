#!/usr/bin/env bash
# Check that the experiment driver's outputs are byte-identical between a
# base revision and the working tree.
#
# Builds the `expdriver` binary of <rev> in a git worktree under
# target/output-identity/ (the way scripts/perfbench_ab.sh builds its base)
# and the working tree's, then runs with each binary, in its own directory
# and with the same relative paths (checkpoint fingerprints hash the replay
# trace's path):
#
#   * `table1 summary fig5 fig10 --quick` (fig5 writes the utilisation
#     trace);
#   * `table2 summary fig5 fig10 --full` (about 20 s per side on a 2-vCPU
#     VM): the paper-scale runs reach states the quick ones do not — a
#     change can leave every quick file identical and still move full-mode
#     DRL rows;
#   * the CI sweep grid: `record-trace`, then `sweep` over edf and fifo on
#     poisson, poisson+burst(3x) and the recorded replay trace;
#   * the CI `serve` run, writing its event log and report. Its queue
#     never fills (the deepest is 7 of 16), so it sheds nothing; the same
#     run with `--queue-cap 4` is repeated under each shed policy
#     (`reject-latest-deadline`, `degrade-to-rigid`, `reject-newest`),
#     each into its own files: the three cancel, degrade and re-admit
#     queued jobs through different engine paths.
#
# It then `cmp`s every output file of one side against the other's, after
# checking that each of those three runs took its path: a run that never
# sheds or degrades a job would compare nothing of it.
# `table4` is not run: it reports wall-clock decision latencies, which
# differ from run to run.
#
# Exit status: 0 when every file is identical, 1 when any file differs or
# exists on one side only, anything else when a build or a run failed.
# The worktree is kept for later runs; remove it with
# `git worktree remove target/output-identity/tree-<sha>`.
#
# Usage:
#   scripts/output_identity.sh <rev>
#   scripts/output_identity.sh HEAD~1
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
REV="$1"

cd "$(git rev-parse --show-toplevel)"
SHA="$(git rev-parse --verify --quiet "$REV^{commit}")" || {
    echo "output_identity: unknown revision '$REV'" >&2
    exit 2
}
DIR="target/output-identity"
TREE="$DIR/tree-$SHA"
mkdir -p "$DIR"
if [ ! -d "$TREE" ]; then
    git worktree add --detach "$TREE" "$SHA" >/dev/null
fi

build() {
    local manifest="$1" target_dir="$2"
    cargo build --release --quiet --offline --manifest-path "$manifest" \
        --target-dir "$target_dir" -p tcrm-bench --bin expdriver >&2
}
echo "== building $REV ($SHA) and the working tree" >&2
build "$TREE/Cargo.toml" "$DIR/target-rev"
build Cargo.toml target
BIN_REV="$PWD/$DIR/target-rev/release/expdriver"
BIN_WORK="$PWD/target/release/expdriver"

# Every run of one side, in the current directory.
runs() {
    local exp="$1"
    local grid=(--policies edf,fifo
        --scenarios "poisson;poisson+burst(3x);replay(out/trace.json)"
        --loads 0.9 --jobs 40 --seeds 1,2)
    "$exp" table1 summary fig5 fig10 --quick --out out/quick
    "$exp" table2 summary fig5 fig10 --full --out out/full
    "$exp" record-trace --out out/trace.json --jobs 40 --load 0.9 --seed 7
    "$exp" sweep "${grid[@]}" --checkpoint out/grid.json --csv out/grid.csv
    local serve=(serve --policy edf --scenario "poisson+overload(2x,60s)" --jobs 150
        --producers 6 --seed 11)
    "$exp" "${serve[@]}" --queue-cap 16 --shed reject-latest-deadline \
        --event-log out/serve.log --report out/serve.md
    local shed
    for shed in reject-latest-deadline degrade-to-rigid reject-newest; do
        "$exp" "${serve[@]}" --queue-cap 4 --shed "$shed" \
            --event-log "out/serve-$shed.log" --report "out/serve-$shed.md"
    done
}

RUNS="$DIR/runs"
rm -rf "$RUNS"
for side in rev work; do
    mkdir -p "$RUNS/$side"
    if [ "$side" = rev ]; then bin="$BIN_REV"; else bin="$BIN_WORK"; fi
    echo "== running $side" >&2
    (cd "$RUNS/$side" && runs "$bin" >/dev/null)
done

for side in rev work; do
    for check in "reject-latest-deadline:shed job=" "degrade-to-rigid:degrade job=" \
        "reject-newest:shed job="; do
        if ! grep -q "${check#*:}" "$RUNS/$side/out/serve-${check%%:*}.log"; then
            echo "output_identity: the $side ${check%%:*} serve run has no '${check#*:}' event" >&2
            exit 2
        fi
    done
done

differ=0
compared=0
while IFS= read -r file; do
    if [ ! -f "$RUNS/rev/$file" ] || [ ! -f "$RUNS/work/$file" ]; then
        echo "only on one side: $file"
        differ=1
    elif ! cmp -s "$RUNS/rev/$file" "$RUNS/work/$file"; then
        echo "differs: $file"
        differ=1
    fi
    compared=$((compared + 1))
done < <(cd "$RUNS" && { (cd rev && find . -type f); (cd work && find . -type f); } | sort -u)

if [ "$differ" -ne 0 ]; then
    echo "output_identity: outputs differ from $REV ($compared files compared)"
    exit 1
fi
echo "output_identity: all $compared files identical to $REV"
