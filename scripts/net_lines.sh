#!/usr/bin/env bash
# Count the net change in Rust source lines against a base revision.
#
# For every `.rs` file that differs between <base-rev> and the working tree
# (vendor/ and target/ excluded), print its line counts before and after,
# and the net change, in one of five buckets:
#
#   src        library code: the lines of a file under src/ before its first
#              top-level `#[cfg(test)]` (the whole file when it has none)
#   src-test   the inline unit tests: that line and everything after it
#   tests      integration tests (any tests/ directory)
#   benches    benchmarks (any benches/ directory)
#   examples   examples/ and perfbench/
#
# Files outside those directories (e.g. build.rs) count as `src`. The
# per-bucket totals and the overall total follow the per-file rows.
#
# Usage:
#   scripts/net_lines.sh                        # against HEAD~1
#   scripts/net_lines.sh main                   # against another revision
#   scripts/net_lines.sh HEAD~1 crates/rl/src   # only files under a path
set -euo pipefail

base="${1:-HEAD~1}"
shift || true
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
    echo "net_lines: unknown revision '$base'" >&2
    exit 2
}

bucket_of() {
    case "$1" in
        perfbench/* | examples/* | */examples/*) echo examples ;;
        tests/* | */tests/*) echo tests ;;
        benches/* | */benches/*) echo benches ;;
        *) echo src ;;
    esac
}

# Print "<lines before the first top-level #[cfg(test)]> <lines from it on>"
# for the text on stdin.
split_counts() {
    awk 'BEGIN { pre = 0; post = 0; in_test = 0 }
         /^#\[cfg\(test\)\]/ { in_test = 1 }
         { if (in_test) post++; else pre++ }
         END { print pre, post }'
}

# Line counts of <file> at <rev> ("" = working tree) as "<pre> <post>".
counts() {
    local rev="$1" file="$2"
    if [[ -z "$rev" ]]; then
        if [[ -f "$file" ]]; then split_counts <"$file"; else echo 0 0; fi
    elif git cat-file -e "$rev:$file" 2>/dev/null; then
        git show "$rev:$file" | split_counts
    else
        echo 0 0
    fi
}

declare -A before after
buckets=(src src-test tests benches examples)
for b in "${buckets[@]}"; do
    before[$b]=0
    after[$b]=0
done

row() {
    printf '%-9s %7s %7s %7s  %s\n' "$@"
}

row bucket before after net file
mapfile -t files < <(
    {
        git diff --no-renames --name-only "$base" -- "$@"
        git ls-files --others --exclude-standard -- "$@"
    } | grep '\.rs$' | grep -v -e '^vendor/' -e '^target/' -e '/target/' | sort -u
)
for file in "${files[@]}"; do
    read -r b_pre b_post < <(counts "$base" "$file")
    read -r a_pre a_post < <(counts "" "$file")
    bucket="$(bucket_of "$file")"
    if [[ "$bucket" == src ]]; then
        parts=("src $b_pre $a_pre" "src-test $b_post $a_post")
    else
        parts=("$bucket $((b_pre + b_post)) $((a_pre + a_post))")
    fi
    for part in "${parts[@]}"; do
        read -r name old new <<<"$part"
        [[ "$old" -eq 0 && "$new" -eq 0 ]] && continue
        before[$name]=$((before[$name] + old))
        after[$name]=$((after[$name] + new))
        row "$name" "$old" "$new" "$((new - old))" "$file"
    done
done

echo
total_before=0
total_after=0
for b in "${buckets[@]}"; do
    row "$b" "${before[$b]}" "${after[$b]}" "$((after[$b] - before[$b]))" "(total)"
    total_before=$((total_before + before[$b]))
    total_after=$((total_after + after[$b]))
done
row all "$total_before" "$total_after" "$((total_after - total_before))" "(total vs $base)"
