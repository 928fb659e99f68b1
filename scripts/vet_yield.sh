#!/usr/bin/env sh
# vet_yield.sh — what prionnvet says about past trees of this repo.
#
# Builds prionnvet from this checkout, then for each commit: extracts
# the commit's tree with `git archive` into a temporary directory,
# neutralises every //prionnvet:ignore outside testdata/ (so each count
# is what a checker says about the code, not what a directive waved
# through), and runs `prionnvet -json ./...` there. Prints one matrix:
# a column per commit, a row per registered check, and under each check
# a row per message rule — the message's first clause with the names
# of the flagged code replaced by X. DESIGN.md §6's yield table is this
# script's output.
#
# Usage: sh scripts/vet_yield.sh <commit>...

set -eu

if [ $# -eq 0 ]; then
    echo "usage: sh scripts/vet_yield.sh <commit>..." >&2
    exit 2
fi

cd "$(dirname "$0")/.."
repo=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/prionnvet" ./cmd/prionnvet
checks=$("$tmp/prionnvet" -list | awk '{print $1}')

commits=
for c in "$@"; do
    short=$(git rev-parse --short=7 "$c^{commit}")
    commits="$commits $short"
    tree="$tmp/tree-$short"
    mkdir "$tree"
    git archive "$short" | tar -x -C "$tree"
    find "$tree" -name '*.go' ! -path '*/testdata/*' -exec grep -l 'prionnvet:ignore' {} + 2>/dev/null |
        while read -r f; do
            sed 's/prionnvet:ignore/prionnvet-neutralised/g' "$f" >"$f.tmp"
            mv "$f.tmp" "$f"
        done
    status=0
    (cd "$tree" && "$tmp/prionnvet" -json ./...) >"$tmp/out.json" 2>"$tmp/err" || status=$?
    if [ "$status" -gt 1 ]; then
        echo "vet_yield: prionnvet failed on $short:" >&2
        cat "$tmp/err" >&2
        exit 1
    fi
    # One "commit<TAB>check<TAB>rule" line per finding. In the indented
    # JSON each finding's "check" line precedes its "message" line.
    awk -v c="$short" '
        /^ *"check": "/ { k = $0; sub(/^ *"check": "/, "", k); sub(/",?$/, "", k) }
        /^ *"message": "/ {
            m = $0; sub(/^ *"message": "/, "", m); sub(/",?$/, "", m)
            sub(/;.*/, "", m)
            if (m ~ /^(call|defer|go) of /) sub(/ of [^ ]+ /, " of X ", m)
            sub(/^[^ ]+ emits /, "X emits ", m)
            if (sub(/^[^ ]+ writes package-level var [^ ]+ /, "", m)) m = "X writes package-level var X " m
            if (match(m, /(stored into|appended to) /)) m = substr(m, 1, RSTART + RLENGTH - 1) "X"
            print c "\t" k "\t" m
        }
    ' "$tmp/out.json" >>"$tmp/rows"
done
touch "$tmp/rows"

# Rows: each registered check in -list order, then any other check that
# fired; under each, its rules sorted.
{
    printf '%s\n' "$checks"
    cut -f2 "$tmp/rows" | sort -u
} | awk '!seen[$0]++' >"$tmp/checks"
cut -f2,3 "$tmp/rows" | sort -u >"$tmp/rules"

awk -F '\t' -v commits="$commits" '
    FILENAME == ARGV[1] { n[$1 FS $2]++; r[$1 FS $2 FS $3]++; next }
    FILENAME == ARGV[2] { rules[$1] = rules[$1] $2 "\n"; next }
    FNR == 1 {
        nc = split(commits, cs, " ")
        for (i = 1; i <= nc; i++) printf "%8s", cs[i]
        print "  check / rule"
    }
    {
        for (i = 1; i <= nc; i++) printf "%8d", n[cs[i] FS $1]
        print "  " $1
        nr = split(rules[$1], rs, "\n")
        for (j = 1; j < nr; j++) {
            for (i = 1; i <= nc; i++) printf "%8d", r[cs[i] FS $1 FS rs[j]]
            print "    " rs[j]
        }
    }
' "$tmp/rows" "$tmp/rules" "$tmp/checks"
