#!/bin/sh
# fuzz_short.sh — a short fuzz pass over every fuzzer in the tree, or a
# rotation through them.
#
#     scripts/fuzz_short.sh            # every fuzzer, FUZZTIME each
#     scripts/fuzz_short.sh 1234       # fuzzer number 1234 mod N only
#
# The fuzzers are discovered (go test -list), not listed here, so a new
# Fuzz function joins the rotation by existing. CI passes its run number:
# each push fuzzes one boundary for FUZZTIME, and a week of pushes has
# been round all of them; `make fuzz` with no index runs the lot.
# Minimizing a new finding is capped well below go's default minute,
# which would otherwise eat the whole budget on the multi-kilobyte
# snapshot seeds.
set -eu
cd "$(dirname "$0")/.."
GO="${GO:-go}"
FUZZTIME="${FUZZTIME:-30s}"

targets=$("$GO" test -list '^Fuzz' ./... | awk '
    /^Fuzz/ { names[n++] = $1 }
    /^ok/   { for (i = 0; i < n; i++) print $2, names[i]; n = 0 }')
count=$(printf '%s\n' "$targets" | grep -c .)
[ "$count" -gt 0 ] || { echo "fuzz-short: no fuzzers found" >&2; exit 1; }

if [ $# -gt 0 ]; then
    pick=$(( $1 % count + 1 ))
    targets=$(printf '%s\n' "$targets" | sed -n "${pick}p")
    echo "fuzz-short: run $1 picks fuzzer $pick of $count"
fi

printf '%s\n' "$targets" | while read -r pkg name; do
    echo "fuzz-short: $name ($pkg) for $FUZZTIME"
    "$GO" test -run '^$' -fuzz "^$name\$" -fuzztime "$FUZZTIME" -fuzzminimizetime 5s "$pkg"
done
