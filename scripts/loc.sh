#!/usr/bin/env bash
# Non-test Go lines outside benchmark/ — the count ROADMAP.md and the
# "net-negative" lines of CHANGES.md quote — per top-level package and in
# total, so a simplification PR's claim is reproducible: run it at the
# parent commit and at the change and subtract. Report only; nothing gates
# on it.
set -euo pipefail
cd "$(dirname "$0")/.."

files() {
  find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*'
}

# ./extract.go -> "."; ./internal/remote/wire.go -> "internal/remote";
# ./xmltree/node.go -> "xmltree".
files | while read -r f; do
  pkg=$(echo "$f" | awk -F/ '{ if (NF == 2) print "."; else if ($2 == "internal" || $2 == "cmd" || $2 == "examples") print $2 "/" $3; else print $2 }')
  echo "$pkg $(wc -l < "$f")"
done | awk '{ n[$1] += $2 } END { for (p in n) printf "%7d %s\n", n[p], p }' | sort -k2

printf '%7d total\n' "$(files | xargs cat | wc -l)"
