#!/usr/bin/env bash
# Non-test Go lines outside benchmark/ — the count ROADMAP.md and the
# "net-negative" lines of CHANGES.md quote — per top-level package and in
# total, so a simplification PR's claim is reproducible. Given a git ref
# (`scripts/loc.sh HEAD~1`, or the PR base in CI) it also prints each
# package's count at that ref and the delta, reading the ref's files out of
# the object store — nothing is checked out. Report only; nothing gates on it.
set -euo pipefail
cd "$(dirname "$0")/.."
base=${1:-}

# "path lines" for every counted file: of the working tree, or of a ref.
here() {
  find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | sed 's|^\./||' |
    while read -r f; do echo "$f $(wc -l < "$f")"; done
}
at() {
  git ls-tree -r --name-only "$1" | grep '\.go$' | grep -v '_test\.go$' | grep -v '^benchmark/' |
    while read -r f; do echo "$f $(git show "$1:$f" | wc -l)"; done
}

# extract.go -> "."; internal/remote/wire.go -> "internal/remote";
# xmltree/node.go -> "xmltree".
{
  here | sed 's/^/now /'
  if [ -n "$base" ]; then at "$base" | sed 's/^/base /'; fi
} | awk -v base="$base" '
  {
    n = split($2, p, "/")
    if (n == 1) pkg = "."
    else if (p[1] == "internal" || p[1] == "cmd" || p[1] == "examples") pkg = p[1] "/" p[2]
    else pkg = p[1]
    seen[pkg]; lines[$1, pkg] += $3; lines[$1, "total"] += $3
  }
  function row(name,    now, was) {
    now = lines["now", name]; was = lines["base", name]
    if (base == "") return sprintf("%7d %s", now, name)
    return sprintf("%7d %7d %+6d %s", now, was, now - was, name)
  }
  END {
    if (base != "") printf "%7s %7s %6s\n", "now", base, "delta"
    sorter = "sort -k" (base == "" ? 2 : 4)
    for (pkg in seen) print row(pkg) | sorter
    close(sorter)
    print row("total")
  }'
