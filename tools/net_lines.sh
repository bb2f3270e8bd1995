#!/usr/bin/env bash
# Added, removed and net lines per top-level directory between a base
# ref and the working tree, from `git diff --numstat`. Files at the repo
# root are grouped under ".". Binary files are skipped.
#
#   tools/net_lines.sh <base-ref>
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi

git diff --numstat "$1" -- | awk -F'\t' '
  $1 == "-" { next }
  {
    path = $3
    # Renames print as "dir/{old => new}" or "old => new"; count the new side.
    sub(/\{[^}]* => /, "", path); sub(/\}/, "", path); sub(/^.* => /, "", path)
    n = split(path, parts, "/")
    dir = (n > 1) ? parts[1] : "."
    added[dir] += $1; removed[dir] += $2
    total_added += $1; total_removed += $2
  }
  END {
    printf "%-12s %8s %8s %8s\n", "dir", "added", "removed", "net"
    for (d in added) {
      printf "%-12s %8d %8d %+8d\n", d, added[d], removed[d],
             added[d] - removed[d] | "sort"
    }
    close("sort")
    printf "%-12s %8d %8d %+8d\n", "total", total_added, total_removed,
           total_added - total_removed
  }'
