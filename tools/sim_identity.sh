#!/usr/bin/env bash
# Checks that a change leaves every simulated perfbench metric identical:
# builds perfbench_harness (Release, as perfbench/run.py does) once from
# <base-ref>, checked out in a temporary git worktree, and once from the
# working tree, runs the two simulated workloads (geo-adapt, shard-mix)
# at every seed on both builds, and compares the result JSON key by key.
#
#   tools/sim_identity.sh <base-ref> [seeds...]     (default seeds: 1000 1001 1002)
#
# Prints one line per (workload, seed) and every differing key. Exits 0
# when nothing differs, 1 on any difference or failed run, 2 on bad usage.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <base-ref> [seeds...]" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
  echo "$0: unknown ref '$1'" >&2
  exit 2
}
shift
seeds=("$@")
[[ ${#seeds[@]} -gt 0 ]] || seeds=(1000 1001 1002)

work=$(mktemp -d -t sim_identity.XXXXXX)
cleanup() {
  git -C "$root" worktree remove --force "$work/src" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --detach --quiet "$work/src" "$base"

jobs=$(nproc 2>/dev/null || echo 1)
((jobs > 4)) && jobs=4
generator=()
command -v ninja >/dev/null && generator=(-G Ninja)
build() {  # <source root> <build dir>
  echo "building perfbench_harness from $1" >&2
  cmake -S "$1/perfbench" -B "$2" -DCMAKE_BUILD_TYPE=Release \
    "${generator[@]}" >/dev/null
  cmake --build "$2" -j "$jobs" --target perfbench_harness >/dev/null
}
build "$work/src" "$work/base"
build "$root" "$work/head"

status=0
for workload in geo-adapt shard-mix; do
  for seed in "${seeds[@]}"; do
    for side in base head; do
      "$work/$side/perfbench_harness" --workload "$workload" --seed "$seed" \
        --trace 0 2>/dev/null | tail -n 1 >"$work/$side.json" || true
    done
    python3 - "$work/base.json" "$work/head.json" "$workload $seed" <<'EOF' || status=1
import json
import sys

# Keys that differ between two runs of the same commit (found by running
# this script with the working tree at <base-ref>): they measure the
# machine, not the simulated protocol. Everything else must match exactly.
WALL_CLOCK = {
    "metrics.setup_s",        # wall time to build and preload the deployment
    "metrics.api.build_s",    # wall time of the builder alone
    "metrics.api.preload_s",  # wall time of the preload writes
    "metrics.cpu_per_op_us",  # process CPU time per op
    "metrics.peak_rss_mb",    # allocator and page-cache state
}

def flatten(obj, prefix=""):
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(flatten(v, f"{prefix}{k}."))
        return out
    return {prefix[:-1]: obj}

label = sys.argv[3]
try:
    base, head = (flatten(json.load(open(p))) for p in sys.argv[1:3])
except (OSError, json.JSONDecodeError):
    print(f"{label}: FAILED (a run produced no result)")
    sys.exit(1)
diffs = [k for k in sorted(base.keys() | head.keys())
         if k not in WALL_CLOCK and base.get(k) != head.get(k)]
print(f"{label}: {'identical' if not diffs else f'{len(diffs)} keys differ'}")
for k in diffs:
    print(f"  {k}: {base.get(k)!r} -> {head.get(k)!r}")
sys.exit(1 if diffs else 0)
EOF
  done
done
exit "$status"
