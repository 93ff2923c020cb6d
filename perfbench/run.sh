#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload mcb --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the benchmark's on-disk records stay
# under .bench_build. The build records the commit only when the checkout
# is itself a git repository.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
vcs=false
if [ -e "$root/.git" ]; then vcs=auto; fi
(cd "$root/perfbench" && go build -buildvcs="$vcs" -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
