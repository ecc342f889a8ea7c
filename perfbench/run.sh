#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload reformulate --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# root (or under $CARGO_TARGET_DIR when that is set): the Go build cache,
# the binary, the cluster state of the run, and a traced run's spans.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/run.sh" ]]; then
  echo "perfbench: run from the repository root" >&2
  exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --workdir "$build/run" "$@"
