#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_warm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory,
# $CARGO_TARGET_DIR when set (relative to the root), else .bench_build: the
# compiled binary, Go's build cache and temporary files, and the span files
# of traced runs.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
dir="$build/perfbench"
mkdir -p "$dir/tmp"

export GOCACHE="$dir/gocache"
export GOTMPDIR="$dir/tmp"
export TMPDIR="$dir/tmp"
export GOPATH="$dir/gopath"
export GOMODCACHE="$dir/gopath/pkg/mod"
export XDG_CONFIG_HOME="$dir/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$root/perfbench" build -o "$dir/perfbench" . >&2
exec "$dir/perfbench" --out "$dir/out" "$@"
