#!/usr/bin/env bash
# Builds the perfbench benchmark from this checkout's sources and runs
# it; every argument is passed through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fleet-cold --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the Go tool's own state stay under
# .bench_build/ in the checkout; traced runs write spans to .bench_out/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$XDG_CONFIG_HOME"

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
