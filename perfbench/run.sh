#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay-steady --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write (Go build cache, binary, the ccfd
# state directories) stays under .bench_build/ in the current directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
