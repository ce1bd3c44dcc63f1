#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash benchmark/run.sh --workload serve_mem --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temporary files and the binary under .bench_build/, traces and
# journals under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/pythia-benchmark" .)
cd "$root"
exec "$build/pythia-benchmark" "$@"
