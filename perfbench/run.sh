#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload tpch-local --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build/ inside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
