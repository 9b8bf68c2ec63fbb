#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the
# repository root; every argument is passed on, for example:
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 30 --trace 0
#
# The Go build cache, module cache and configuration live under
# .bench_build in the working directory, so a run writes nowhere else.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
