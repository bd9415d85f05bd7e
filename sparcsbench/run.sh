#!/usr/bin/env bash
# Builds the request-level sparcsd benchmark from the source tree it sits in
# and runs it with the given arguments, e.g.
#
#   bash sparcsbench/run.sh --workload hot_repeat --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file the build writes (Go build
# cache, module cache, toolchain config) and the span files of traced runs
# stay under .bench_build/ in the working directory. The benchmark's own
# tests (checker, teardown with a solve that never returns):
#
#   (cd sparcsbench && go test ./...)
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/sparcsbench" .)
exec "$out/sparcsbench" "$@"
