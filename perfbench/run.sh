#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload plan --seed 1 --seconds 30 --trace 0
#
# `bash perfbench/run.sh test` instead vets and tests the benchmark itself.
#
# Every file the toolchain or the benchmark writes (build cache, binary,
# CPU profiles, span dumps) stays under perfbench/, so a run leaves the
# rest of the checkout untouched. Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cache="$here/.cache"
export GOCACHE="$cache/go-build" GOMODCACHE="$cache/mod" GOPATH="$cache/gopath" \
	GOTMPDIR="$cache/tmp" XDG_CONFIG_HOME="$cache/config" PPROF_TMPDIR="$cache/pprof" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off
mkdir -p "$GOTMPDIR" "$here/.build"
cd "$here"
if [[ "${1:-}" == test ]]; then
	shift
	exec go test "$@" .
fi
go build -o "$here/.build/perfbench" . >&2
exec "$here/.build/perfbench" -root "$root" -out "$here/.out" "$@"
