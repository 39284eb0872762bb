#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the repository root. Everything built or written stays under
# .bench_build/ in the working directory.
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$build/perfbench" .)
"$build/perfbench" prepare
exec "$build/perfbench" "$@"
