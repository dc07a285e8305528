#!/usr/bin/env bash
# Builds the harness from source and runs it. Everything the build and
# the run write stays inside the checkout: the Go build cache and the
# binary under .bench_build/, results and traces under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -out "$here/out" "$@"
