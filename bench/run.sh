#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. The build
# cache and the binary stay inside the checkout (.bench_build/), so the first
# run in a fresh checkout pays for compiling the standard library too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/duet-bench" .)
exec "$out/duet-bench" "$@"
