#!/usr/bin/env bash
# Builds the tlsperf benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#	bash tlsperf/run.sh --workload paper-grid --seed 1 --seconds 25 --trace 0
#
# Build outputs and the Go build cache stay under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd tlsperf && go build -o "$out/tlsperf" .)
exec "$out/tlsperf" "$@"
