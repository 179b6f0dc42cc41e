#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root. Every build artefact stays under .bench_build/ in the current
# directory, so a checkout is measured without writing outside it.
set -euo pipefail
out="$PWD/.bench_build/simbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C simbench build -o "$out/simbench" .
exec "$out/simbench" "$@"
