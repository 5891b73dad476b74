#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash benchmark/run.sh --workload deep --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, inputs,
# checkpoints, trace reports) lands under .bench_build/ at the repository
# root. The Go toolchain must be on PATH; nothing is downloaded.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C benchmark build -o "$out/mhmgo-benchmark" .
exec "$out/mhmgo-benchmark" -workdir "$out/work" "$@"
