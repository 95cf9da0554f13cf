#!/usr/bin/env bash
# Builds the P2G benchmark from source and runs it; every argument is passed
# through (see main.go for the flags). Run from the repository root:
#
#	bash perfbench/run.sh --workload kmeans --seed 1 --seconds 10 --trace 0
#
# Build cache and binary live in .bench_build/ under the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/p2gperf" .)
exec "$out/p2gperf" "$@"
