#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout:
#
#   bash bench/run.sh --workload echo_steady --seed 1999 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build in the checkout. The build needs the rest of the repository:
# with only bench/ present it fails and no result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off GOWORK=off \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
