#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in and
# runs it with the given arguments.  Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache and the binary) goes
# under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
