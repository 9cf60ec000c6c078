#!/usr/bin/env bash
# Builds svcbench from source and runs it. Run from the repository
# root:
#
#   bash svcbench/run.sh --workload hot-cluster --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the binary, the Go build cache, and the
# campaign-jobs state directories.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off
export GOPROXY=off
export CGO_ENABLED=0

(cd "$root/svcbench" && go build -o "$out/svcbench" .)
exec "$out/svcbench" "$@"
