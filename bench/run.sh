#!/usr/bin/env bash
# Builds the vprof benchmark from the checkout it is run in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload diagnose --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare before.jsonl after.jsonl
#
# The Go build cache, the binary and every scratch file the benchmark writes
# stay under .bench_build/ at the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=""
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go -C "$root/bench" build -o "$out/vprof-bench" .
exec "$out/vprof-bench" "$@"
