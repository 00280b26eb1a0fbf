#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout
# root. Every Go cache, temporary file and output stays under
# .bench_build/ in the checkout.
#
#   bash repobench/run.sh --workload sampled-sweep --seed 1 --seconds 25 --trace 0
#   bash repobench/run.sh --record     # re-record repobench/reference.json
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/xdg"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/repobench" && go build -o "$out/repobench" .)
cd "$root"
exec "$out/repobench" "$@"
