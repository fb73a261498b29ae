#!/usr/bin/env bash
# Builds rdmaperf and runs it from the repository root, passing every
# argument through:
#
#   bash cmd/rdmaperf/run.sh --workload micro --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binaries and temporary files all live under
# .bench_build in the repository, so a run reads and writes nothing outside
# the checkout. The toolchain is pinned to the local one and the module proxy
# is off: the build never reaches the network.
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$root/cmd/rdmaperf" -o "$out/rdmaperf" .
cd "$root"
exec "$out/rdmaperf" "$@"
