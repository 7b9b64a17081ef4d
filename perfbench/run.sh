#!/usr/bin/env bash
# Builds smiler-server and the benchmark program from this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout. Without the repository's sources next to it the build fails
# and the script exits non-zero before any measurement.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root"
go build -o "$build/smiler-server" ./cmd/smiler-server
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -server "$build/smiler-server" -workdir "$build" "$@"
