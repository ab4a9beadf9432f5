#!/usr/bin/env bash
# Builds geoind-server and the benchmark driver from this checkout, then runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload report-warm --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, ledger
# directories, server logs, span dumps) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/geoind-server" ./cmd/geoind-server
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -server "$build/bin/geoind-server" "$@"
