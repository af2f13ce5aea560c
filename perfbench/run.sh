#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload httpd-php --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build artefact, cache and temporary
# file stays under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/crane" ]]; then
	echo "perfbench: run from the root of a crane checkout" >&2
	exit 2
fi
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
