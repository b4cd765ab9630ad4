#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g.  bash perfbench/run.sh --workload verify --seed 1 --seconds 25 --trace 0
# Run it from the repository root. Everything it builds, caches and writes
# stays under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GO111MODULE=on
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
