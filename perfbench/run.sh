#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload modbus-steady --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, span files) stays under .bench_build/
# in the current directory. The build fails, and the script exits
# non-zero without printing a result, when the library sources are not
# next to perfbench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

(
	cd "$root/perfbench"
	env HOME="$out/home" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$out/perfbench" .
)

exec "$out/perfbench" -spans "$out/spans" "$@"
