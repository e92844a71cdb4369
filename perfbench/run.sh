#!/usr/bin/env bash
# Builds evserve and the benchmark program from the checkout in the current
# directory, then runs the program with the given arguments (--workload,
# --seed, --seconds, --trace; see main.go). Everything the build and the run
# write stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/evserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an evprop checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config" "$out/perfbench"
# The go command's cache and its telemetry counters (under the user config
# directory) would otherwise land in the home directory.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOENV=off
go build -o "$out/bin/evserve" ./cmd/evserve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -evserve "$out/bin/evserve" -out "$out/perfbench" -root "$root" "$@"
