#!/usr/bin/env bash
# Builds nestbench from source and runs it with the given arguments.
# Run from the repository root:
#
#	bash nestbench/run.sh --workload track --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the go command's work dirs, its
# module cache and its own config dir (telemetry counters) live under
# .bench_build/ in the repository root, so the benchmark writes nothing
# outside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The benchmark module replaces the repository module with ../, so a
# checkout holding only the benchmark directory fails to build here.
(cd "$root/nestbench" && go build -o "$out/nestbench" .)
exec "$out/nestbench" -root "$out" "$@"
