#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through to the binary (see perfbench/NOTES.md). Run it from the
# repository root. The binary, the Go build cache and all working
# files stay under .bench_build in the working directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench/run.sh: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
