#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash mvbench/run.sh --workload verify --seed 1 --seconds 10 --trace 0
#   bash mvbench/run.sh all --seed 1 --seconds 10    # every workload in turn
#
# The binary, the Go build cache, temporary files and the traced run's span
# dumps all stay under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$(dirname "$0")" && go build -o "$out/mvbench" .)

if [[ "${1:-}" == "all" ]]; then
	shift
	for w in verify evaluate sweep query; do
		"$out/mvbench" --workload "$w" "$@"
	done
	exit 0
fi
exec "$out/mvbench" "$@"
