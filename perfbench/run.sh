#!/usr/bin/env bash
# Builds cmd/mbserve and the perfbench binary from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload analyze-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build
# (or $CARGO_TARGET_DIR when set): binaries, the Go build cache, server
# logs and span dumps.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/mbserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/mbserve and perfbench/ must exist)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp"
out="$(cd "$out" && pwd)"
# Keep every write of the Go toolchain inside the build directory.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off

go build -o "$out/mbserve" ./cmd/mbserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -mbserve "$out/mbserve" -out "$out" "$@"
