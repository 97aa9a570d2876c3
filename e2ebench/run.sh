#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run from the checkout root:
#
#   bash e2ebench/run.sh --workload tpch-orc-datampi --seed 42 --seconds 15 --trace 0
#
# Everything it writes stays under .bench_build in the checkout: the Go
# build cache, the binary and the engines' spill files. When the kernel
# lets an unprivileged process create a mount namespace, the spill
# directory is a private tmpfs mounted there for the life of the run,
# so spill goes to memory; otherwise it stays on the checkout's disk.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/spill"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C e2ebench build -o "$build/e2ebench" .

if unshare --user --map-root-user --mount true 2>/dev/null; then
	exec unshare --user --map-root-user --mount bash -c '
		mount -t tmpfs -o size=1g e2ebench-spill "$1" ||
			echo "e2ebench: tmpfs mount refused; spill stays on disk" >&2
		shift
		exec "$@"' _ "$build/spill" "$build/e2ebench" --spill-dir "$build/spill" "$@"
fi
exec "$build/e2ebench" --spill-dir "$build/spill" "$@"
