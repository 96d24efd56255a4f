#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs it
# with the given flags, e.g.
#
#   bash perfbench/run.sh --workload fleet-durable --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root. Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" HOME="$build/home" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
