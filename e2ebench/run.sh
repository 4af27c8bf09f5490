#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root, e.g.
#
#   bash e2ebench/run.sh --workload ingest-durable --seed 1 --seconds 10 --trace 0
#
# Every build, cache and data file stays under .bench_build/ in the
# current directory. The build needs the repository's own module one
# directory up, so outside a full checkout it fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# The go command's telemetry counters live under the user config dir.
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -workdir "$out/e2ebench-data" "$@"
