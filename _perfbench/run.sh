#!/usr/bin/env bash
# Builds the keyedeq benchmark from this checkout's source and runs it:
#
#   bash _perfbench/run.sh --workload serve-repeat --seed 1 --seconds 10 --trace 0
#
# The binary, Go's build cache, verdict logs and traces all stay under
# .bench_build/ at the checkout root.  Build output goes to stderr, so
# the last line of stdout is the benchmark's JSON result.
#
# The benchmark is a Go module of its own that imports keyedeq's
# internal packages through a replace directive.  The leading underscore
# of its directory keeps it out of ./... patterns and out of the repo's
# lint walk, which both cover keyedeq's own packages only.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
go -C "$root/_perfbench" build -o "$out/keyedeq-perfbench" . >&2
cd "$root"
exec "$out/keyedeq-perfbench" -dir "$out" "$@"
