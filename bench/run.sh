#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#
#   bash bench/run.sh --workload fleet-100k --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, temp files, the binary) and the
# benchmark's own scratch files stay under .bench_build/ at the root of the
# checkout. The build is offline: the module has no dependencies outside
# the checkout. Outside a full checkout (no ../go.mod) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$out/cocabench" .)
cd "$root"
exec "$out/cocabench" "$@"
