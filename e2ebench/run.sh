#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources into
# .bench_build and runs it from the checkout root with the given arguments:
#
#	bash e2ebench/run.sh --workload cold-scan --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module state, temporary files and toolchain telemetry
# all stay inside .bench_build.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" "$@"
