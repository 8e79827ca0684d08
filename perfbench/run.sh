#!/usr/bin/env bash
# Builds f90yd and the benchmark from this checkout, then runs one
# benchmark workload with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload serve-mix --seed 3 --seconds 24 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# every scratch file stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
[ -f "$root/go.mod" ] && [ -d "$root/cmd/f90yd" ] && [ -f "$root/perfbench/go.mod" ] || {
	echo "perfbench: run from the root of an f90y checkout" >&2
	exit 2
}
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off \
	GOWORK=off HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"

go build -o "$out/bin/f90yd" ./cmd/f90yd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -f90yd "$out/bin/f90yd" -workdir "$out/work-$$" "$@"
