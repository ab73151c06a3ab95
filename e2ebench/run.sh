#!/usr/bin/env bash
# Builds wvqd and the e2ebench program from this checkout, then runs
# e2ebench with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload serve-mix --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$build/bin"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export TMPDIR="$build/tmp"
go build -o "$build/bin/wvqd" ./cmd/wvqd
(cd e2ebench && go build -o "$build/bin/e2ebench" .)
if commit="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	export E2EBENCH_COMMIT="$commit"
else
	export E2EBENCH_COMMIT="tree-sha256:$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
exec "$build/bin/e2ebench" -root "$root" -bin "$build/bin/wvqd" "$@"
