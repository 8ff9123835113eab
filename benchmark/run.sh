#!/usr/bin/env bash
# Entry point BENCHMARK.json names: build the harness from source inside
# the checkout (build cache and binary under .bench_build/, nothing
# outside the checkout is written) and run it with the caller's flags.
# In a directory without the library (no ../go.mod) the build fails and
# the script exits non-zero before printing any result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
unset ABCFHE_BACKEND
go build -C "$here" -buildvcs=false -o "$build/abcfhe-benchmark" . >&2
cd "$root"
exec "$build/abcfhe-benchmark" "$@"
