#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it from the
# checkout root; all arguments go to the benchmark binary. Everything the
# build writes (Go build cache, temp files, the binary) stays under
# .bench_build, so the checkout is the only directory touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
(
	cd "$here"
	HOME="$build/home" GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" \
		GOTOOLCHAIN=local GOFLAGS= \
		go build -buildvcs=false -o "$build/ginflow-benchmarks" .
)
cd "$root"
exec "$build/ginflow-benchmarks" "$@"
