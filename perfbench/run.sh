#!/usr/bin/env bash
# Builds the pwf end-to-end benchmark from source and runs it. Run it
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the binary, Go's build cache and temporary files, and
# the benchmark's own run files. See perfbench/README.md.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/go-tmp" "$build/config"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/go-tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
