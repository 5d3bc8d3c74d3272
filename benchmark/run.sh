#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload wire_ring8 --seed 1 --seconds 10 --trace 0
#
# Everything the build writes, the Go build cache included, stays under
# .bench_build/; results and traces go to benchmark/out/. Both are
# git-ignored. Without the rest of the repo beside it the build fails and
# the script exits non-zero before printing anything.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .) >&2
exec "$build/benchmark" -out "$here/out" "$@"
