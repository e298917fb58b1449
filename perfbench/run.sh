#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig8_chain --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, the scratch databases,
# and one result file (plus spans, for traced runs) per run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
cd "$root"
exec "$build/bin/perfbench" --dir "$build/perfbench" "$@"
