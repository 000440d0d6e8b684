#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one
# workload. Run it from the repository root:
#
#   bash dtpbench/run.sh --workload fattree-steady --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$(pwd)/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/spans"

# The go command's cache, temporary files, module path and telemetry
# counters (under XDG_CONFIG_HOME) all stay in the checkout.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOENV=off GOWORK=off GOPROXY=off GOFLAGS= CGO_ENABLED=0

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

(cd "$here" && go build -buildvcs=false -o "$out/dtpbench" .)
exec "$out/dtpbench" -commit "$commit" -spans-dir "$out/spans" "$@"
