#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#   bash perfbench/run.sh --workload kv-write --seed 1 --seconds 30 --trace 0
# Run it from the repository root. Every file it writes (Go build cache,
# binary, WALs, span files) stays under $CARGO_TARGET_DIR/perfbench, by
# default .bench_build/perfbench in the checkout.
set -euo pipefail

root=$(pwd)
target=${CARGO_TARGET_DIR:-.bench_build}
case $target in
/*) ;;
*) target="$root/$target" ;;
esac
build="$target/perfbench"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
if ! command -v go >/dev/null && [ -x /usr/local/go/bin/go ]; then
	PATH="$PATH:/usr/local/go/bin"
fi

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
