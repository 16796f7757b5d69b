#!/usr/bin/env bash
# Builds the benchmark program from the sources of the checkout it is run
# from and runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload suite-dir-sp --seed 42 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temporary
# sweep stores, CPU profiles) stays under $CARGO_TARGET_DIR, which defaults
# to .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/sim" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: no simulator sources under $root; run from the repository root" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
mkdir -p "$build/home" "$build/tmp"

# Keep the toolchain's caches and settings inside the build directory and
# never reach for the network.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" --commit "$commit" "$@"
