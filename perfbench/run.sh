#!/usr/bin/env bash
# Builds the host-cost benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload sor-access --seed 1 --seconds 25 --trace 0
# Every build product and Go cache lives under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOWORK=off
export GOFLAGS=

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(GIT_CEILING_DIRECTORIES="$root/.." git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

# The benchmark is a module of its own that takes the program from the
# checkout root (replace lrcrace => ../); without that source the build
# fails and so does the run.
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .) >&2

exec "$build/perfbench" -commit "$commit" "$@"
