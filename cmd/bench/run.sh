#!/usr/bin/env bash
# Builds cmd/bench from the checkout this script sits in and runs it with the
# given arguments, from the checkout's root. Everything the build and the run
# write — the binary, Go's build cache and temporary files, the per-run model
# cache, span files — stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/cmd/bench" && go build -o "$out/edenbench" .)
cd "$root"
exec "$out/edenbench" "$@"
