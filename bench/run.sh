#!/usr/bin/env bash
# Builds the harness from source and runs it. The build cache, the binary and
# every file the go command writes stay under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/home"
(
	cd "$here"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off \
		go build -o "$out/janus-bench" .
)
exec "$out/janus-bench" "$@"
