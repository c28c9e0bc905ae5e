#!/usr/bin/env bash
# Builds the reference benchmark from the checkout's sources and runs
# it with the given arguments; see README.md. Everything the build
# writes stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(cd "$here/.." && pwd)/.bench_build/refbench"
mkdir -p "$out/tmp"
(
	cd "$here"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
	go build -o "$out/refbench" .
) >&2
exec "$out/refbench" "$@"
