#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload persona_mix --seed 1 --seconds 10 --trace 0
#
# Everything the build writes — the binary, the Go build cache, temporary
# files, the go command's own config and telemetry — stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. The
# benchmark is its own module (perfbench/go.mod) that replaces the repro
# module with the checkout root, so it builds only inside a full checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
