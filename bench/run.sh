#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build and
# run artefact inside the checkout: the Go build cache, temp files, the
# binary, daemon state and span files all go under $CARGO_TARGET_DIR
# (default .bench_build). Run from the repository root:
#
#   bash bench/run.sh --workload dp_warm_b4 --seed 1 --seconds 30 --trace 0
#
# Arguments are passed to the benchmark; see bench/README.md.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d bench ]]; then
	echo "bench/run.sh: run from the repository root (go.mod, internal/ and bench/ not found)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$PWD/$out"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -out "$out" "$@"
