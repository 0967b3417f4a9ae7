#!/usr/bin/env bash
# BENCHMARK.json's command: build clue-e2e and the clue-serve it execs from
# this checkout, then run the built binary (never `go run`: its wrapper
# would outlive a kill and orphan the server). Everything written — build
# cache, temp files, binaries, FIB file, traces — stays under benchmark/out.
#
#   bash benchmark/run.sh --workload http_batch --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -seed 1 -out benchmark/out/run.json     # every workload, both passes
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/out"
mkdir -p "$out/tmp"

# The go tool's cache, temp files, module cache and telemetry counters all
# default to places outside the checkout; point every one of them inside.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/clue-e2e" .)
(cd "$root" && go build -o "$out/clue-serve" ./cmd/clue-serve)

exec "$out/clue-e2e" -serve-bin "$out/clue-serve" -scratch "$out" "$@"
