#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments. Run it from the root of a checkout, for example:
#
#   bash bench/run.sh -seed 42 -out run.json
#   bash bench/run.sh --workload btree-tx --seed 7 --seconds 15 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build/ in the checkout; the build never touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

(cd "$root/bench" && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" "$@"
