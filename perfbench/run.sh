#!/usr/bin/env bash
# Builds the perfbench program and the campaignw worker from source, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-figs --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, the go command's temporary and
# telemetry files, and span files all stay under .bench_build/ in the
# checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$out/bin" "$out/tmp"
go build -o "$out/bin/campaignw" ./cmd/campaignw
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
# Not exec: perfbench must start as a fresh process whose CPU and memory
# accounting of reaped children excludes the build above.
"$out/bin/perfbench" --root "$root" --campaignw "$out/bin/campaignw" "$@"
