#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run it from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload config-sweep --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the traced run's spans stay under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d perfbench ]]; then
	echo "perfbench: run from the root of a checkout of the simulator (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi
out=.bench_build/perfbench
mkdir -p "$out"
GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" XDG_CONFIG_HOME="$PWD/$out/config" \
	GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0 go build -o "$out/perfbench" ./perfbench >&2
PERFBENCH_EXEC_NS=$(date +%s%N)
export PERFBENCH_EXEC_NS
exec "$out/perfbench" "$@"
