#!/usr/bin/env bash
# The control-window benchmark's one command. It builds the benchmark from
# source into bench/out/build/ (build cache included, so nothing is written
# outside the checkout) and hands its arguments to the binary:
#
#   bench/run.sh                       every workload, untraced then traced
#   bench/run.sh repeat                the untraced set twice, differences against the bounds
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                      one run; the last line of output is its result
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/out/build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/bench" .)

cd "$(dirname "$here")"
if [ "$#" -eq 0 ]; then
	set -- suite
fi
exec "$build/bench" "$@"
