#!/usr/bin/env bash
# The benchmark's one command. Builds the load generator from this directory
# and runs it from the root of the checkout; the load generator then builds
# sweepd and matchquality from the checkout's source. Everything built or
# written — programs, Go's build cache and its telemetry counters, cachedirs,
# bench.json, trace.json — lands in .bench_build/ at the root of the checkout.
#
#   bash bench/run.sh                              # five workloads + traced run
#   bash bench/run.sh --workload sim_lowload --seed 7 --seconds 12 --trace 0
#   bash bench/run.sh --trace 1                    # per-layer (traced) run only
#   bash bench/run.sh -sets 2                      # self-agreement check
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
work="$root/.bench_build"
mkdir -p "$work"
export GOCACHE="$work/gocache" XDG_CONFIG_HOME="$work/config"
(cd "$here" && go build -o "$work/bin/bench" .)
cd "$root"
exec "$work/bin/bench" -src "$here" -workdir "$work" "$@"
