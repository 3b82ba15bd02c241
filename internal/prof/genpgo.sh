#!/bin/sh
# genpgo.sh writes cmd/matchquality/default.pgo, the CPU profile that
# `go build` applies to matchquality (Go's default -pgo=auto; DESIGN.md §18).
# It records what the repository benchmark's quality_openloop workload runs
# (bench/gen.go): the four quality classes at 20x their trials, one worker
# each, under ten workload seeds (a single pass holds only about a hundred
# samples), merged into one profile with the runtime's frames left out.
#
# Run it by hand from anywhere in the checkout (under half a minute) after
# a change that moves the hot code, and commit the profile with it:
#
#   sh internal/prof/genpgo.sh
#
# No go:generate line calls it, so `go generate ./...` never rewrites the
# profile. CPU profiles are not deterministic, so two runs write different
# files. A profile only steers inlining; it never changes a result, and a
# stale one only loses speed.
set -eu

root=$(cd "$(dirname "$0")/../.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$root"

# Profile a plain build, so the recipe does not depend on the profile it
# replaces.
go build -pgo=off -o "$tmp/matchquality" ./cmd/matchquality
for seed in 1 2 3 4 5 6 7 8 9 10; do
	for class in "vc fbfly 2 1200" "sw fbfly 2 3000" "vc mesh 4 2500" "sw mesh 1 15000"; do
		set -- $class
		"$tmp/matchquality" -unit "$1" -topo "$2" -c "$3" -trials "$4" -workers 1 \
			-seed "$seed" -cpuprofile "$tmp/$1-$2-c$3-seed$seed.prof" >/dev/null
	done
done
go tool pprof -proto -hide '^(runtime|internal/runtime)[./]' "$tmp"/*.prof >cmd/matchquality/default.pgo
