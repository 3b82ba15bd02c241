#!/bin/sh
# checkpgo.sh fails when cmd/matchquality/default.pgo has gone stale: when
# one of the profile's 30 hottest functions (by flat time, as `go tool pprof
# -top` lists them, leaving out frames it marks "(inline)") no longer exists
# in matchquality. A rename or a deletion of hot code is what makes a profile
# stale mechanically: the compiler finds no function by the recorded name and
# silently drops that weight. Regenerate with internal/prof/genpgo.sh.
#
#   sh internal/prof/checkpgo.sh [profile]
#
# The profile defaults to cmd/matchquality/default.pgo. The symbol table
# comes from a build without a profile and without inlining (-gcflags=all=-l):
# a normal build inlines some profiled functions into every caller, so they
# have no symbol of their own although the profile still matches them.
set -eu

root=$(cd "$(dirname "$0")/../.." && pwd)
profile=${1:-$root/cmd/matchquality/default.pgo}
case $profile in /*) ;; *) profile=$PWD/$profile ;; esac
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$root"

go build -pgo=off -gcflags=all=-l -o "$tmp/matchquality" ./cmd/matchquality
go tool nm "$tmp/matchquality" | awk '{print $NF}' | sort -u >"$tmp/symbols"
# A row of the -top table is flat, flat%, sum%, cum, cum% and the name.
go tool pprof -top "$profile" 2>/dev/null |
	awk '$2 ~ /%$/ && $3 ~ /%$/ && NF >= 6 && $NF != "(inline)" {
		name = $6; for (i = 7; i <= NF; i++) name = name " " $i; print name }' |
	head -n 30 >"$tmp/hot"
if [ "$(wc -l <"$tmp/hot")" -lt 30 ]; then
	echo "checkpgo: $profile lists fewer than 30 non-inlined functions" >&2
	exit 1
fi
missing=$(grep -Fxv -f "$tmp/symbols" "$tmp/hot" || true)
if [ -n "$missing" ]; then
	echo "checkpgo: $profile is stale; these hot functions are not in matchquality:" >&2
	echo "$missing" >&2
	echo "regenerate it with: sh internal/prof/genpgo.sh" >&2
	exit 1
fi
echo "checkpgo: the 30 hottest functions of $profile are all in matchquality"
