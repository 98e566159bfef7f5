#!/bin/sh
# Run every fuzz target for a fixed time each. Plain `go test` already
# replays each target's seed corpus (testdata/fuzz/<Target>); this script
# searches for new inputs beyond it. A failing input is written into that
# corpus directory by the go tool and should be committed with its fix.
#
# Usage: scripts/fuzz.sh [time-per-target]   (default 60s; any -fuzztime
# value, e.g. 30s, 5m or 100000x)
set -eu
cd "$(dirname "$0")/.."

fuzztime="${1:-60s}"

# package:target pairs, one per trust-boundary parser or transfer path.
targets="
./internal/machine:FuzzArgStringTransfer
./internal/blockstore:FuzzJournalReplay
./internal/core:FuzzRestoreManifest
./internal/linker:FuzzListSymbols
"

for t in $targets; do
	pkg="${t%%:*}"
	name="${t#*:}"
	echo "== $name ($pkg, $fuzztime)"
	go test -run '^$' -fuzz "^$name\$" -fuzztime "$fuzztime" -parallel 2 "$pkg"
done
echo "ok"
