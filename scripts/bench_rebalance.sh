#!/bin/sh
# Runs the skew-shift recovery experiment (live rebalancing vs static
# routing) and records its headline numbers into BENCH_rebalance.json at
# the repo root. Non-blocking: meant for tracking the dynamic-loop
# behaviour over time, not as a pass/fail gate.
#
# Usage: scripts/bench_rebalance.sh
set -eu

cd "$(dirname "$0")/.."
. scripts/bench_merge.sh
out="BENCH_rebalance.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go run ./cmd/experiments -exp rebalance | tee "$raw"

awk '
	/^threshold=/       { threshold = substr($0, index($0, "=") + 1) }
	/^static_skew=/     { static = substr($0, index($0, "=") + 1) }
	/^rebalanced_skew=/ { rebalanced = substr($0, index($0, "=") + 1) }
	/^swaps=/           { swaps = substr($0, index($0, "=") + 1) }
	/^moves=/           { moves = substr($0, index($0, "=") + 1) }
	/^rebalance_us=/    { us = substr($0, index($0, "=") + 1) }
	END {
		if (threshold == "" || static == "" || rebalanced == "") {
			print "bench_rebalance.sh: experiment output not parsed" > "/dev/stderr"
			exit 1
		}
		printf "{\n"
		printf "  \"skew_threshold\": %s,\n", threshold
		printf "  \"static_skew\": %s,\n", static
		printf "  \"rebalanced_skew\": %s,\n", rebalanced
		printf "  \"swaps\": %s,\n", swaps
		printf "  \"moves\": %s,\n", moves
		printf "  \"rebalance_us\": %s\n", us
		printf "}\n"
	}
' "$raw" > "$out.tmp"
bench_merge "$out" "$out.tmp"

echo "wrote $out"
