#!/bin/sh
# Runs the distributed data-plane benchmark (the Figure 8 pipeline split
# across worker runtimes over loopback TCP) plus the wire-codec round-trip
# microbenchmark, and merges the results into BENCH_storm.json, preserving
# the in-process transport numbers from bench_storm.sh. Non-blocking:
# tracks the cost of the wire hop (codec + framing + per-peer connections)
# over time. Two machine-checkable regression signals ride along:
#   .dist_2w_over_1w           ns/tuple ratio workers=2 / workers=1 — the
#                              cross-process tax (PR 8 target: ~2.2, down
#                              from the 4.9 recorded at the seed)
#   .distributed.wire          codec ns/op and allocs/op for one 64-envelope
#                              batch round trip (one Values map per decoded
#                              envelope: 128 allocs/op, the floor
#                              TestWireDecodeAllocsPerEnvelope enforces)
#
# Usage: scripts/bench_distributed.sh [benchtime]   (default 300000x)
set -eu

cd "$(dirname "$0")/.."
. scripts/bench_merge.sh
benchtime="${1:-300000x}"
out="BENCH_storm.json"
raw="$(mktemp)"
rawwire="$(mktemp)"
section="$(mktemp)"
trap 'rm -f "$raw" "$rawwire" "$section"' EXIT

go test -run '^$' \
	-bench 'BenchmarkDistributedThroughput' \
	-benchtime "$benchtime" . | tee "$raw"

go test -run '^$' \
	-bench 'BenchmarkWireBatchRoundTrip' \
	-benchmem -benchtime 20000x ./internal/storm | tee "$rawwire"

awk -v benchtime="$benchtime" '
	BEGIN { n = 0 }
	/^Benchmark/ && $4 == "ns/op" {
		name = $1
		sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix
		names[n] = name
		nsop[n++] = $3 + 0
		if (name ~ /workers=1$/) w1 = $3 + 0
		if (name ~ /workers=2$/) w2 = $3 + 0
	}
	END {
		if (n == 0) { print "bench_distributed.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
		printf "{\n  \"benchtime\": \"%s\",\n", benchtime
		if (w1 > 0 && w2 > 0)
			printf "  \"dist_2w_over_1w\": %.3f,\n", w2 / w1
		printf "  \"ns_per_op\": {\n"
		for (i = 0; i < n; i++)
			printf "    \"%s\": %s%s\n", names[i], nsop[i], (i < n-1 ? "," : "")
		printf "  }\n}\n"
	}
' "$raw" > "$section"

wire_ns="$(awk '/^BenchmarkWireBatchRoundTrip/ && $4 == "ns/op" { print $3 + 0 }' "$rawwire")"
wire_allocs="$(awk '/^BenchmarkWireBatchRoundTrip/ && $8 == "allocs/op" { print $7 + 0 }' "$rawwire")"
if [ -z "$wire_ns" ] || [ -z "$wire_allocs" ]; then
	echo "bench_distributed.sh: no wire benchmark lines parsed" >&2
	exit 1
fi

jq -n --slurpfile d "$section" \
	--argjson wns "$wire_ns" --argjson wallocs "$wire_allocs" \
	'{dist_2w_over_1w: $d[0].dist_2w_over_1w,
	  distributed: (($d[0] | del(.dist_2w_over_1w)) + {wire: {"BenchmarkWireBatchRoundTrip": {ns_per_op: $wns, allocs_per_op: $wallocs}}})}' \
	> "$out.tmp"
bench_merge "$out" "$out.tmp"

echo "wrote distributed section of $out"
