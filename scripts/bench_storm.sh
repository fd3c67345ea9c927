#!/bin/sh
# Runs the Storm transport benchmarks and records ns/op per configuration
# into BENCH_storm.json at the repo root. Non-blocking: meant for tracking
# the batched data plane (batch size x telemetry x acking) over time, not
# as a pass/fail gate. The sweep is batch {1,64} x telemetry {off,on} x
# ack {off,xor,epoch}: batch=1 is one channel send per tuple; xor is the
# checksum acker (one locked root table), which targets <= 1.5x ack=off at
# batch=64/telemetry=off but reads ~4x there (one update per hop is most
# of the work of these no-op bolts), and epoch the barrier-checkpointing
# mode, which carries no per-tuple state and targets <= 1.15x ack=off
# there.
# The measured ratios are recorded under "ack_xor_over_off_batch64" and
# "ack_epoch_over_off_batch64" so the targets stay machine-checkable.
#
# Usage: scripts/bench_storm.sh [benchtime] [count]   (default 300000x 3)
set -eu

cd "$(dirname "$0")/.."
. scripts/bench_merge.sh
benchtime="${1:-300000x}"
count="${2:-3}"
out="BENCH_storm.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' \
	-bench 'BenchmarkStormThroughput' \
	-benchtime "$benchtime" -count "$count" . | tee "$raw"

# Each configuration records its best-of-count ns/op: the minimum filters
# scheduler noise on a shared box, which single 300000x shots are very
# exposed to.
awk -v benchtime="$benchtime" '
	BEGIN { n = 0 }
	/^Benchmark/ && $4 == "ns/op" {
		name = $1
		sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix
		if (!(name in best)) { names[n++] = name; best[name] = $3 + 0 }
		else if ($3 + 0 < best[name]) best[name] = $3 + 0
	}
	END {
		if (n == 0) { print "bench_storm.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
		printf "{\n  \"benchtime\": \"%s\",\n", benchtime
		base = "BenchmarkStormThroughput/batch=64/telemetry=off/ack="
		for (i = 0; i < n; i++) {
			if (names[i] == base "off") off = best[names[i]]
			if (names[i] == base "xor") xor = best[names[i]]
			if (names[i] == base "epoch") epoch = best[names[i]]
		}
		if (off > 0 && xor > 0)
			printf "  \"ack_xor_over_off_batch64\": %.3f,\n", xor / off
		if (off > 0 && epoch > 0)
			printf "  \"ack_epoch_over_off_batch64\": %.3f,\n", epoch / off
		printf "  \"ns_per_op\": {\n"
		for (i = 0; i < n; i++)
			printf "    \"%s\": %s%s\n", names[i], best[names[i]], (i < n-1 ? "," : "")
		printf "  }\n}\n"
	}
' "$raw" > "$out.tmp"

bench_merge "$out" "$out.tmp"

echo "wrote $out"
