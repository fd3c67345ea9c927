#!/bin/sh
# Runs the CEP hot-path benchmarks and records ns/op per series into
# BENCH_cep.json at the repo root. Non-blocking: meant for tracking the
# Listing-1 evaluation cost across window lengths
# (BenchmarkListing1_RuleEvaluation) and what each evaluation path of a
# standing statement costs (BenchmarkAblationJoinStrategy in internal/cep:
# incremental, recompute with indexed joins, recompute with nested loops)
# over time, not as a pass/fail gate.
#
# Usage: scripts/bench_cep.sh [benchtime] [count]   (default 1s 3)
set -eu

cd "$(dirname "$0")/.."
. scripts/bench_merge.sh
benchtime="${1:-1s}"
count="${2:-3}"
out="BENCH_cep.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' \
	-bench 'BenchmarkListing1_RuleEvaluation|BenchmarkAblationJoinStrategy' \
	-benchtime "$benchtime" -count "$count" . ./internal/cep | tee "$raw"

# Each series records its best-of-count ns/op: the minimum filters
# scheduler noise on a shared box.
awk -v benchtime="$benchtime" '
	BEGIN { n = 0 }
	/^Benchmark/ && $4 == "ns/op" {
		name = $1
		sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix
		if (!(name in best)) { names[n++] = name; best[name] = $3 + 0 }
		else if ($3 + 0 < best[name]) best[name] = $3 + 0
	}
	END {
		if (n == 0) { print "bench_cep.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
		printf "{\n  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"ns_per_op\": {\n"
		for (i = 0; i < n; i++)
			printf "    \"%s\": %s%s\n", names[i], best[names[i]], (i < n-1 ? "," : "")
		printf "  }\n}\n"
	}
' "$raw" > "$out.tmp"

bench_merge "$out" "$out.tmp"

echo "wrote $out"
