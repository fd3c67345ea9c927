#!/bin/sh
# Runs the CEP hot-path benchmarks and records ns/op per series into
# BENCH_cep.json at the repo root. Non-blocking: meant for tracking the
# Listing-1 evaluation cost across window lengths
# (BenchmarkListing1_RuleEvaluation), what one engine pays per delivered
# trace for the four shipped rules over a city-sized working set
# (BenchmarkListing1_FourRules in internal/cep) and what each evaluation
# path of a standing statement costs (BenchmarkAblationJoinStrategy there:
# incremental, recompute with indexed joins, recompute with nested loops)
# over time, not as a pass/fail gate.
#
# With BENCH_PARENT=<commit> the same benchmarks are also run on that
# commit's files (a `git archive` snapshot in a temporary directory, with
# this tree's internal/cep/bench_test.go laid over it — it drives the engine
# through AddStatement and SendEventAt only) and recorded beside this
# tree's numbers as the "parent" section, so a CEP change shows its
# before/after from one day on one box.
#
# Usage: [BENCH_PARENT=<commit>] scripts/bench_cep.sh [benchtime] [count]   (default 1s 3)
set -eu

cd "$(dirname "$0")/.."
. scripts/bench_merge.sh
benchtime="${1:-1s}"
count="${2:-3}"
out="BENCH_cep.json"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# record <raw> <json>: each series' best-of-count ns/op — the minimum
# filters scheduler noise on a shared box — as a JSON object.
record() {
	awk '
		BEGIN { n = 0 }
		/^Benchmark/ && $4 == "ns/op" {
			name = $1
			sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix
			if (!(name in best)) { names[n++] = name; best[name] = $3 + 0 }
			else if ($3 + 0 < best[name]) best[name] = $3 + 0
		}
		END {
			if (n == 0) { print "bench_cep.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
			printf "{\n"
			for (i = 0; i < n; i++)
				printf "  \"%s\": %s%s\n", names[i], best[names[i]], (i < n-1 ? "," : "")
			printf "}\n"
		}
	' "$1" > "$2"
}

# bench <dir> <raw>: the tracked benchmarks of the tree in <dir>.
bench() {
	(cd "$1" && go test -run '^$' \
		-bench 'BenchmarkListing1_RuleEvaluation|BenchmarkListing1_FourRules|BenchmarkAblationJoinStrategy' \
		-benchtime "$benchtime" -count "$count" . ./internal/cep) | tee "$2"
}

echo '{}' > "$tmp/parent.json"
if [ -n "${BENCH_PARENT:-}" ]; then
	mkdir "$tmp/parent"
	git archive "$BENCH_PARENT" | tar -x -C "$tmp/parent"
	cp internal/cep/bench_test.go "$tmp/parent/internal/cep/bench_test.go"
	bench "$tmp/parent" "$tmp/parent.raw"
	record "$tmp/parent.raw" "$tmp/parent.ns"
	jq -n --arg commit "$(git rev-parse --short "$BENCH_PARENT")" --slurpfile ns "$tmp/parent.ns" \
		'{parent: {commit: $commit, ns_per_op: $ns[0]}}' > "$tmp/parent.json"
fi
bench . "$tmp/raw"
record "$tmp/raw" "$tmp/ns"
jq -n --arg benchtime "$benchtime" --slurpfile ns "$tmp/ns" --slurpfile parent "$tmp/parent.json" \
	'{benchtime: $benchtime, ns_per_op: $ns[0]} + $parent[0]' > "$out.tmp"

bench_merge "$out" "$out.tmp"

echo "wrote $out"
