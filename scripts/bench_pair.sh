#!/bin/sh
# Paired parent/change runs of the repository benchmark: the measuring rule
# of the choosing-metrics guide (section 8) as one command. Too slow for CI
# (two builds plus 2 x pairs runs of run_seconds each); run it by hand before
# claiming, or ruling out, a change in an end-to-end metric.
#
# It builds ./bench from the parent commit's committed files (a `git archive`
# snapshot in a temporary directory, so neither the working tree nor .git is
# touched) and from the working tree, then runs the two binaries in
# alternating order — parent first on odd pairs, change first on even ones —
# with one seed per pair, and prints every run, then per side the quartiles
# of each end-to-end metric of BENCHMARK.json and how many pairs the change
# won. It reads BENCHMARK.json and bench/ and writes nothing under them.
set -eu

usage() {
	cat <<'EOF'
usage: scripts/bench_pair.sh <workload> [pairs]

  workload  a workload name of BENCHMARK.json (city_sat, dist2_sat, ...)
  pairs     parent/change pairs to run, seeds 101..100+pairs (default 10)

environment:
  BENCH_PARENT  commit to compare against (default: HEAD when the working
                tree differs from it, else HEAD~1)

A gain counts when the change wins at least nine tenths of the pairs (ties
count for neither side) and the medians differ by more than the parent's
own interquartile range; a metric must not be worse than the parent's
median by more than its bound in BENCHMARK.json. When the parent's
interquartile range is wider than that bound, the metric is unresolved
unless every change run beats every parent run.
EOF
}

if [ "$#" -lt 1 ] || [ "$#" -gt 2 ] || [ "$1" = "-h" ] || [ "$1" = "--help" ]; then
	usage >&2
	exit 2
fi
workload="$1"
pairs="${2:-10}"
case "$pairs" in
'' | *[!0-9]* | 0)
	echo "bench_pair.sh: pairs must be a positive integer, got '$pairs'" >&2
	exit 2
	;;
esac

cd "$(dirname "$0")/.."
root="$(pwd)"
if ! jq -e --arg w "$workload" '.workloads | map(.name) | index($w)' BENCHMARK.json >/dev/null; then
	echo "bench_pair.sh: BENCHMARK.json has no workload '$workload'" >&2
	exit 2
fi
seconds="$(jq -r '.run_seconds' BENCHMARK.json)"

parent="${BENCH_PARENT:-}"
if [ -z "$parent" ]; then
	if git diff --quiet HEAD -- && [ -z "$(git ls-files --others --exclude-standard)" ]; then
		parent="HEAD~1"
	else
		parent="HEAD"
	fi
fi
parent_sha="$(git rev-parse --short "$parent")"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/parent"
git archive "$parent" | tar -x -C "$tmp/parent"
echo "building parent $parent_sha and the working tree ..." >&2
(cd "$tmp/parent" && go build -o "$tmp/bench.parent" ./bench)
go build -o "$tmp/bench.change" ./bench

# run <side> <pair> <seed>: one benchmark run, appended to runs.jsonl.
run() {
	side="$1"
	# The binaries write only with --trace 1; run them from the scratch
	# directory anyway so that nothing can land in either tree.
	if ! (cd "$tmp" && "./bench.$side" --workload "$workload" --seed "$3" --seconds "$seconds" \
		>"$tmp/stdout" 2>"$tmp/stderr"); then
		cat "$tmp/stderr" >&2
		echo "bench_pair.sh: $side run of pair $2 failed" >&2
		exit 1
	fi
	tail -n 1 "$tmp/stdout" >"$tmp/last"
	jq -c --arg side "$side" --argjson pair "$2" --argjson seed "$3" \
		'{side: $side, pair: $pair, seed: $seed, correct, attempted, failed,
		  metrics: (.metrics | map_values(.value))}' "$tmp/last" | tee -a "$tmp/runs.jsonl"
}

i=1
while [ "$i" -le "$pairs" ]; do
	seed=$((100 + i))
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$i" "$seed"
		run change "$i" "$seed"
	else
		run change "$i" "$seed"
		run parent "$i" "$seed"
	fi
	i=$((i + 1))
done

echo
echo "workload $workload, $pairs pairs x ${seconds}s, parent $parent_sha vs working tree ($root)"
jq -rs --slurpfile bm BENCHMARK.json '
	def quart(p): sort | ((length - 1) * p) as $h | ($h | floor) as $lo
		| .[$lo] + (.[[$lo + 1, length - 1] | min] - .[$lo]) * ($h - $lo);
	def r: . * 1000 | round / 1000;
	. as $runs
	| ($runs | map(select(.side == "parent")) | sort_by(.pair)) as $p
	| ($runs | map(select(.side == "change")) | sort_by(.pair)) as $c
	| ["metric", "side", "q1", "median", "q3", "wins", "verdict"],
	  ($bm[0].end_to_end[] | . as $m
		| ($p | map(.metrics[$m.name])) as $pv | ($c | map(.metrics[$m.name])) as $cv
		| (if $m.better == "higher" then 1 else -1 end) as $dir
		| ([range(0; $pv | length) | select(($cv[.] - $pv[.]) * $dir > 0)] | length) as $cw
		| ([range(0; $pv | length) | select(($cv[.] - $pv[.]) * $dir < 0)] | length) as $pw
		| (($cv | quart(0.5)) - ($pv | quart(0.5))) as $delta
		| (($pv | quart(0.75)) - ($pv | quart(0.25))) as $iqr
		| ($m.bound * (($pv | quart(0.5)) | fabs)) as $allowed
		| (($cv | map(. * $dir) | min) > ($pv | map(. * $dir) | max)) as $allbetter
		| (if $cw * 10 >= ($pv | length) * 9 and ($delta * $dir) > $iqr then "gain"
		   elif $iqr > $allowed and ($allbetter | not) then "unresolved"
		   elif ($delta * $dir) < 0 and ($delta | fabs) > $allowed then "REGRESSION"
		   else "no worse" end) as $verdict
		| [$m.name + " (" + $m.unit + ", " + $m.better + ")", "parent",
		   ($pv | quart(0.25) | r), ($pv | quart(0.5) | r), ($pv | quart(0.75) | r), $pw, "-"],
		  ["-", "change",
		   ($cv | quart(0.25) | r), ($cv | quart(0.5) | r), ($cv | quart(0.75) | r), $cw, $verdict]),
	  ["failed/attempted", "parent", "-", "-", "-", "-",
	   (($p | map(.failed) | add | tostring) + "/" + ($p | map(.attempted) | add | tostring))],
	  ["-", "change", "-", "-", "-", "-",
	   (($c | map(.failed) | add | tostring) + "/" + ($c | map(.attempted) | add | tostring))]
	| map(tostring) | join("\t")' "$tmp/runs.jsonl" >"$tmp/table"
if command -v column >/dev/null 2>&1; then
	column -t -s "$(printf '\t')" "$tmp/table"
else
	cat "$tmp/table"
fi
