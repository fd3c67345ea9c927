# Sourced by the scripts/bench_*.sh recorders; not run on its own.
#
# bench_merge OUT FRESH installs the JSON object in file FRESH as OUT.
# Every top-level key OUT already holds that FRESH does not set is kept —
# several recorders share one file (bench_storm.sh and bench_distributed.sh
# both write BENCH_storm.json) and none may drop another's section; keys
# FRESH sets win. FRESH is consumed. The merge lands in a third file: with
# OUT named both as --slurpfile input and as the redirect target, the shell
# would truncate it before jq reads it. The merged file is then checked
# against the old one and the script exits nonzero if a top-level key went
# missing — a section was lost silently that way once.
bench_merge() {
	bm_out="$1"
	bm_fresh="$2"
	if [ -f "$bm_out" ] && jq -e 'type == "object"' "$bm_out" > /dev/null 2>&1; then
		jq --slurpfile old "$bm_out" '$old[0] + .' "$bm_fresh" > "$bm_out.merged"
		bm_missing="$(jq -r --slurpfile old "$bm_out" '(($old[0] | keys) - keys)[]' "$bm_out.merged")"
		rm -f "$bm_fresh"
		if [ -n "$bm_missing" ]; then
			echo "$(basename "$0"): merge dropped top-level section(s) of $bm_out: $bm_missing" >&2
			rm -f "$bm_out.merged"
			exit 1
		fi
		mv "$bm_out.merged" "$bm_out"
	else
		mv "$bm_fresh" "$bm_out"
	fi
}
