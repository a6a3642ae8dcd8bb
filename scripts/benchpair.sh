#!/bin/sh
# benchpair.sh — the paired-run protocol a speed claim rests on
# (`make benchpair W=<workload> [N=10] [SEED=1] [BASE=HEAD~1]
# [LAYOUTS=3]`): the repository benchmark of BASE against that of the
# working tree, one discarded warm-up (the first run after an idle spell
# reads about half: the ruler mis-scales it), then N pairs alternating
# which side goes first.
#
# Code layout alone moves end-to-end times by several per cent
# (Mytkowicz et al., "Producing Wrong Data Without Doing Anything
# Obviously Wrong!", ASPLOS 2009; Curtsinger & Berger, "STABILIZER",
# ASPLOS 2013), so each side is built under LAYOUTS linker layouts, the
# same on both sides: the default layout and `-ldflags=-randlayout=J`
# for J = 1 .. LAYOUTS-1. Pair i runs both sides under layout
# (i-1) mod LAYOUTS.
#
# Per end-to-end metric of BENCHMARK.json it prints each side's median
# and quartiles over all pairs, the change's wins out of N, and
# `claim ok` when there are at least ten pairs, the change wins at least
# nine tenths of them, the medians differ by more than the distance
# between the base's own quartiles, and the change's median beats the
# base's under every layout — `unresolved` otherwise. A second line per
# metric gives both medians under each layout. SEED may list several
# seeds ("1 2"): the binaries are built once, and each seed gets its own
# warm-up, pairs and table.
#
# After each seed's pairs, the change's default build runs once more
# with -trace 1 and the script prints its sim.driver_vs_run. That run
# fails when the layer driver stops describing sim.Run (the ratio
# outside its band after its pairs, or the driver's query count more
# than 1 % off), which the untraced pairs never check.
# Exits non-zero when any run fails or reports correct=false.
set -eu

w=${1:?usage: benchpair.sh WORKLOAD [N] [SEED...] [BASE] [LAYOUTS]}
n=${2:-10}
seeds=${3:-1}
base=${4:-HEAD~1}
layouts=${5:-3}

case $layouts in
'' | *[!0-9]* | 0*) echo "benchpair: LAYOUTS $layouts is not a positive integer" >&2; exit 2 ;;
esac
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify --quiet "$base^{commit}") ||
	{ echo "benchpair: BASE $base is not a commit" >&2; exit 2; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

# BASE is a plain export of its committed files: no worktree, so the
# repository's git state is the same after a run as before it.
mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"
# Layout 0 is the default build; layout J > 0 links with -randlayout=J.
j=0
while [ "$j" -lt "$layouts" ]; do
	flags=
	[ "$j" -gt 0 ] && flags=-ldflags=-randlayout=$j
	(cd "$tmp/base/bench" && go build $flags -o "$tmp/bench.base.$j" .)
	(cd "$root/bench" && go build $flags -o "$tmp/bench.change.$j" .)
	j=$((j + 1))
done

bad=0
# run SIDE LAYOUT OUT: one benchmark run of SIDE's LAYOUT build from its
# own bench/ (flags and golden/ are relative to it); the JSON summary
# line goes to OUT.
run() {
	dir=$root/bench
	[ "$1" = base ] && dir=$tmp/base/bench
	(cd "$dir" && "$tmp/bench.$1.$2" -workload "$w" -seed "$seed") >"$tmp/run.log" 2>&1 || bad=1
	tail -n 1 "$tmp/run.log" >"$3"
	grep -q '"correct":true' "$3" || { bad=1; echo "benchpair: $1 run not correct:"; tail -n 5 "$tmp/run.log"; }
}

# The end-to-end metrics and their better direction, from BENCHMARK.json
# (one field per line).
awk '/"end_to_end"/ {on=1} /"per_layer"/ {on=0}
	on && /"name"/ {gsub(/[",]/, ""); name=$2}
	on && /"better"/ {gsub(/[",]/, ""); print name, $2}' "$root/BENCHMARK.json" >"$tmp/metrics"

# value FILE METRIC: the metric's value in a run's JSON summary.
value() {
	sed -n "s/.*\"$2\":{\"value\":\([-+0-9.eE]*\).*/\1/p" "$1"
}

for seed in $seeds; do
	echo "benchpair: $w seed $seed, $n pairs over $layouts layouts, base $(git -C "$root" rev-parse --short "$rev") against the working tree"
	run base 0 "$tmp/warmup"
	i=1
	while [ "$i" -le "$n" ]; do
		l=$(((i - 1) % layouts))
		if [ $((i % 2)) -eq 1 ]; then
			run base "$l" "$tmp/base.$i"; run change "$l" "$tmp/change.$i"
		else
			run change "$l" "$tmp/change.$i"; run base "$l" "$tmp/base.$i"
		fi
		echo "  pair $i/$n (layout $l) done"
		i=$((i + 1))
	done

	printf '%-20s %-34s %-34s %-6s %s\n' metric "base median (q1-q3)" "change median (q1-q3)" wins verdict
	while read -r m better; do
		i=1
		while [ "$i" -le "$n" ]; do
			echo "$(value "$tmp/base.$i" "$m") $(value "$tmp/change.$i" "$m") $(((i - 1) % layouts))"
			i=$((i + 1))
		done | awk -v m="$m" -v better="$better" -v layouts="$layouts" '
			# q(x, n, p): quantile p of sorted x[1..n], linear interpolation.
			function q(x, n, p,    h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? x[n] : x[lo] + (h - lo) * (x[lo + 1] - x[lo]) }
			function sort(x, n,    i, j, t) { for (i = 2; i <= n; i++) for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t } }
			# median(v, l): the median of v[l, 1..k[l]], the values under layout l.
			function median(v, l,    x, i) { for (i = 1; i <= k[l]; i++) x[i] = v[l, i]; sort(x, k[l]); return q(x, k[l], .5) }
			NF == 3 {
				n++; b[n] = $1; c[n] = $2; s = better == "lower" ? 1 : -1; if (s * $2 < s * $1) wins++
				k[$3]++; lb[$3, k[$3]] = $1; lc[$3, k[$3]] = $2
			}
			END {
				if (n == 0) { printf "%-20s no samples\n", m; exit }
				# The effect must point the same way under every layout.
				same = 1; per = ""
				for (l = 0; l < layouts; l++) {
					if (k[l] == 0) { same = 0; continue }
					mb = median(lb, l); mc = median(lc, l)
					if (!(s * mc < s * mb)) same = 0
					per = per sprintf("  %s %.5g -> %.5g", l == 0 ? "default" : "randlayout=" l, mb, mc)
				}
				sort(b, n); sort(c, n)
				gap = (q(b, n, .5) - q(c, n, .5)) * s
				ok = n >= 10 && wins * 10 >= n * 9 && gap > q(b, n, .75) - q(b, n, .25) && same
				printf "%-20s %-34s %-34s %-6s %s\n", m,
					sprintf("%.5g (%.5g-%.5g)", q(b, n, .5), q(b, n, .25), q(b, n, .75)),
					sprintf("%.5g (%.5g-%.5g)", q(c, n, .5), q(c, n, .25), q(c, n, .75)),
					wins + 0 "/" n, ok ? "claim ok" : "unresolved"
				printf "%-20s per layout, base -> change:%s\n", "", per
			}'
	done <"$tmp/metrics"

	# A failed run's error follows its summary line, so take the line
	# by its shape; its notes say why it failed.
	(cd "$root/bench" && "$tmp/bench.change.0" -workload "$w" -seed "$seed" -trace 1) >"$tmp/traced.log" 2>&1 || bad=1
	grep '^{' "$tmp/traced.log" | tail -n 1 >"$tmp/traced"
	echo "traced change run, seed $seed: sim.driver_vs_run $(value "$tmp/traced" sim.driver_vs_run)"
	grep -q '"correct":true' "$tmp/traced" || { bad=1; echo "benchpair: traced change run not correct:"; grep -v '^{' "$tmp/traced.log" | tail -n 3; }
done

[ "$bad" -eq 0 ] || { echo "benchpair: a run failed or reported correct=false"; exit 1; }
