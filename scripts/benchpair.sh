#!/bin/sh
# benchpair.sh — the paired-run protocol a speed claim rests on
# (`make benchpair W=<workload> [N=10] [SEED=1] [BASE=HEAD~1]`): the
# repository benchmark of BASE against that of the working tree, each
# built once from its own bench/, one discarded warm-up (the first run
# after an idle spell reads about half: the ruler mis-scales it), then N
# pairs alternating which side goes first. Per end-to-end metric of
# BENCHMARK.json it prints each side's median and quartiles, the
# change's wins out of N, and `claim ok` when there are at least ten
# pairs, the change wins at least nine tenths of them and the medians
# differ by more than the distance between the base's own quartiles —
# `unresolved` otherwise.
# Exits non-zero when any run reports correct=false.
set -eu

w=${1:?usage: benchpair.sh WORKLOAD [N] [SEED] [BASE]}
n=${2:-10}
seed=${3:-1}
base=${4:-HEAD~1}

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
(cd "$tmp/base/bench" && go build -o "$tmp/bench.base" .)
(cd "$root/bench" && go build -o "$tmp/bench.change" .)

bad=0
# run SIDE OUT: one benchmark run of SIDE from its own bench/ (flags and
# golden/ are relative to it); the JSON summary line goes to OUT.
run() {
	dir=$root/bench
	[ "$1" = base ] && dir=$tmp/base/bench
	(cd "$dir" && "$tmp/bench.$1" -workload "$w" -seed "$seed") >"$tmp/run.log" 2>&1 || bad=1
	tail -n 1 "$tmp/run.log" >"$2"
	grep -q '"correct":true' "$2" || { bad=1; echo "benchpair: $1 run not correct:"; tail -n 5 "$tmp/run.log"; }
}

echo "benchpair: $w seed $seed, $n pairs, base $(git -C "$root" rev-parse --short "$rev") against the working tree"
run base "$tmp/warmup"
i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$tmp/base.$i"; run change "$tmp/change.$i"
	else
		run change "$tmp/change.$i"; run base "$tmp/base.$i"
	fi
	echo "  pair $i/$n done"
	i=$((i + 1))
done

# value FILE METRIC: the metric's value in a run's JSON summary.
value() {
	sed -n "s/.*\"$2\":{\"value\":\([-+0-9.eE]*\).*/\1/p" "$1"
}

# The end-to-end metrics and their better direction, from BENCHMARK.json
# (one field per line).
awk '/"end_to_end"/ {on=1} /"per_layer"/ {on=0}
	on && /"name"/ {gsub(/[",]/, ""); name=$2}
	on && /"better"/ {gsub(/[",]/, ""); print name, $2}' "$root/BENCHMARK.json" >"$tmp/metrics"

printf '%-20s %-34s %-34s %-6s %s\n' metric "base median (q1-q3)" "change median (q1-q3)" wins verdict
while read -r m better; do
	i=1
	while [ "$i" -le "$n" ]; do
		echo "$(value "$tmp/base.$i" "$m") $(value "$tmp/change.$i" "$m")"
		i=$((i + 1))
	done | awk -v m="$m" -v better="$better" '
		# q(x, n, p): quantile p of sorted x[1..n], linear interpolation.
		function q(x, n, p,    h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? x[n] : x[lo] + (h - lo) * (x[lo + 1] - x[lo]) }
		function sort(x, n,    i, j, t) { for (i = 2; i <= n; i++) for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t } }
		NF == 2 { n++; b[n] = $1; c[n] = $2; s = better == "lower" ? 1 : -1; if (s * $2 < s * $1) wins++ }
		END {
			if (n == 0) { printf "%-20s no samples\n", m; exit }
			sort(b, n); sort(c, n)
			gap = (q(b, n, .5) - q(c, n, .5)) * (better == "lower" ? 1 : -1)
			ok = n >= 10 && wins * 10 >= n * 9 && gap > q(b, n, .75) - q(b, n, .25)
			printf "%-20s %-34s %-34s %-6s %s\n", m,
				sprintf("%.5g (%.5g-%.5g)", q(b, n, .5), q(b, n, .25), q(b, n, .75)),
				sprintf("%.5g (%.5g-%.5g)", q(c, n, .5), q(c, n, .25), q(c, n, .75)),
				wins + 0 "/" n, ok ? "claim ok" : "unresolved"
		}'
done <"$tmp/metrics"

[ "$bad" -eq 0 ] || { echo "benchpair: a run failed or reported correct=false"; exit 1; }
