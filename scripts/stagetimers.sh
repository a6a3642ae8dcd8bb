#!/bin/sh
# stagetimers.sh — the tick is timed in one place. Outside _test.go files,
# internal/sim starts (Timer.Start()) and observes (Timer.Observe) stage
# timers only in the walker, (*run).step, which times every row of the
# tick table; a row's body never times itself. The walker must still hold
# both calls, so renaming it cannot pass vacuously. Part of `make lint`.
set -eu
walker='func (r *run) step('
files=$(ls internal/sim/*.go | grep -v '_test\.go$')
out=$(awk -v walker="$walker" '
	FNR == 1 { in_walker = 0 }
	/^func / { in_walker = index($0, walker) == 1 }
	/\.Start\(\)|\.Observe\(/ {
		if (in_walker) { seen++ } else { print FILENAME ":" FNR ": " $0 }
	}
	END { if (seen < 2) print "the walker " walker ") starts and observes no timer" }
' $files)
if [ -n "$out" ]; then
	echo "stagetimers: a stage timer started or observed outside the tick walker:"
	printf '%s\n' "$out"
	exit 1
fi
echo "stagetimers ok: internal/sim times its stages only in the tick walker"
