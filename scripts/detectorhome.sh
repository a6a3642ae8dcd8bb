#!/bin/sh
# detectorhome.sh — bad-peer recognition has one home. Each of the seven
# detection journal types is constructed (a keyed field of a
# journal.Event literal) only in internal/police/round.go, and
# police.ComputeIndicators has one caller outside tests. Readers compare
# the constants; they do not construct. bench/, a module of its own, is
# not searched: it times journal.Record with a sample event. Part of
# `make lint`.
set -eu
home=internal/police/round.go
kinds='(Warning|NTRequest|NTReport|NTTimeout|NTDefer|Indicator|Cut)'
built=$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
	"Type:[[:space:]]*journal\.Type$kinds\b" . | grep -v "^\./$home:" || true)
callers=$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=bench '\bComputeIndicators\(' . |
	grep -vE "^\./(internal/police/police\.go|$home)$" || true)
if [ -n "$built$callers" ]; then
	echo "detectorhome: a detection record or a ComputeIndicators call outside $home:"
	printf '%s\n' "$built" "$callers"
	exit 1
fi
echo "detectorhome ok: every detection record is built in $home"
