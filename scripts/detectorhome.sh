#!/bin/sh
# detectorhome.sh — bad-peer recognition has one home. Each of the seven
# detection journal types is constructed (a keyed field of a
# journal.Event literal) only in internal/police/round.go, and
# police.ComputeIndicators has one caller outside tests. Readers compare
# the constants; they do not construct. bench/, a module of its own, is
# not searched for those: it times journal.Record with a sample event.
# DD-POLICE's monitors, the overlay's per-edge query counters, are
# turned on (overlay.CountTraffic) only by police.New, their one
# reader, so a run counts exactly when police is on; that rule holds
# in bench/ too. Part of `make lint`.
set -eu
home=internal/police/round.go
kinds='(Warning|NTRequest|NTReport|NTTimeout|NTDefer|Indicator|Cut)'
built=$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
	"Type:[[:space:]]*journal\.Type$kinds\b" . | grep -v "^\./$home:" || true)
callers=$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=bench '\bComputeIndicators\(' . |
	grep -vE "^\./(internal/police/police\.go|$home)$" || true)
police=internal/police/police.go
counters=$(grep -rnE --include='*.go' --exclude='*_test.go' '\.CountTraffic\(' . |
	grep -v "^\./$police:" || true)
# Within police.go, only the body of New may call it.
counters=$counters$(awk '/^func New\(/ { inNew = 1 }
	/\.CountTraffic\(/ && !inNew { print FILENAME ":" FNR ": " $0 }
	inNew && /^}/ { inNew = 0 }' "$police")
if [ -n "$built$callers" ]; then
	echo "detectorhome: a detection record or a ComputeIndicators call outside $home:"
	printf '%s\n' "$built" "$callers"
	exit 1
fi
if [ -n "$counters" ]; then
	echo "detectorhome: overlay.CountTraffic called outside police.New ($police):"
	printf '%s\n' "$counters"
	exit 1
fi
echo "detectorhome ok: every detection record is built in $home; only police.New turns the edge counters on"
