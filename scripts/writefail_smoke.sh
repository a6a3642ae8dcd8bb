#!/bin/sh
# writefail_smoke.sh — every cmd tool that writes an output file must
# exit nonzero when the write fails. /dev/full accepts opens and small
# buffered writes but fails the flush with ENOSPC, which is exactly the
# failure a bare `defer f.Close()` used to swallow: the tool printed
# success over a truncated file. Part of `make ci`.
set -eu

if [ ! -w /dev/full ]; then
	echo "writefail smoke skipped: no /dev/full on this platform"
	exit 0
fi

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT INT TERM

go build -o "$workdir" ./cmd/ddsim ./cmd/ddexp ./cmd/ddtrace ./cmd/tracegen ./cmd/ddnode

# must_fail NAME CMD... — run the tool with output aimed at /dev/full
# and demand a nonzero exit.
must_fail() {
	name=$1
	shift
	if "$@" >"$workdir/$name.log" 2>&1; then
		echo "writefail smoke: $name exited 0 writing to /dev/full"
		cat "$workdir/$name.log"
		exit 1
	fi
}

# The journal streams during the run and only fails if there is
# something to write; a policed attack run produces thousands of events.
busy="-peers 100 -agents 5 -police -duration 6m -attack-start 1m"

must_fail ddsim-journal "$workdir/ddsim" $busy -journal /dev/full
must_fail tracegen "$workdir/tracegen" -out /dev/full -peers 10 -rate 1 -duration 1m

# ddexp writes per-figure artifacts into a directory; point the CSV dir
# at one whose target file is the full device via a symlink.
mkdir -p "$workdir/csv"
ln -s /dev/full "$workdir/csv/fig5_6_saturation.csv"
must_fail ddexp "$workdir/ddexp" -scale quick -fig 5 -csv "$workdir/csv"

# ddtrace -perfetto converts a journal: the committed two-query one.
must_fail ddtrace "$workdir/ddtrace" -in cmd/ddtrace/testdata/two_queries.journal -perfetto /dev/full

# ddnode streams its journal to -journal-out; a failed write must not
# exit 0. An empty journal legitimately succeeds, so boot a tiny
# two-node overlay and let the second node query the first, journaling
# every flood, until it has records to lose.
"$workdir/ddnode" -id 1 -listen 127.0.0.1:0 -share prize \
	>"$workdir/node1.log" 2>&1 &
node1pid=$!
addr=""
for _ in $(seq 1 50); do
	addr=$(sed -n 's/^node-1 listening on \([^ ]*\).*/\1/p' "$workdir/node1.log")
	[ -n "$addr" ] && break
	sleep 0.1
done
[ -n "$addr" ] || { echo "writefail smoke: node1 never listened"; cat "$workdir/node1.log"; exit 1; }

"$workdir/ddnode" -id 2 -listen 127.0.0.1:0 -connect "$addr" \
	-query prize -query-interval 200ms -flood-sample 1 -journal-out /dev/full \
	>"$workdir/node2.log" 2>&1 &
node2pid=$!
sleep 2
kill -TERM "$node2pid"
if wait "$node2pid"; then
	echo "writefail smoke: ddnode exited 0 writing its journal to /dev/full"
	cat "$workdir/node2.log"
	kill "$node1pid" 2>/dev/null || true
	exit 1
fi
kill "$node1pid" 2>/dev/null || true

echo "writefail smoke ok"
