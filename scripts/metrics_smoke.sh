#!/bin/sh
# metrics_smoke.sh — boot a real ddnode with the exposition plane and
# assert the three endpoints answer: /metrics with non-empty Prometheus
# text, /healthz with status ok, /journal with NDJSON (possibly empty
# for an idle node). Part of `make ci`.
set -eu

workdir=$(mktemp -d)
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir/ddnode" ./cmd/ddnode

"$workdir/ddnode" -id 1 -listen 127.0.0.1:0 -police -metrics 127.0.0.1:0 \
	>"$workdir/node.log" 2>&1 &
pid=$!

# The node prints "metrics on http://ADDR" once the plane is up.
addr=""
for _ in $(seq 1 50); do
	addr=$(sed -n 's|^metrics on http://||p' "$workdir/node.log")
	[ -n "$addr" ] && break
	kill -0 "$pid" 2>/dev/null || { echo "ddnode died:"; cat "$workdir/node.log"; exit 1; }
	sleep 0.1
done
[ -n "$addr" ] || { echo "no metrics address in node output:"; cat "$workdir/node.log"; exit 1; }

metrics=$(curl -fsS "http://$addr/metrics")
echo "$metrics" | grep -q '^# TYPE ' || {
	echo "smoke: /metrics has no Prometheus TYPE lines:"; echo "$metrics"; exit 1; }
echo "$metrics" | grep -q '^gnet_' || {
	echo "smoke: /metrics has no gnet samples:"; echo "$metrics"; exit 1; }

health=$(curl -fsS "http://$addr/healthz")
echo "$health" | grep -q '"status":"ok"' || {
	echo "smoke: /healthz not ok: $health"; exit 1; }
for field in journal_events journal_dropped trace_spans trace_dropped degraded; do
	echo "$health" | grep -q "\"$field\":" || {
		echo "smoke: /healthz lacks $field: $health"; exit 1; }
done

curl -fsS "http://$addr/journal?n=5" >/dev/null || {
	echo "smoke: /journal failed"; exit 1; }

echo "metrics smoke ok ($addr)"
