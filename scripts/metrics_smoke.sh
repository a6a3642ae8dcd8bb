#!/bin/sh
# metrics_smoke.sh — boot a real ddnode with the exposition plane and
# assert the three endpoints answer: /metrics with non-empty Prometheus
# text, /healthz with status ok, /journal with NDJSON holding the flood
# record of the node's own query (it searches with -flood-sample 1).
# Then a second ddnode connects and is SIGTERM'd: the first must journal
# an orderly drop of it and re-dial nothing. Part of `make ci`.
set -eu

workdir=$(mktemp -d)
pid=""
pid2=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	[ -n "$pid2" ] && kill "$pid2" 2>/dev/null || true
	rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir/ddnode" ./cmd/ddnode

"$workdir/ddnode" -id 1 -listen 127.0.0.1:0 -police -metrics 127.0.0.1:0 \
	-flood-sample 1 -query prize -query-interval 200ms \
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
for field in journal_events journal_dropped cuts; do
	echo "$health" | grep -q "\"$field\":" || {
		echo "smoke: /healthz lacks $field: $health"; exit 1; }
done

# The node issues a query every 200 ms and keeps every flood record.
for _ in $(seq 1 50); do
	curl -fsS "http://$addr/journal?n=5" | grep -q '"type":"query_issue"' && break
	sleep 0.1
done
journal=$(curl -fsS "http://$addr/journal?n=5") || {
	echo "smoke: /journal failed"; exit 1; }
echo "$journal" | grep '"type":"query_issue"' | grep -q '"node":1,' || {
	echo "smoke: /journal holds no query_issue of node 1:"; echo "$journal"; exit 1; }

# A real shutdown. Node 2 dials node 1 and is SIGTERM'd; its Bye must
# reach node 1 as an orderly drop, which the supervisor never re-dials.
listen=$(sed -n 's|^node-1 listening on \([^ ]*\) .*|\1|p' "$workdir/node.log")
[ -n "$listen" ] || { echo "no listen address in node output:"; cat "$workdir/node.log"; exit 1; }
"$workdir/ddnode" -id 2 -listen 127.0.0.1:0 -connect "$listen" >"$workdir/node2.log" 2>&1 &
pid2=$!
for _ in $(seq 1 50); do
	curl -fsS "http://$addr/healthz" | grep -q '"neighbors":1' && break
	sleep 0.1
done
curl -fsS "http://$addr/healthz" | grep -q '"neighbors":1' || {
	echo "smoke: node 1 never saw node 2:"; cat "$workdir/node2.log"; exit 1; }
kill -TERM "$pid2"
wait "$pid2" || { echo "smoke: node 2 did not shut down cleanly:"; cat "$workdir/node2.log"; exit 1; }
pid2=""
for _ in $(seq 1 50); do
	curl -fsS "http://$addr/journal?n=100" | grep -q '"type":"peer_drop"' && break
	sleep 0.1
done
sleep 0.5 # ten base delays of the re-dial that must not come
journal=$(curl -fsS "http://$addr/journal?n=100")
drops=$(echo "$journal" | grep '"type":"peer_drop"' || true)
echo "$drops" | grep '"peer":2,' | grep -q '"detail":"orderly"' || {
	echo "smoke: no orderly peer_drop of node 2 after its SIGTERM:"; echo "$journal"; exit 1; }
if echo "$journal" | grep -q '"type":"reconnect"'; then
	echo "smoke: node 1 re-dialed a node that shut down:"; echo "$journal"; exit 1
fi

echo "metrics smoke ok ($addr)"
