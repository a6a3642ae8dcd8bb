#!/bin/sh
# corepure.sh — the live node's protocol core stays a pure value, and so
# does vnet, the in-memory mesh its tests drive it on. The non-test files
# of internal/gnet/core and internal/gnet/core/vnet import no net, os or
# sync package (sync/atomic included) and contain no go statement:
# sockets, files, locks and goroutines belong to gnet's shell. ddclock's
# deterministic scope covers the other half, the wall clock. Part of
# `make lint`.
set -eu
bad=
for dir in internal/gnet/core internal/gnet/core/vnet; do
	imports=$(go list -f '{{join .Imports "\n"}}' "./$dir" | grep -E '^(net|os|sync)(/|$)' || true)
	# A go statement: the keyword at a statement's start, before a call or
	# a function literal. Comments are stripped first.
	spawns=$(for f in "$dir"/*.go; do
		case $f in *_test.go) continue ;; esac
		sed 's://.*$::' "$f" | grep -nE '(^|[;{[:space:]])go[[:space:]]+(func|[A-Za-z_][A-Za-z0-9_.]*[[:space:]]*[(\[])' |
			sed "s|^|$f:|" || true
	done)
	if [ -n "$imports$spawns" ]; then
		echo "corepure: $dir imports net, os or sync, or starts a goroutine:"
		printf '%s\n' "$imports" "$spawns"
		bad=1
	fi
done
[ -z "$bad" ] || exit 1
echo "corepure ok: internal/gnet/core and its vnet import no net, os or sync and start no goroutine"
