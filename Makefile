GO ?= go

.PHONY: ci lint build fmt vet ddlint detectorhome stagetimers corepure staticcheck test golden race smoke writefail resultscheck bench benchpair benchcheck fuzz

# ci is the gate: static checks, full build, full tests, then the one
# race pass (every package with real concurrency, whole suites, under
# the race detector), then the smoke (a live ddnode answering /metrics
# and /healthz, and the in-process examples), then the write-failure smoke, then the
# paper-scale regeneration against the committed results/, then the
# repository benchmark's own vet and tests (the nested bench/ module:
# every workload at smoke size against its pinned Result digests; no
# timing), then a short run of every fuzz target.
ci: lint build test race smoke writefail resultscheck benchcheck fuzz

build:
	$(GO) build ./...

# lint is the full static-analysis gate (DESIGN.md §18): gofmt, go vet,
# then the ddlint determinism analyzers, then the one-home checks of the
# detector and of the tick's stage timing, then the purity of the live
# node's core, then pinned staticcheck. Every leg runs unconditionally —
# there is deliberately no PATH-probe-and-skip path left; a static gate
# that cannot run must fail loudly (the writefail philosophy), never
# report a clean tree it did not inspect.
lint: fmt vet ddlint detectorhome stagetimers corepure staticcheck

# fmt fails when any tracked Go file (bench/ included) is not gofmt-clean,
# listing the files; it checks and never rewrites.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need gofmt -w:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# ddlint runs the house determinism analyzers (ddclock, ddrand,
# ddmaporder, ddnilgate, ddoutfile, ddallow) over the whole module.
# Exit 1 = findings, exit 2 = a package failed to load or type-check
# (a hard failure, not a skip).
ddlint:
	$(GO) run ./cmd/ddlint ./...

# detectorhome keeps bad-peer recognition in one place: the seven
# detection journal types are constructed, and police.ComputeIndicators
# is called, only in internal/police/round.go. The journal is a
# detection's only record; no span kind mirrors it. Its monitors have
# one home too: overlay.CountTraffic, which turns the per-edge query
# counters on, is called outside tests only in police.New.
detectorhome:
	./scripts/detectorhome.sh

# stagetimers keeps the tick timed in one place: outside tests,
# internal/sim starts and observes stage timers only in the walker of
# the tick table (DESIGN.md §5, "The tick").
stagetimers:
	./scripts/stagetimers.sh

# corepure keeps the live node's protocol a pure value: internal/gnet/core
# and its in-memory mesh internal/gnet/core/vnet import no net, os or sync
# and contain no go statement (DESIGN.md §14); ddclock keeps the wall clock
# out of both.
corepure:
	./scripts/corepure.sh

# staticcheck is hermetic: the release is pinned here (module version
# and the matching -version string) and executed via `go run
# module@version`, so the gate runs the exact same check set on every
# machine with no preinstalled binary. A PATH binary is used only as a
# fast path when it matches the pin exactly; any mismatch falls back to
# the pinned `go run`, so a drive-by upgrade can shift nothing. The pin
# lives here rather than as a go.mod tool dependency because go.mod
# must stay dependency-free for the offline hermetic build; in a fully
# offline environment with no module cache this target fails loudly —
# intentionally, there is no silent-skip path (`make vet ddlint
# detectorhome stagetimers` still covers the house rules offline).
STATICCHECK_VERSION ?= 2024.1
STATICCHECK_MODVER ?= v0.5.0
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1 && staticcheck -version 2>/dev/null | grep -q "$(STATICCHECK_VERSION)"; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: running pinned $(STATICCHECK_VERSION) via $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_MODVER)"; \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_MODVER) ./...; \
	fi

test:
	$(GO) test ./...

# regen_paper is the paper-scale regeneration into directory $(1) —
# csv/, svg/ and paper_results.txt — spelled once, so what `golden` pins
# and what `resultscheck` checks cannot drift apart.
regen_paper = $(GO) run ./cmd/ddexp -scale paper -fig all -csv $(1)/csv -svg $(1)/svg > $(1)/paper_results.txt

# golden re-pins everything that is pinned: internal/sim/testdata/golden/
# *.sha256 — the digests of each scenario's Result and journal
# streams that `test` holds the one tick engine to (DESIGN.md §16)
# — then cmd/ddexp/testdata/quick, the quick-scale stdout, CSVs and SVGs
# of every figure, then the committed paper-scale results/ (~40 s). Run
# it only for a change that is meant to move a stream or a figure, and
# commit the diff with the change.
golden:
	$(GO) test ./internal/sim -run Golden -update
	$(GO) test ./cmd/ddexp -run Pinned -update
	rm -rf results/csv results/svg
	$(call regen_paper,results)

# race is the one race pass: the full suites of every package with real
# concurrency, under the race detector. flood and sim run whole ticks:
# the sharded proposal phase's workers read overlay state, the active
# rows (overlay.Active), concurrently, so an overlay write during a
# proposal shows up there; sim also runs sim.Grid, the one worker pool,
# whose jobs share a World read-only; the root package is
# where figure-level concurrency is driven from (Figure.Execute hands a
# whole plan to the grid) and workload owns the shared Catalog, so a
# write to either from a run shows up here; gnet is the live TCP
# node's shell — handshakes, transient dials, a reset socket's re-dial,
# goroutine-leak regressions (one after a reset mid-flood),
# dual-queue send pumps; the protocol's tests, the no-re-dial rules for
# cut and shut-down peers among them, run on virtual time
# in gnet/core, which starts no goroutine to race; metricsrv scrapes
# while instruments churn; telemetry and journal hammer their
# instruments from many writers. overload and capacity start no
# goroutine either: `make test` runs them.
race:
	$(GO) test -race . ./internal/flood/ ./internal/sim/ ./internal/workload/ ./internal/gnet/ ./internal/metricsrv/ ./internal/telemetry/ ./internal/journal/

# The smoke pass boots a real ddnode with the exposition plane on and
# asserts /metrics serves non-empty Prometheus text and /healthz is ok,
# and that a second ddnode's SIGTERM reaches it as an orderly drop with
# no re-dial, then runs the five in-process examples (~2 s together), failing on a
# non-zero exit; examples/live_overlay (real TCP, ~6 s) stays out.
smoke:
	./scripts/metrics_smoke.sh
	@for e in quickstart attack_impact defense_tuning structured_comparison trace_pipeline; do \
		echo "smoke: examples/$$e"; \
		$(GO) run ./examples/$$e > /dev/null || exit 1; \
	done

# writefail asserts every cmd tool exits nonzero when its output file
# write fails (injected via /dev/full): a truncated artifact reported
# as success poisons everything downstream.
writefail:
	./scripts/writefail_smoke.sh

# resultscheck regenerates the paper-scale figures into a temporary
# directory and fails when anything differs from the committed results/
# (~40 s): a stale results/ — and with it every number EXPERIMENTS.md
# quotes from it — cannot survive a merge. `make golden` re-pins.
resultscheck:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(call regen_paper,"$$tmp") && \
	diff -r "$$tmp" results && echo "resultscheck ok: results/ is what the code regenerates"

# bench runs the repository benchmark (BENCHMARK.json, bench/README.md),
# the one instrument that measures speed: each workload in a process of
# its own, ~15 s each, every metric printed by name. To compare two
# commits, write result sets with -out and use `-compare A B` as
# bench/README.md shows.
bench:
	@for w in steady-2k attack-40k scale-100k paper-figs live-12; do \
		$(GO) run -C bench . -workload $$w || exit 1; \
	done

# benchpair is the protocol a speed claim rests on, scripted: `make
# benchpair W=steady-2k [N=10] [SEED=1] [BASE=HEAD~1] [LAYOUTS=3]`
# builds the benchmark of BASE (a `git archive` export in a temporary
# directory, no worktree) and of the working tree under LAYOUTS code
# layouts each (the default link and `-ldflags=-randlayout=J`, the same
# on both sides), discards one warm-up run, runs N pairs alternating
# which side goes first and cycling through the layouts, and prints per
# end-to-end metric both medians with quartiles, the change's wins,
# both medians under each layout, and `claim ok` or `unresolved` (nine
# tenths of the pairs, a median gap beyond the base's own interquartile
# range, and the change ahead under every layout). About N x 40 s;
# non-zero exit when a run was not correct. A claim needs the held-out
# seed too: SEED="1 2" builds once and prints one table per seed.
N ?= 10
SEED ?= 1
BASE ?= HEAD~1
LAYOUTS ?= 3
benchpair:
	./scripts/benchpair.sh "$(W)" $(N) "$(SEED)" $(BASE) $(LAYOUTS)

# benchcheck vets and tests the repository benchmark in bench/, a module
# of its own that the root `go vet ./...` and `go test ./...` cannot
# see. Its tests run all five workloads at smoke size against the
# Result digests pinned in bench/golden, so every change to
# flood/overlay/sim is held to "same simulated statistics" (~7 s).
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# fuzz runs each decoder's fuzz target for FUZZTIME (default 5 s, about
# 15 s in all): the wire frames, the journal's NDJSON reader and the
# query trace reader, the inputs that arrive from outside the program. `go
# test` alone runs only their seed corpora. A failing input is written
# under the package's testdata/fuzz; commit it with the fix, so `go
# test` replays it from then on.
FUZZTIME ?= 5s
fuzz:
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzReadNDJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload -run '^$$' -fuzz '^FuzzTraceReader$$' -fuzztime $(FUZZTIME)
