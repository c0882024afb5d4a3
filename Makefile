# Tier-1 entry points. `make` = build + test.

GO ?= go

.PHONY: all build test bench bench-json bench-check bench-baseline cover fmt-check fuzz explain explain-update vet lint ci clean loadsmoke parity-check benchmark-check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails (listing the files) when anything is not gofmt-clean;
# CI runs it in the lint job.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis beyond vet: staticcheck (bug patterns, simplifications)
# and govulncheck (call-graph-reachable known vulnerabilities). CI installs
# the pinned versions below (see .github/workflows/ci.yml); locally the
# target runs whatever is on PATH and skips — loudly — when a tool is
# missing, so `make lint` never requires network access.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not on PATH, skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not on PATH, skipping (CI pins $(GOVULNCHECK_VERSION))"; \
	fi

# Coverage floors for internal/algebra (the columnar executor) and
# internal/algebra/opt (the plan optimizer) — each package is profiled and
# gated on its own, then the profiles merge into cover.out (uploaded as a
# CI artifact). The floor sits a few points under the current levels
# (~80% / ~95%) so honest refactors pass but untested rewrites fail.
COVER_FLOOR ?= 75
COVER_PKGS ?= ./internal/algebra ./internal/algebra/opt
cover:
	@rm -f cover.out; first=1; \
	for pkg in $(COVER_PKGS); do \
		$(GO) test -coverprofile=cover.pkg.out $$pkg || { rm -f cover.pkg.out; exit 1; }; \
		total=$$($(GO) tool cover -func=cover.pkg.out | awk '/^total:/ { gsub("%", "", $$3); print $$3 }'); \
		echo "$$pkg coverage: $$total% (floor $(COVER_FLOOR)%)"; \
		awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' || \
			{ echo "coverage below floor in $$pkg"; rm -f cover.pkg.out; exit 1; }; \
		if [ $$first = 1 ]; then cp cover.pkg.out cover.out; first=0; \
		else tail -n +2 cover.pkg.out >> cover.out; fi; \
	done; rm -f cover.pkg.out

# Overload smoke: a 5-second open-loop xqload burst (150 req/s, mixed
# query classes including a non-converging recursion) against an
# in-process xqd configured with a deliberately tiny capacity. Gates the
# degradation contract: zero 5xx, overflow shed as 429 + Retry-After,
# nonzero goodput, and a p99 bounded by the queue + query deadlines.
loadsmoke:
	$(GO) test -race -run TestLoadSmoke -count=1 -v ./cmd/xqd

# Parity gate: over the differential seed block, every engine × mode ×
# optimizer level × worker count configuration is evaluated twice — with
# and without one thing that must be invisible — and the two runs must
# agree byte for byte on results, errors, and fixpoint statistics:
#   tracing      off vs a live span recorder (obs is read-only);
#   round stats  per-round fed/delta trace spans -O0 vs -O1 (the delta-fed
#                step rewrite may shrink what steps consume, never what the
#                fixpoint feeds back or how many rounds it takes);
#   caching      uncached vs plan cache / result cache / both, each twice,
#                and warm caches must record hits;
#   indexes      NoIndex (every step walks the arena) vs the default (the
#                step kernel may probe the name index), and a probe must
#                have fired somewhere in the block.
parity-check:
	$(GO) test -run 'Parity$$' -count=1 ./internal/difftest

# The benchmark is its own Go module (benchmark/go.mod, `replace repro =>
# ../`), so `go build ./...` and `go test ./...` at the root never compile
# it: a rename under internal/ would break `go run -C benchmark .` unseen.
benchmark-check:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# What CI runs (see .github/workflows/ci.yml). The -race pass covers the
# concurrent store/xqd tests and the parallel fixpoint pools; the plain
# pass runs the differential-harness seed block (internal/difftest); the
# coverage step enforces the internal/algebra floor; loadsmoke gates the
# overload/degradation contract; parity-check gates tracing, round-stats,
# caching, and indexed-vs-scan parity; benchmark-check vets and tests the
# separate benchmark/ module.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) test -race ./...
	$(MAKE) fuzz FUZZTIME=10s
	$(MAKE) cover
	$(MAKE) parity-check
	$(MAKE) benchmark-check
	$(MAKE) loadsmoke

# Differential fuzzing: random documents + random fixpoint queries, every
# engine/mode/optimizer-level/worker-count combination must agree byte for
# byte. CI runs a short smoke; leave FUZZTIME unset locally for an
# open-ended hunt.
FUZZTIME ?= 60s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDifferential -fuzztime $(FUZZTIME) ./internal/difftest

# Plan-shape gate: diff the explain renderings (raw + optimized plans with
# property annotations, operator counts) of the paper's query families
# against the pinned goldens in internal/algebra/opt/testdata. Any rewrite
# that changes a plan's shape fails here (and in CI, via `go test ./...`);
# accept intended changes with `make explain-update` and review the diff.
explain:
	$(GO) test -run 'TestGolden' -count=1 ./internal/algebra/opt

explain-update:
	$(GO) test -run 'TestGolden' -count=1 ./internal/algebra/opt -update
	git --no-pager diff --stat internal/algebra/opt/testdata

# The perf plane beside the benchmark contract (`go run -C benchmark .`,
# see benchmark-check above): Table 2 and its oracle arms through one cell
# runner (internal/bench), as a printed table / BENCH_<n>.json snapshot
# (cmd/ifpbench) or under `go test -bench` (BenchmarkTable2/<cell id>).
# `bench` is the quick look: the bare drivers and the smallest row.
bench:
	$(GO) test -run '^$$' -bench 'IFPCore|Table2/T2.1/' -benchmem

# bench-json writes BENCH_<N>.json for PR number N over all eight rows,
# optionally along one axis (VARY=p=1,2 | opt=0,1 | ix=0,1). The number is
# given, never guessed — the history has gaps (no BENCH_6/7/11–16), and a
# first-gap rule would file a new snapshot between old ones — and an
# existing snapshot is never overwritten.
bench-json:
	@test -n "$(N)" || { echo "usage: make bench-json N=<pr number> [VARY=p=1,2]"; exit 2; }
	@test ! -e BENCH_$(N).json || { echo "BENCH_$(N).json exists; trajectory snapshots are not overwritten"; exit 1; }
	$(GO) run ./cmd/ifpbench $(if $(VARY),-vary $(VARY)) -json BENCH_$(N).json

# bench-check is the CI regression gate: measure all eight rows at the
# default configuration into BENCH_pr.json and compare against the
# committed BENCH_baseline.json, cell by cell on (id, p, opt, ix). The
# tolerances (allocs/op +25 %, ns/op 2×, every cell gated) and the reasons
# for them are constants in cmd/benchdiff/main.go. A full pass takes
# minutes; T2.7 rel Naïve alone is ≈16 s/op.
bench-check:
	$(GO) run ./cmd/ifpbench -json BENCH_pr.json
	$(GO) run ./cmd/benchdiff BENCH_baseline.json BENCH_pr.json

# bench-baseline refreshes the committed gate baseline from the same
# workload bench-check measures; run it whenever a PR moves the numbers on
# purpose.
bench-baseline:
	$(GO) run ./cmd/ifpbench -json BENCH_baseline.json

clean:
	rm -f ifpbench xq xqd distcheck xmlgen benchdiff *.test
	rm -f cover.out cover.pkg.out BENCH_pr.json
	rm -rf internal/difftest/testdata/fuzz
