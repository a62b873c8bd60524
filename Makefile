GO ?= go

BENCHES = treeadd power tsp mst bisort voronoi em3d barneshut perimeter health

.PHONY: check build vet fmt static test perf-test perf-pairs race fuzz lint bench report perfgate loc mutants profile serve load servesmoke cluster clustersmoke update-goldens

# Each fuzz target gets a short smoke run in check; raise FUZZTIME for a
# real fuzzing session.
FUZZTIME ?= 10s

# The full gate CI runs: build, vet, formatting, third-party static
# analysis, tests (the root module's, then the benchmark module's against
# it; the heap-escape contract check is TestSelfHostZeroFindings among
# them), the mini-C lints over every kernel and example source, and a fuzz
# smoke.
check: build vet fmt static test perf-test lint fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Third-party static analysis at a zero-finding gate. The tools are not
# vendored; when a box doesn't have them the target says so and passes
# (CI installs the pinned versions below and so always runs both).
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

static:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "static: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "static: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

test:
	$(GO) test ./...

# perf/ is its own module (the benchmark builds from its own go.mod), so
# `go test ./...` never compiles it against the root: this target does, and
# fails when a refactor breaks the exported surface the benchmark drives.
perf-test:
	cd perf && $(GO) test ./...

# Interleaved parent/change runs of one benchmark workload on this host, the
# perf/README.md §Comparing protocol: per side the median and quartiles of
# records_per_s and setup_s, the pair-by-pair table and the pairs won.
#   make perf-pairs PARENT=HEAD~1 WORKLOAD=sim_cache_only [PAIRS=10]
PARENT ?= HEAD
WORKLOAD ?= sim_cache_only
PAIRS ?= 10

perf-pairs:
	bash scripts/perf_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# The simulator takes no locks (a run has one owner, DESIGN.md §13), so the
# race detector is what checks that nothing per-run is shared. perf/ is its
# own module and its serve workloads run two simulation workers at once:
# run its tests under -race too (75 to 130 s). Its smoke test wants
# lat_p99_ms from some workload, which takes 1000 serve_hot requests in
# 0.4 s; on a loaded two-core host the detector's slowdown can leave it
# short ("lat_p99_ms is declared but no workload reports it"). That
# message is the host, not a race — a race says DATA RACE.
race:
	$(GO) test -race ./...
	cd perf && $(GO) test -race ./...

# go test runs one -fuzz target per invocation; -run '^$$' skips the
# ordinary tests so only the fuzzing engine runs.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzPackUnpack$$' -fuzztime $(FUZZTIME) ./internal/gaddr
	$(GO) test -run '^$$' -fuzz '^FuzzLexAll$$' -fuzztime $(FUZZTIME) ./internal/lang
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/lang
	$(GO) test -run '^$$' -fuzz '^FuzzEffects$$' -fuzztime $(FUZZTIME) ./internal/analysis/effects
	$(GO) test -run '^$$' -fuzz '^FuzzFnvWord$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRun$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzRingOwners$$' -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime $(FUZZTIME) ./internal/obs

# The pinned baselines and their gate. `make bench` re-pins the committed
# BENCH_<name>.json files in place (do this when a change moves them on
# purpose, and commit the diff). `make perfgate` is the CI gate: it re-pins,
# then fails when git sees any byte of a BENCH file move, printing the diff
# first; the indented JSON names the field. The simulator is deterministic,
# so the gate is exact both ways: cycles that drop fail it too, and so do
# stats, pages, metrics and digests. A failing run leaves the re-recorded
# files in the tree: commit them as a re-pin, or git checkout -- 'BENCH_*.json'.
BASELINE_PROCS ?= 4

bench:
	$(GO) run ./cmd/oldenbench -record . -maxprocs $(BASELINE_PROCS)

report:
	$(GO) run ./cmd/oldenbench -report

perfgate: bench
	@if [ -n "$$(git status --porcelain -- 'BENCH_*.json')" ]; then \
		git status --short -- 'BENCH_*.json'; \
		git --no-pager diff -- 'BENCH_*.json'; \
		echo "perfgate: the pins moved; commit them as a re-pin or git checkout -- 'BENCH_*.json'"; \
		exit 1; \
	fi

# The number ROADMAP item 7 tracks: non-test Go lines under internal/ and
# cmd/. TestLocBudget (loc_budget_test.go) fails when it exceeds locBudget.
loc:
	@find internal cmd -name '*.go' -not -name '*_test.go' | xargs cat | wc -l

# The committed mutant catalogue (testdata/mutants/*.patch): each patch
# must apply to the committed tree (exported with git archive) and fail the
# test it names; survivors must match testdata/mutants/survivors.golden.
# A few minutes; not part of check.
mutants:
	bash scripts/mutants.sh

# Simulator wall clock. Everything above gates on simulated cycles
# (deterministic, exact). How fast the simulator executes them is
# measured by the repository benchmark — `go run -C perf . -workload
# sim_table` reports records/s, ns per simulated cycle and allocations per
# run — and `make profile` writes pprof CPU + allocation profiles over the
# same thirty configurations (go test -bench WallClock: a test binary is
# what -cpuprofile needs). When the profile points at the dispatcher,
# `go test -run '^$' -bench Handoff ./internal/machine` prices one
# virtual-time handoff in a second or two, ns/op and switches/op: 2, 15 and
# 160 are that many runnable entries in a round-robin, pair-in-15 and
# pair-in-160 two entries ping-ponging among that many (a future body and
# its parent's continuation on one processor, the common shape) — iterate
# on that, then confirm with `make perf-pairs`.
WALL_DIR ?= /tmp/olden-wallclock
WALL_SCALE ?= 16
PROFILE_BENCHTIME ?= 3x

profile:
	@mkdir -p $(WALL_DIR)
	BENCH_SCALE=$(WALL_SCALE) $(GO) test -run '^$$' -bench 'WallClock' -benchmem \
		-benchtime $(PROFILE_BENCHTIME) \
		-cpuprofile $(WALL_DIR)/cpu.out -memprofile $(WALL_DIR)/mem.out \
		-o $(WALL_DIR)/repro.test .
	@echo "inspect: $(GO) tool pprof $(WALL_DIR)/repro.test $(WALL_DIR)/cpu.out"
	@echo "inspect: $(GO) tool pprof $(WALL_DIR)/repro.test $(WALL_DIR)/mem.out"

# The serving layer. `make serve` runs oldend in the foreground (ctrl-C
# or SIGTERM drains gracefully); `make load` fires a short closed-loop
# burst at it from another terminal; `make servesmoke` reproduces the CI
# smoke end to end: boot, memoization check, over-admission burst with
# zero-5xx gate, cached-latency SLO, SIGTERM drain under load.
SERVE_ADDR ?= 127.0.0.1:8080
LOAD_DURATION ?= 5s

serve:
	$(GO) run ./cmd/oldend -addr $(SERVE_ADDR)

load:
	$(GO) run ./cmd/oldenload -url http://$(SERVE_ADDR) -c 4 -duration $(LOAD_DURATION) -slo-error-rate 0

servesmoke:
	bash scripts/serve_smoke.sh

# The sharded cluster. `make cluster` boots three oldend replicas behind
# oldenrouter on one box (ctrl-C tears everything down); point clients
# or `oldenload -via-router` at the router — the surface is identical to
# one oldend. `make clustersmoke` reproduces the CI cluster smoke:
# routed cache-hit byte-identity; the cross-replica determinism sweep
# (every catalog key sent directly to all three replicas twice, the six
# answers cmp-equal with one trace digest, then a routed "verify":true
# re-run per key with zero mismatches); the three-shard balance gate;
# shard loss with zero 5xx; and tracing through the router.
cluster:
	bash scripts/cluster.sh

clustersmoke:
	bash scripts/cluster_smoke.sh

# One flag, one verb: every golden-pinning test in the tree takes
# `-update` to rewrite its files from the current build (lint goldens,
# the scheduler battery's ninety lines and the switch census's ten, the
# rendered report over the pinned baselines, the phase plans of the paper
# figures and the hostile fixture, the metric ids the router and replicas
# serve), and the committed BENCH_<name>.json baselines are re-pinned by
# `make bench` (kept separate because moving a pin is a reviewed decision,
# not a golden refresh). Run this after an
# intentional output change, then review and commit the diff. Not
# refreshed, on purpose: internal/analysis/effects/testdata/
# verdicts_parent.golden is what the deleted cost bounds said about every
# mini-C source, written once from the last commit that had them; likewise
# testdata/summaries_parent.golden, what the hand-written statement walkers
# said before lang.Inspect replaced them, internal/core/testdata/
# matrices_parent.golden, the update matrices the loop-body CFG and solver
# computed before the structural fold replaced them, and internal/core/
# testdata/lints_parent.golden and internal/analysis/effects/testdata/
# effects_parent.golden, the lints and effect summaries the basic-block CFG
# and worklist solver gave before lang.Fold replaced them (the four flow
# lints since deleted: TestLintsMatchParent drops their lines; so does
# TestMatricesMatchParent with the deleted return-value path extension's
# sections).
update-goldens:
	$(GO) test ./internal/core -run 'TestLintGolden' -update
	$(GO) test ./internal/bench -run 'TestSchedulerDigestEquivalence|TestSwitchCensus' -update
	$(GO) test ./internal/bench/record -run 'TestReportGolden' -update
	$(GO) test ./internal/analysis/phases -run 'TestPhasesGoldens' -update
	$(GO) test ./cmd/oldenc -run 'TestAnalyzeGoldens' -update
	$(GO) test ./internal/cluster -run 'TestServedMetricNames' -update

# The mini-C lint target builds oldenc once and runs that binary over every
# kernel and example source (a `go run` per source links it fourteen times).
OLDENC = /tmp/olden-oldenc

# oldenc -lint exits 1 only on error-severity diagnostics; the known
# warnings (the figure5/barneshut demotions) pass.
lint:
	@$(GO) build -o $(OLDENC) ./cmd/oldenc
	@for b in $(BENCHES); do \
		$(OLDENC) -lint -bench $$b || exit 1; \
	done
	@for f in examples/minic/*.c; do \
		$(OLDENC) -lint $$f || exit 1; \
	done
