# Development targets for the lasmq reproduction.

GO ?= go

.PHONY: all check lint layering build vet test test-race race bench bench-smoke bench-guard bench-baseline bench-compare probe-gate crosscheck reproduce replicate examples clean

all: build vet test

# Full pre-merge gate: map-range lint, import-layering gate, build, vet,
# tests, race detector, one race-enabled iteration of the engine benchmarks
# (bench-smoke, so the benchmark tier itself cannot rot or race silently),
# the telemetry zero-overhead assertion (probe-gate), the analytic M/M/1
# cross-check (crosscheck), and vet plus tests of the repository benchmark
# (bench-guard).
check: lint layering build vet test test-race bench-smoke probe-gate crosscheck bench-guard

# Policy/kernel packages whose float-bearing maps the lint watches.
LINT_PKGS = internal/sched internal/core internal/mlq internal/substrate internal/engine internal/fluid internal/trace internal/yarn

# Guard against the nondeterminism class PR 2 had to fix by hand: iterating
# an unordered map (allocations, demands, rate bounds, attained-service
# tables) while accumulating floats or mutating policy state makes results
# depend on map iteration order. Any `range` over those maps in non-test
# code must carry a same-line `// range-ok: <why order cannot matter>`
# annotation (e.g. keys are sorted before use, or the body does independent
# per-key writes).
lint:
	@bad=$$(grep -rnE 'range +[A-Za-z_.]*(alloc|demand|rates|attained|counts|sums)\b' \
		--include='*.go' $(LINT_PKGS) | grep -v '_test\.go' | grep -v 'range-ok:'; true); \
	if [ -n "$$bad" ]; then \
		echo "lint: unordered map range over float-bearing maps" \
			"(annotate '// range-ok: <reason>' if order cannot matter):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "lint: ok"

# Layering gate: the canonical streaming Source/JobSpec live in
# internal/substrate, and internal/trace aliases them from there. The trace
# substrate must never import a simulator — that inversion (trace -> fluid)
# is exactly what the substrate hoist removed, so keep it out for good.
layering:
	@bad=$$(grep -rn '"lasmq/internal/fluid"' internal/trace --include='*.go'; true); \
	if [ -n "$$bad" ]; then \
		echo "layering: internal/trace must not import internal/fluid" \
			"(alias streaming types from internal/substrate instead):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "layering: ok"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# `go vet` gates the default test flow so vet regressions fail fast.
test: vet
	$(GO) test ./...

# Race-detector CI gate: the mini-YARN cluster (internal/yarn) and the
# replication engine's worker pool (internal/runner) are the concurrency
# hot spots — run this before merging anything that touches either. It also
# runs the incremental-vs-full differential tests (TestIncrementalMatchesFull
# and the registry-level counterpart) under the race detector, covering the
# engine's scratch-buffer reuse.
test-race:
	$(GO) test -race ./...

race: test-race

# One bench iteration per figure/table; see EXPERIMENTS.md for paper-scale runs.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Engine performance record (BENCH_engine.json): the heavy end-to-end benches
# run a few fixed iterations, the scheduling-round/Assign micro benches many,
# and lasmq-benchdiff folds both into the committed JSON. Run bench-baseline
# once before an optimization, bench-compare after; the speedup section then
# holds baseline/current ratios (> 1 is an improvement).
HEAVY_BENCH = ^(BenchmarkFig7Heavy|BenchmarkClusterEngine|BenchmarkFluidEngine)$$
MICRO_BENCH = ^(BenchmarkLASMQAssign|BenchmarkFairAssign|BenchmarkLASAssign)$$

bench_engine.out:
	$(GO) test -run '^$$' -bench '$(HEAVY_BENCH)' -benchmem -benchtime=3x . > bench_engine.out
	$(GO) test -run '^$$' -bench '$(MICRO_BENCH)' -benchmem -benchtime=300x . >> bench_engine.out
	$(GO) test -run '^$$' -bench '^BenchmarkScheduleRound$$' -benchmem -benchtime=300x ./internal/engine >> bench_engine.out
	$(GO) test -run '^$$' -bench '^BenchmarkScheduleRoundProbed$$' -benchmem -benchtime=300x ./internal/engine >> bench_engine.out
	$(GO) test -run '^$$' -bench '^BenchmarkScale100k$$' -benchmem -benchtime=1x -timeout 30m . >> bench_engine.out
	$(GO) test -run '^$$' -bench '^BenchmarkScale1M$$' -benchmem -benchtime=1x -timeout 30m . >> bench_engine.out
	$(GO) test -run '^$$' -bench '^BenchmarkScale10M$$' -benchmem -benchtime=1x -timeout 60m . >> bench_engine.out
	$(GO) test -run '^$$' -bench '^BenchmarkScale1MEngineSharded$$' -benchmem -benchtime=1x -timeout 30m . >> bench_engine.out
	$(GO) test -run '^$$' -bench '^BenchmarkScale10MEngineSharded$$' -benchmem -benchtime=1x -timeout 120m . >> bench_engine.out

# One race-enabled iteration of every benchmark in the repo, with the scale
# tiers shrunk via LASMQ_SCALE_JOBS / LASMQ_SCALE1M_JOBS /
# LASMQ_SCALE10M_JOBS (and their _ENGINE_ twins) so the race detector's ~10x
# slowdown stays tolerable. Part of `make check`: it smoke-tests the
# benchmark code paths themselves (Scale100k's concurrent heap sampler, the
# K=4 sharded work-stealing pools of Scale1M/Scale10M, and the K=4 engine
# sharded runs of the EngineSharded tiers — their _WORKERS=4 overrides force
# a real worker pool even on a single-core runner, where the GOMAXPROCS
# default would silently serialize and give the race detector nothing to
# watch) so they can't silently rot between baseline refreshes.
bench-smoke:
	LASMQ_SCALE_JOBS=2000 LASMQ_SCALE1M_JOBS=8000 LASMQ_SCALE1M_SHARDS=4 \
	LASMQ_SCALE10M_JOBS=8000 LASMQ_SCALE10M_SHARDS=4 \
	LASMQ_SCALE1M_ENGINE_JOBS=6000 LASMQ_SCALE1M_ENGINE_SHARDS=4 LASMQ_SCALE1M_ENGINE_WORKERS=4 \
	LASMQ_SCALE10M_ENGINE_JOBS=6000 LASMQ_SCALE10M_ENGINE_SHARDS=4 LASMQ_SCALE10M_ENGINE_WORKERS=4 \
		$(GO) test -race -run '^$$' -bench . -benchtime=1x ./...

# Telemetry must be free when off, and cheap when on: a scheduling round
# with a nil probe may not allocate (testing.AllocsPerRun == 0), and neither
# may recording one flight-recorder ring event or one histogram observation.
# Run -count=1 so a cached pass cannot mask a regression introduced by an
# unrelated package.
probe-gate:
	$(GO) test -run '^TestScheduleRoundNilProbeZeroAlloc$$' -count=1 ./internal/engine
	$(GO) test -run '^TestZeroAlloc' -count=1 ./internal/obs

# The repository benchmark (lasmqbench/, its own module) compiles against the
# scheduler API — sched.Assignment, BufferedAssigner, Hinter, ObserveHinter,
# Quantizer.QuantizeInto, obs.ProbeSetter. Vet and test it here, so an API
# change fails `make check` instead of the benchmark run.
bench-guard:
	cd lasmqbench && GOWORK=off $(GO) vet . && GOWORK=off $(GO) test -count=1 .

# Analytic M/M/1 cross-check: drive the fluid and engine substrates with
# M/M/1 workloads at rho in {0.5, 0.7, 0.9} and assert FIFO/PS/SRPT/LAS
# means converge to the closed forms in internal/analytic (-count=1 so a
# cached pass cannot mask drift introduced by a substrate change). Scale up
# with LASMQ_CROSSCHECK_JOBS / LASMQ_CROSSCHECK_SEEDS for a sharper run.
crosscheck:
	$(GO) test -run '^TestCrossCheck' -count=1 ./internal/analytic

.PHONY: bench_engine.out
bench-baseline: bench_engine.out
	$(GO) run ./cmd/lasmq-benchdiff -mode baseline -out BENCH_engine.json < bench_engine.out

bench-compare: bench_engine.out
	$(GO) run ./cmd/lasmq-benchdiff -mode compare -out BENCH_engine.json < bench_engine.out

# Regenerate every table and figure at paper scale (writes full_results.txt).
reproduce:
	$(GO) run ./cmd/lasmq-bench -repeats 3 -seed 1 | tee full_results.txt

# Parallel multi-seed reproduction with 95% CIs; resumable via the cache dir.
replicate:
	$(GO) run ./cmd/lasmq-bench -seeds 8 -workers 8 -cache .lasmq-cache

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/adhoc
	$(GO) run ./examples/tracereplay
	$(GO) run ./examples/tuning
	$(GO) run ./examples/miniyarn
	$(GO) run ./examples/sparkdag
	$(GO) run ./examples/geo

clean:
	rm -f full_results.txt test_output.txt bench_output.txt bench_engine.out
