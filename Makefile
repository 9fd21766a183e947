# Development targets for the multibus reproduction.

GO ?= go

.PHONY: all build test race fuzz bench bench-compare repro examples fmt vet cover clean check lint serve-smoke chaos-smoke cluster-smoke scenarios-check api-check perfbench-check

all: build vet test

# Full gate: compile, lint, unit tests, the race detector over the
# concurrent packages, bounded fuzz runs, scenario-file validation, the
# benchmark module's own build and tests, and end-to-end boots of the
# HTTP service (healthy, under chaos injection, and as a cluster). Run
# `make bench-compare` alongside it when touching the analytic hot path.
check: build lint test race fuzz scenarios-check api-check perfbench-check serve-smoke chaos-smoke cluster-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/numerics/... ./internal/analytic/... ./internal/scenario/... ./internal/sim/... ./internal/sweep/... ./internal/cache/... ./internal/chaos/... ./internal/service/... ./internal/obs/... ./internal/jobs/... ./internal/compute/... ./internal/cluster/...

# Bounded fuzzing of the parsers of outside bytes on the hot paths.
# FuzzClassifyWiring: arbitrary wiring files must classify without
# panics into structures that partition the buses and reachable modules,
# and must round-trip through WriteWiring with a stable fingerprint and
# byte-stable output.
# FuzzSweepShardStream: arbitrary peer shard streams must merge into a
# complete sweep with no grid index emitted twice; each of its inputs
# runs a whole HTTP round trip, so new-coverage minimization is capped
# to keep the 20s budget for exploring.
# FuzzScenarioCanonical: arbitrary scenario JSON must canonicalize
# idempotently and key identically across a re-marshal; its minimization
# is capped too, because uncapped it can stall the exec counter for the
# whole budget.
# FuzzGuideSample: the simulator's guide-table destination lookup must
# return the index a binary search over the same CDF finds, for any
# destination distribution and draw.
# FuzzTraceRoundTrip: any trace file ReadTrace accepts must survive
# WriteTrace → ReadTrace unchanged. Crashing inputs land in each
# package's testdata.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzClassifyWiring$$' -fuzztime 20s ./internal/analytic/
	$(GO) test -run '^$$' -fuzz '^FuzzSweepShardStream$$' -fuzztime 20s -fuzzminimizetime 2s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioCanonical$$' -fuzztime 20s -fuzzminimizetime 2s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzGuideSample$$' -fuzztime 20s ./internal/workload/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime 20s ./internal/workload/

# Contract gate: api/openapi.yaml must document exactly the routes the
# service serves, the error envelope must match the wire shape, and the
# example fixtures must round-trip through the real handlers.
api-check:
	$(GO) run ./cmd/apicheck

# The benchmark harness is its own module (perfbench/go.mod), so the
# root `go build ./...` skips it: build, vet and test it against the
# current internal packages here, so an internal API change cannot break
# the benchmark silently.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Validate every committed example scenario against the canonical
# scenario layer (strict parse + build + key derivation).
scenarios-check:
	$(GO) run ./cmd/mbscenario -quiet examples/scenarios/*.json
	@echo "scenarios-check: PASS"

# Static analysis: go vet always; staticcheck when it is on PATH (the CI
# image may not ship it, and we do not install tools on the fly).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go vet ran)"; \
	fi

# End-to-end smoke test of cmd/mbserve: boots the server on an
# ephemeral port, curls /healthz and one /v1/analyze, fails on non-200.
serve-smoke:
	$(GO) build -o /tmp/mbserve-smoke ./cmd/mbserve
	./scripts/serve-smoke.sh /tmp/mbserve-smoke

# Chaos smoke test: boots mbserve with -admit 1 and injected 2s compute
# latency, then asserts the saturated server sheds the overflow request
# with 429 + Retry-After and recovers to 200 once the slot frees.
chaos-smoke:
	$(GO) build -o /tmp/mbserve-smoke ./cmd/mbserve
	./scripts/serve-smoke.sh /tmp/mbserve-smoke chaos

# Cluster smoke test: boots a 3-peer cluster plus a standalone
# reference, asserts forwarded answers are byte-identical and locally
# cached, that a partitioned sweep merge equals the standalone sweep
# byte for byte, and that a killed peer is evicted and rejoins with
# byte-identical answers.
cluster-smoke:
	$(GO) build -o /tmp/mbserve-smoke ./cmd/mbserve
	./scripts/cluster-smoke.sh /tmp/mbserve-smoke

# Benchmark-regression harness: runs the full Benchmark* suite and
# records (name, ns/op, allocs/op, custom metrics) in BENCH_sim.json so
# future PRs have a perf trajectory to compare against. Commit the
# refreshed file alongside perf-sensitive changes. -count=3: benchjson
# records the best of the repeated runs, so the committed numbers track
# the machine's unthrottled speed, not a load spike. -cpu=1 pins
# GOMAXPROCS, so benchmark names carry no "-N" CPU-count suffix and the
# record compares across machines with different core counts.
bench:
	$(GO) test -bench=. -benchmem -run=NONE -count=3 -cpu=1 . | $(GO) run ./cmd/benchjson -o BENCH_sim.json

# Benchmark-regression gate: re-runs the pinned analytic and topology
# benchmarks into a scratch report and diffs it against the committed
# BENCH_sim.json. Fails on >20% ns/op growth or any allocs/op growth in
# the pinned set (Table*, Analytic*, BinomialRow*, BuildKey*,
# Topology*, ServeAnalyzeMissLarge); run it before committing changes to
# the analytic hot path, the topology representation or scenario
# building. -count=5 because the compare keeps the
# best of repeated runs, which suppresses scheduler noise on shared
# machines; -cpu=1 as in `make bench`.
bench-compare:
	$(GO) test -bench='BenchmarkTable|BenchmarkAnalytic|BenchmarkBinomialRow|BenchmarkBuildKey|BenchmarkTopology|BenchmarkServeAnalyzeMissLarge' -benchmem -run=NONE -count=5 -cpu=1 . | $(GO) run ./cmd/benchjson -o /tmp/multibus-bench-new.json
	$(GO) run ./cmd/benchjson -compare BENCH_sim.json /tmp/multibus-bench-new.json

# Full reproduction verdict: every paper table/figure plus the
# cross-validation ladder; exits nonzero on any mismatch.
repro:
	$(GO) run ./cmd/mbrepro

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/capacityplanning
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/clusterscheduler
	$(GO) run ./examples/designexplorer
	$(GO) run ./examples/hotspotplacement

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
