# SmoothOperator reproduction — common workflows.

GO ?= go

.PHONY: all check fmt-check perfbench-smoke build vet lint lint-annotate lint-json test test-race race cover bench bench-parallel bench-json bench-scale bench-scale-short bench-smoke smoke soak soak-short plan-soak-short frag-sweep frag-sweep-short multidim-sweep multidim-sweep-short experiments ablations extensions fuzz fuzz-short clean

all: check

# check is the pre-merge gate: gofmt, build, vet, the project linters, the
# full test suite, the same suite again under the race detector (the parallel
# pipeline must be data-race-free and bit-identical at any worker count), the
# smoothopd replay smoke, the short fault-injection soak, the concurrent
# what-if planner soak, and the short online-placement fragmentation sweep.
check: fmt-check build vet lint test test-race smoke soak-short plan-soak-short frag-sweep-short multidim-sweep-short

# fmt-check fails when any Go file is not gofmt-formatted.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs smoothoplint, the project's own static-analysis suite enforcing
# the determinism, parallel-safety and concurrency contracts (see DESIGN.md).
lint:
	$(GO) run ./cmd/smoothoplint ./...

# lint-annotate renders the same findings as GitHub Actions workflow
# commands, so CI surfaces them as inline PR annotations at the offending
# lines. Exit status matches `make lint`.
lint-annotate:
	$(GO) run ./cmd/smoothoplint -format=github ./...

# lint-json writes the findings as a machine-readable artifact
# (smoothoplint.json) for tooling to diff; byte-stable across runs and
# worker counts.
lint-json:
	$(GO) run ./cmd/smoothoplint -format=json ./... > smoothoplint.json

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

race: test-race

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

bench-parallel:
	$(GO) test -run=NONE -bench='Parallel|Serial' -benchmem .

# bench-json measures the score/tree/percentile kernels, the full RunAll
# pipeline and the fleet-size scale axis (full O(fleet) aggregation sweep vs
# incremental delta tick at 10k/100k/1M instances) in-process and writes
# ns/op + allocs/op to BENCH_pipeline.json — the perf trajectory future PRs
# diff against.
bench-json:
	$(GO) run ./cmd/benchjson -scale=full -o BENCH_pipeline.json

# bench-scale runs only the fleet-size axis at all three scale points.
bench-scale:
	$(GO) run ./cmd/benchjson -scale=full -o BENCH_pipeline.json

# bench-scale-short is the CI-sized axis (10k + 100k only; the 1M fleet is
# too slow for every push). The artifact is gitignored — CI runs it to keep
# the delta path honest, the committed trajectory comes from bench-json.
bench-scale-short:
	$(GO) run ./cmd/benchjson -scale=short -o BENCH_scale_short.json

# bench-smoke executes every benchmark exactly once so they cannot bit-rot;
# CI runs this on every push.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# smoke drives smoothopd's run() end to end twice — replay, flag validation,
# and a scrape of GET /metrics asserting deterministic counters.
smoke:
	$(GO) test -run 'TestSmoke|TestValidateFlags' -count=1 ./cmd/smoothopd

# soak replays weeks of telemetry twice — once clean, once through the seeded
# fault injector — and asserts the faulted Σ-leaf-peaks trajectory stays
# within the drift bound while the degradation machinery (quarantine,
# fallback traces, ingest retries, emergency capping) absorbs the faults.
soak:
	$(GO) run ./cmd/smoothopd -dc DC1 -scale 2 -weeks 6 -faults heavy -soak -soak-drift 5

# soak-short is the CI-sized soak: light faults over four weeks at scale 1,
# run twice in-process to pin bit-identical reports and counter deltas.
soak-short:
	$(GO) test -run 'TestSoak|TestValidateFaultFlags' -count=1 ./cmd/smoothopd

# plan-soak-short replays a daemon and fires concurrent /v1/plan planners at
# it — a mix of valid, invalid and load-shedding queries with a deliberately
# tiny in-flight limit. Asserts zero envelope-less responses and a bounded
# p99 latency.
plan-soak-short:
	$(GO) test -run 'TestPlanSoakShort|TestValidatePlanFlags' -count=1 ./cmd/smoothopd

# frag-sweep replays an arrival stream under each online placement policy and
# reports the power-fragmentation rate as load grows (FGD Fig. 7(a) analogue).
frag-sweep:
	$(GO) run ./cmd/experiments -frag-sweep

# frag-sweep-short is the CI-sized sweep: bit-identical at workers {1,8} and
# the asynchrony-aware policy must beat random and best-fit at high load.
frag-sweep-short:
	$(GO) test -run 'TestFragSweepShort' -count=1 ./internal/experiments

# multidim-sweep replays an arrival stream with multi-resource demands under
# the power-only and capacity-aware policies and reports stranded leaves.
multidim-sweep:
	$(GO) run ./cmd/experiments -multidim-sweep

# multidim-sweep-short is the CI-sized gate: bit-identical at workers {1,8}
# and the capacity-aware policy must strand strictly fewer leaves than
# power-only at equal admissions and equal-or-better Σ leaf peaks.
multidim-sweep-short:
	$(GO) test -run 'TestMultiDimSweepShort' -count=1 ./internal/experiments

# perfbench-smoke runs the end-to-end benchmark's own tests, then each of its
# four workloads once for one second, in the environment perfbench/run.sh
# sets up (build cache and temporaries under .bench_build, no module
# downloads). A workload whose correctness checks fail exits non-zero.
PERFBENCH_OUT = $(CURDIR)/.bench_build
PERFBENCH_ENV = GOCACHE=$(PERFBENCH_OUT)/go-cache GOTMPDIR=$(PERFBENCH_OUT)/go-tmp \
	GOMODCACHE=$(PERFBENCH_OUT)/go-mod XDG_CONFIG_HOME=$(PERFBENCH_OUT)/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

perfbench-smoke:
	mkdir -p $(PERFBENCH_OUT)/go-cache $(PERFBENCH_OUT)/go-tmp $(PERFBENCH_OUT)/go-mod $(PERFBENCH_OUT)/config
	cd perfbench && $(PERFBENCH_ENV) $(GO) test ./...
	for w in pipeline replay admit-churn plan-mixed; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

experiments:
	$(GO) run ./cmd/experiments -all

ablations:
	$(GO) run ./cmd/experiments -ablations

extensions:
	$(GO) run ./cmd/experiments -extensions

fuzz:
	$(GO) test -run=XXX -fuzz=FuzzReadCSV -fuzztime=10s ./internal/timeseries/
	$(GO) test -run=XXX -fuzz=FuzzLoadTree -fuzztime=10s ./internal/powertree/

# fuzz-short is a bounded smoke pass over every fuzz target, cheap enough
# for CI and pre-commit runs.
fuzz-short:
	$(GO) test -run=XXX -fuzz=FuzzReadCSV -fuzztime=5s ./internal/timeseries/
	$(GO) test -run=XXX -fuzz=FuzzLoadTree -fuzztime=5s ./internal/powertree/

clean:
	rm -rf internal/*/testdata/fuzz
