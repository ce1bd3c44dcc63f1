# Pythia reproduction — build/test/bench entry points. Everything is
# stdlib-only Go; no external dependencies or network access required.

GO ?= go

.PHONY: all build vet test test-short cover bench bench-paper benchmark bench-guard profile fuzz figures examples api api-check loc clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

cover:
	$(GO) test -cover ./...

# One testing.B benchmark per paper table/figure (see bench_test.go).
bench:
	$(GO) test -bench=. -benchmem ./...

# The same benchmarks at the paper's published input sizes.
bench-paper:
	$(GO) test -bench=. -benchmem -paperscale .

# The repository benchmark (BENCHMARK.json): five time-boxed workloads,
# end-to-end metrics, correctness gates. serve_mem/serve_wal/serve_fabric
# and recover_tail are the serving-stack throughput and crash-recovery
# benchmarks. Pass flags through ARGS, e.g.
#   make benchmark ARGS="--workload serve_mem --seed 2 --trace 1"
# Its own tests are a nested module: cd benchmark && go vet ./... && go test ./...
benchmark:
	bash benchmark/run.sh $(ARGS)

# Collector complexity guards (DESIGN.md §12.1, §12.2): a job's
# JobDone/ReducerUp must not cost more with 4096 unrelated live jobs than
# with 16, nor a batch's commit more with 16 256 live pair aggregates than
# with 256.
bench-guard:
	$(GO) test -run 'TestJobDoneCostIndependentOfLiveJobs|TestCommitCostIndependentOfLiveAggregates|TestResolvedIntentPathAllocs' -count=1 -v ./internal/core
	$(GO) test -bench='ApplyBatch(JobDone|ReducerUp|LiveAggregates|Stationary)' -benchtime=200x -run='^$$' ./internal/core

# Capture CPU + allocation profiles of the full experiment sweep (serial, so
# the call tree attributes to one trial at a time). Inspect with
#   go tool pprof out/cpu.pprof    /    go tool pprof out/mem.pprof
PROFILE_EXPERIMENT ?= all
profile:
	mkdir -p out
	$(GO) run ./cmd/pythia-bench -experiment $(PROFILE_EXPERIMENT) -parallel 1 \
		-cpuprofile out/cpu.pprof -memprofile out/mem.pprof > out/profile.txt
	@echo wrote out/cpu.pprof out/mem.pprof "(log: out/profile.txt)"

# Quick fuzz pass over the binary index-file codec, the wire decoder
# (differential against encoding/json), the journal frame reader and
# segment repair, and the exposition parser.
fuzz:
	$(GO) test ./internal/instrument/ -fuzz FuzzDecodeIndex -fuzztime 10s
	$(GO) test ./internal/instrument/ -fuzz FuzzBuildIndex -fuzztime 10s
	$(GO) test ./internal/instrument/ -fuzz FuzzDecodeIFile -fuzztime 10s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDecodeIngest -fuzztime 10s -fuzzminimizetime 0
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 10s -fuzzminimizetime 0
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s -fuzzminimizetime 0
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzOpenSegment -fuzztime 10s -fuzzminimizetime 0
	$(GO) test ./internal/flight/ -run '^$$' -fuzz FuzzParseExposition -fuzztime 10s -fuzzminimizetime 0

# Regenerate every table/figure (quick scale) and the SVG charts.
figures:
	mkdir -p out
	$(GO) run ./cmd/pythia-bench -svgdir out -json out/results.json | tee out/experiments.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/skewedjob
	$(GO) run ./examples/nutchsweep
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/multijob
	$(GO) run ./examples/observability

# Regenerate the committed facade API-surface report (review the diff!).
api:
	$(GO) run ./cmd/apireport > api.txt

# Fail if the facade's exported surface drifted from api.txt.
api-check:
	$(GO) run ./cmd/apireport -check api.txt

# The four numbers a simplicity PR reports (ROADMAP item 3): non-test Go
# lines, facade options, facade API-surface lines, pythia-serve flags.
loc:
	@printf 'non-test Go lines: %s\n' "$$(find . -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)"
	@printf 'func With* options: %s\n' "$$(grep -rh '^func With' --include='*.go' . | wc -l)"
	@printf 'api.txt lines: %s\n' "$$(wc -l < api.txt)"
	@printf 'pythia-serve flags: %s\n' "$$(grep -c ':= flag\.' cmd/pythia-serve/main.go)"

clean:
	rm -rf out
