GO ?= go

.PHONY: all build test race vet fmt-check ci perfbench-check fuzz-lang test-fault bench bench-mem bench-transport bench-obs bench-lang bench-full bench-json loc clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# ci is the tier-1 gate: formatting, static checks, build, and the full test
# suite under the race detector, plus the benchmark harness check and the
# kernel-language fuzz gate.
ci: fmt-check vet build race perfbench-check fuzz-lang

# perfbench-check vets, builds and tests the benchmark harness, which is its
# own module (perfbench/go.mod) and so is skipped by the root ./... patterns.
perfbench-check:
	cd perfbench && GOWORK=off GOPROXY=off $(GO) vet ./... && GOWORK=off GOPROXY=off $(GO) build -o /dev/null ./... && GOWORK=off GOPROXY=off $(GO) test -count=1 ./...

# fuzz-lang is the kernel-language fuzz gate (also run by ci.sh): 10 s of
# FuzzCompile, which requires Compile to never panic and to reject exactly
# what the closure interpreter oracle rejects, with the same first error.
fuzz-lang:
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 10s ./internal/lang/

# test-fault is the fault-injection gate (also run by ci.sh): the failover,
# liveness, and teardown regression tests under the race detector — every
# scenario drives a real master/worker pair through a FaultConn (severed,
# wedged, or silently dropping connections).
test-fault:
	$(GO) test -race -count=1 -run 'Failover|Liveness|IdleTimeout|Standby|BroadcastsStop|AbortReleases|SendFailureTeardown' ./internal/dist/

# bench is the scheduler smoke gate (also run by ci.sh): one iteration of the
# figure 9/10 sweeps, the analyzer shard sweep and the dispatch benchmark,
# enough to catch crashes or stalls in the dispatch fast path without a full
# measurement run.
bench:
	$(GO) test -bench 'Fig9|Fig10|Dispatch|Analyzer' -benchtime=1x -count=1 .

# bench-mem is the memory-path smoke gate (also run by ci.sh): the typed slab
# store and wire-encode benchmarks with allocation reporting, enough to catch
# regressions that reintroduce boxing or per-element allocation on the bulk
# store/fetch path.
bench-mem:
	$(GO) test -bench 'FieldStoreSlab|WireEncodeFrame|FieldFetchView' -benchmem -benchtime=100x -count=1 -run xxx .

# bench-transport is the distributed-transport smoke gate (also run by
# ci.sh): one framed distributed MJPEG encode over TCP loopback plus the
# scatter-gather frame encode, enough to catch protocol or framing breaks on
# the store path.
bench-transport:
	$(GO) test -bench 'TransportMJPEG|FrameEncodeScatter' -benchtime=1x -count=1 -run xxx .

# bench-obs is the observability smoke gate (also run by ci.sh): one run of
# the figure 9/10 workloads under each observability setting (off, metrics,
# full tracing), plus the allocation test pinning the tracing-off dispatch
# path at zero allocs — enough to catch instrumentation leaking into the
# fast path.
bench-obs:
	$(GO) test -bench 'ObsOverhead' -benchtime=1x -count=1 -run xxx .
	$(GO) test -run DispatchTracingOffAllocFree -count=1 ./internal/runtime/

# bench-lang is the kernel-language back-end smoke gate (also run by ci.sh):
# one iteration of each kernel body on the register-bytecode VM and as the
# native Go baseline — enough to catch lowering or VM crashes on the
# benchmark kernels.
bench-lang:
	$(GO) test -bench 'Lang(MulSum|KMeans|Wavefront)' -benchtime=1x -count=1 -run xxx .

# bench-full is the measurement run over the whole benchmark suite.
bench-full:
	$(GO) test -bench=. -benchmem .

# bench-json runs the scheduler benchmarks and emits BENCH_scheduler.json.
bench-json:
	scripts/bench_json.sh

# loc prints the non-test Go line count outside the benchmark harness, the
# figure simplicity changes report.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
