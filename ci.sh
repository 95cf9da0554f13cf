#!/bin/sh
# Tier-1 verification gate, equivalent to `make ci`: formatting, vet, build,
# and the full test suite under the race detector, plus vet, build and tests
# of the benchmark harness module.
set -eu
cd "$(dirname "$0")"

out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:" >&2
	echo "$out" >&2
	exit 1
fi
go vet ./...
go build ./...
go test -race ./...
# The benchmark harness is its own module (perfbench/go.mod), so the root
# ./... skips it; check it separately so a runtime or dist API change that
# breaks the harness fails here.
(cd perfbench && GOWORK=off GOPROXY=off go vet ./... && GOWORK=off GOPROXY=off go build -o /dev/null ./... && GOWORK=off GOPROXY=off go test -count=1 ./...)
# Fault-injection gate (`make test-fault`): the failover, liveness, and
# teardown regression tests under the race detector, each driving a real
# master/worker pair through a severed, wedged, or silently dropping
# connection.
go test -race -count=1 -run 'Failover|Liveness|IdleTimeout|Standby|BroadcastsStop|AbortReleases|SendFailureTeardown' ./internal/dist/
# Scheduler smoke gate: one iteration of the figure 9/10 sweeps, the analyzer
# shard sweep and the dispatch benchmark (`make bench`) to catch crashes or
# stalls in the dispatch fast path.
go test -bench 'Fig9|Fig10|Dispatch|Analyzer' -benchtime=1x -count=1 .
# Memory-path smoke gate (`make bench-mem`): the typed slab store and
# wire-encode benchmarks with allocation reporting.
go test -bench 'FieldStoreSlab|WireEncodeFrame|FieldFetchView' -benchmem -benchtime=100x -count=1 -run xxx .
# Distributed-transport smoke gate (`make bench-transport`): one framed
# distributed MJPEG encode over TCP loopback plus the scatter-gather frame
# encode.
go test -bench 'TransportMJPEG|FrameEncodeScatter' -benchtime=1x -count=1 -run xxx .
# Observability smoke gate (`make bench-obs`): the figure 9/10 workloads under
# each observability setting, and the tracing-off dispatch path pinned at
# zero allocations per instance.
go test -bench 'ObsOverhead' -benchtime=1x -count=1 -run xxx .
go test -run DispatchTracingOffAllocFree -count=1 ./internal/runtime/
# Kernel-language back-end smoke gate (`make bench-lang`): each benchmark
# kernel body once on the register-bytecode VM and as the native Go
# baseline — catches lowering and VM crashes.
go test -bench 'Lang(MulSum|KMeans|Wavefront)' -benchtime=1x -count=1 -run xxx .
# Kernel-language fuzz gate (`make fuzz-lang`): 10 s of FuzzCompile, which
# requires Compile to never panic and to reject exactly what the closure
# interpreter oracle rejects, with the same first error.
go test -run '^$' -fuzz '^FuzzCompile$' -fuzztime 10s ./internal/lang/
