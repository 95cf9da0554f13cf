#!/bin/sh
# bench_json.sh — run a benchmark suite and emit the results as JSON in the
# repo root.
#
# Suites:
#   scheduler  figure 9/10 sweeps, the analyzer shard sweep and the dispatch
#              benchmarks                        -> BENCH_scheduler.json
#   memory     figure 9/10 on the default scheduler plus the typed memory-path
#              benchmarks (slab store, wire encode) -> BENCH_memory.json
#   transport  distributed MJPEG encode over TCP loopback on batched typed
#              frames, plus the frame encode     -> BENCH_transport.json
#   obs        figure 9/10 workloads with observability off / metrics /
#              full tracing (overhead A/B)          -> BENCH_obs.json
#   lang       kernel-language back-end A/B: closure interpreter vs register
#              bytecode vs native Go on three kernel bodies -> BENCH_lang.json
#   all        every suite
#
# Usage: scripts/bench_json.sh [benchtime] [suite]   (default 1s scheduler)
set -eu
cd "$(dirname "$0")/.."

benchtime=${1:-1s}
suite=${2:-scheduler}

# emit <out> <bench regex> <packages...>: run the benchmarks and convert the
# standard `go test -bench` output lines into a JSON document.
emit() {
	out=$1
	pattern=$2
	shift 2
	raw=$(mktemp)
	trap 'rm -f "$raw"' EXIT

	go test -bench "$pattern" -benchtime="$benchtime" \
		-benchmem -count=1 -run xxx "$@" | tee "$raw"

	awk -v benchtime="$benchtime" '
	BEGIN { n = 0 }
	/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		iters = $2; nsop = ""; bop = ""; allocs = ""; wire = ""; replayed = ""
		for (i = 3; i < NF; i++) {
			if ($(i + 1) == "ns/op") nsop = $i
			if ($(i + 1) == "B/op") bop = $i
			if ($(i + 1) == "allocs/op") allocs = $i
			if ($(i + 1) == "wire-B/op") wire = $i
			if ($(i + 1) == "replayed-gens/op") replayed = $i
		}
		line = sprintf("    {\"name\": \"%s\", \"iterations\": %s", name, iters)
		if (nsop != "") line = line sprintf(", \"ns_per_op\": %s", nsop)
		if (wire != "") line = line sprintf(", \"wire_bytes_per_op\": %s", wire)
		if (replayed != "") line = line sprintf(", \"replayed_gens_per_op\": %s", replayed)
		if (bop != "") line = line sprintf(", \"bytes_per_op\": %s", bop)
		if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
		line = line "}"
		bench[n++] = line
	}
	END {
		print "{"
		printf "  \"benchtime\": \"%s\",\n", benchtime
		print "  \"benchmarks\": ["
		for (i = 0; i < n; i++) printf "%s%s\n", bench[i], (i < n - 1 ? "," : "")
		print "  ]"
		print "}"
	}' "$raw" >"$out"

	rm -f "$raw"
	trap - EXIT
	echo "wrote $out"
}

case "$suite" in
scheduler)
	emit BENCH_scheduler.json 'Fig9MJPEG|Fig10KMeans|Dispatch|Analyzer' . ./internal/runtime/
	;;
memory)
	emit BENCH_memory.json 'Fig9MJPEG$|Fig10KMeans$|FieldStoreSlab|WireEncodeFrame|FieldFetchView' .
	;;
transport)
	emit BENCH_transport.json 'TransportMJPEG|FrameEncodeScatter' .
	;;
obs)
	emit BENCH_obs.json 'ObsOverhead' .
	;;
lang)
	emit BENCH_lang.json 'Lang(MulSum|KMeans|Wavefront)' .
	;;
all)
	emit BENCH_scheduler.json 'Fig9MJPEG|Fig10KMeans|Dispatch|Analyzer' . ./internal/runtime/
	emit BENCH_memory.json 'Fig9MJPEG$|Fig10KMeans$|FieldStoreSlab|WireEncodeFrame|FieldFetchView' .
	emit BENCH_transport.json 'TransportMJPEG|FrameEncodeScatter' .
	emit BENCH_obs.json 'ObsOverhead' .
	emit BENCH_lang.json 'Lang(MulSum|KMeans|Wavefront)' .
	;;
*)
	echo "unknown suite: $suite (want scheduler, memory, transport, obs, lang, or all)" >&2
	exit 2
	;;
esac
