package p2g

// Analyzer equivalence stress: the sharded dependency analyzer must reproduce
// the independent sequential oracles (see equiv_test.go) at every shard
// count, one shard — the paper's single analyzer thread — included. Each case
// sweeps the shard count with seeded worker counts and granularities. Run
// under -race, this doubles as a concurrency stress of the per-shard
// mailboxes, cross-shard completion routing, and the two-phase quiescence
// protocol.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/runtime"
	"repro/internal/workloads"
)

// equivShards is the shard sweep: one shard (the serial analyzer thread of
// the paper) up to more shards than any test machine has cores.
var equivShards = []int{1, 2, 3, 6}

func TestAnalyzerEquivalenceMulSum(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, shards := range equivShards {
		workers := 1 + rng.Intn(8)
		gran := 1 + rng.Intn(3)
		maxAge := 10 + rng.Intn(11)
		n, rep := runChecked(t, MulSum, runtime.Options{
			Workers:        workers,
			MaxAge:         maxAge,
			Granularity:    map[string]int{"mul2": gran},
			AnalyzerShards: shards,
		})
		checkMulSumOracle(t, fmt.Sprintf("shards=%d (workers=%d gran=%d)", shards, workers, gran), n, rep, maxAge)
	}
}

func TestAnalyzerEquivalenceMJPEG(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, shards := range equivShards {
		workers := 1 + rng.Intn(8)
		n, rep := runChecked(t, mjpegEquivProgram, runtime.Options{Workers: workers, AnalyzerShards: shards})
		checkMJPEGOracle(t, fmt.Sprintf("shards=%d (workers=%d)", shards, workers), n, rep)
	}
}

func TestAnalyzerEquivalenceKMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, shards := range equivShards {
		workers := 1 + rng.Intn(8)
		gran := 1 + rng.Intn(16)
		opts := workloads.KMeansOptions(kmeansEquivConfig, workers)
		opts.Granularity = map[string]int{"assign": gran}
		opts.AnalyzerShards = shards
		n, rep := runChecked(t, func() *Program { return workloads.KMeans(kmeansEquivConfig) }, opts)
		checkKMeansOracle(t, fmt.Sprintf("shards=%d (workers=%d gran=%d)", shards, workers, gran), n, rep)
	}
}
