// Distributed example: the full figure 1 architecture on one machine. A
// master node collects the topology from three in-process execution nodes
// (each linked to it by a loopback TCP pipe, the deployed wire codec),
// partitions the K-means workload with the high-level scheduler, brokers
// store/completion events between the nodes, detects global quiescence and
// gathers per-node instrumentation.
//
// Run with:
//
//	go run ./examples/distributed -nodes 3
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/dist"
	"repro/internal/field"
	"repro/internal/kmeans"
	"repro/internal/sched"
	"repro/internal/workloads"
)

func main() {
	nodes := flag.Int("nodes", 3, "number of execution nodes")
	coresPer := flag.Int("cores", 2, "worker threads per node")
	flag.Parse()

	field.RegisterPayload(kmeans.Point{})
	cfg := workloads.KMeansConfig{N: 600, Dim: 2, K: 20, Iter: 8, Seed: 3}

	masterConns := make([]dist.Conn, *nodes)
	var wg sync.WaitGroup
	for i := 0; i < *nodes; i++ {
		masterConn, workerConn, err := dist.Pipe()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		masterConns[i] = masterConn
		wg.Add(1)
		go func(i int, conn dist.Conn) {
			defer wg.Done()
			_, err := dist.RunWorker(dist.WorkerConfig{
				NodeID:       fmt.Sprintf("exec-node-%d", i),
				Cores:        *coresPer,
				Prog:         workloads.KMeans(cfg),
				KernelMaxAge: workloads.KMeansOptions(cfg, 1).KernelMaxAge,
			}, conn)
			if err != nil {
				fmt.Fprintf(os.Stderr, "node %d: %v\n", i, err)
			}
		}(i, workerConn)
	}

	res, err := dist.RunMaster(dist.MasterConfig{
		Prog:   workloads.KMeans(cfg),
		Method: sched.Tabu,
	}, masterConns)
	wg.Wait()
	if err != nil {
		fmt.Fprintln(os.Stderr, "master:", err)
		os.Exit(1)
	}

	fmt.Printf("partitioned K-means across %d nodes (tabu search, cut %.1f, imbalance %.2f):\n",
		*nodes, res.Cost.Cut, res.Cost.Imbalance)
	var kernels []string
	for k := range res.Assignment {
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)
	for _, k := range kernels {
		fmt.Printf("  %-8s -> exec-node-%d\n", k, res.Assignment[k])
	}

	fmt.Println("\nper-node instrumentation:")
	var ids []string
	for id := range res.Reports {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("-- %s --\n%s", id, res.Reports[id].Table())
	}

	// The master's shadow node holds the complete final state.
	cents, err := res.Shadow.Snapshot("centroids", cfg.Iter)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapshot:", err)
		os.Exit(1)
	}
	want := kmeans.Sequential(kmeans.Generate(cfg.N, cfg.Dim, cfg.K, cfg.Seed), cfg.K, cfg.Iter)
	pts := workloads.CentroidPoints(cents)
	exact := true
	for c := 0; c < cfg.K; c++ {
		if kmeans.SqDist(pts[c], want.Centroids[c]) != 0 {
			exact = false
		}
	}
	fmt.Printf("\nfinal centroids match the sequential baseline: %v\n", exact)
}
